"""Run one commvar command in this fresh interpreter and report on it.

Usage: python3 child.py '<spec json>'

The spec names the ``src`` directory to import from, the working directory,
the command's argv and whether to trace.  The child imports
``commvar.cli`` and times ``cli.main(argv)`` with stdout and stderr
captured, between two runs of a fixed calibration kernel.  It writes one
JSON record to ``result.json`` in the working directory: exit code,
SHA-256 of stdout (exit 1 and the traceback on stderr if the command
raised), import, calibration (both runs together) and command
time, and, when tracing, the per-layer tallies and spans.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import sys
import time
import traceback


def calibrate() -> float:
    """Time a fixed kernel of builtin dict, tuple and int work.

    It runs in the same process as the command, so its time tracks the
    speed the host gives this process at that moment.  It imports
    nothing, so it does not change what ``import commvar`` costs, and
    the garbage collector is paused so the command's heap cannot slow it.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        for i in range(80000):
            key = (i % 31, i % 29)
            table[key] = table.get(key, 0) + i * i % 1009
        return time.perf_counter() - t0
    finally:
        gc.enable()


def main() -> int:
    spec = json.loads(sys.argv[1])
    os.chdir(spec["cwd"])
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import commvar.cli as cli

    import_s = time.perf_counter() - t0
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"commvar was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(command_id=spec["id"])
        tracer.install()

    cal_before = calibrate()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t1 = time.perf_counter()
        try:
            code = cli.main(spec["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            # A crash is a failed command (exit 1, traceback on stderr),
            # not the end of the run.
            traceback.print_exc(file=err)
            code = 1
        cmd_s = time.perf_counter() - t1
    cal_after = calibrate()

    record = {
        "exit": code,
        "sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "import_s": import_s,
        "cal_s": cal_before + cal_after,
        "cmd_s": cmd_s,
        "stderr": err.getvalue()[-500:],
    }
    if tracer is not None:
        record["trace"] = tracer.report()
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

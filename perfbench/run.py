"""CLI-level benchmark for commvar.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload rank-sweep --seed 1 --seconds 20 --trace 0

Runs the workload's seeded command list as a closed loop with one
client: each command runs in its own fresh interpreter (``child.py``),
one at a time, and the next starts when the previous one exits.  The
run repeats the list round(seconds / nominal pass time) times, so it
lasts about ``--seconds`` and always holds the same number of
commands.  Every output is checked against ``golden.json``.

Every time is reported in reference seconds: the child times a fixed
calibration kernel just before and just after the command, and each of
its times is scaled by ``CAL_REF_S / calibration time``.  This takes out the host's
speed, which on a shared VM swings by up to 2x within minutes; the
unscaled medians are printed too.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` every
command runs once untraced and once traced (``tracer.py``), and the
object holds the per-layer metrics, per pass over the command list.
Lines before it say what was run and where its time went.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import PASS_SECONDS, SUITES, WORKLOADS, command_pass, descriptor_pool  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
GOLDEN = os.path.join(HERE, "golden.json")
SPANS_DIR = os.path.join(HERE, "out")
COMMAND_TIMEOUT_S = 120
# A traced run runs each command untraced and traced, about three times
# the work of an untraced pass.
TRACE_COST = 3
# Calibration time (both kernel runs) that defines one reference
# second: its usual value on a 2-vCPU x86-64 VM at this revision.  Any
# constant would do; it only sets the unit.
CAL_REF_S = 0.05
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
LAYERS = ("arith", "partitions", "symfunc", "charmodel", "series", "oracle", "varieties", "cli", "verify")


class Runner:
    """Runs commands in fresh interpreters inside one scratch directory.

    The children import ``commvar`` from a copy of ``src`` in that
    directory, made without any ``__pycache__``.  With
    ``PYTHONDONTWRITEBYTECODE=1`` none is ever written there, so every
    command compiles ``commvar`` from source, whatever bytecode a test
    run has left under ``src``.
    """

    def __init__(self, src: str):
        work_root = os.path.join(HERE, ".work")
        os.makedirs(work_root, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="run-", dir=work_root)
        self.src = os.path.join(self.work, "src")
        shutil.copytree(src, self.src, ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        self.descriptors = {}
        for name, body in descriptor_pool().items():
            path = os.path.join(self.work, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(body, fh)
            self.descriptors[f"@{name}"] = path
        self.env = {
            k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "COMMVAR_"))
        }
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.next_id = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass  # another run is still using it

    def argv(self, command: str) -> list[str]:
        return [self.descriptors.get(tok, tok) for tok in shlex.split(command)]

    def run(self, command: str, trace: bool) -> dict:
        """Run one command; returns the child's record plus its wall time."""
        self.next_id += 1
        cwd = tempfile.mkdtemp(prefix="cmd-", dir=self.work)
        env = dict(self.env, HOME=cwd, TMPDIR=cwd, XDG_CACHE_HOME=cwd)
        spec = json.dumps(
            {"src": self.src, "cwd": cwd, "argv": self.argv(command), "trace": trace, "id": self.next_id}
        )
        try:
            with open(os.path.join(cwd, "stderr.txt"), "w", encoding="utf-8") as err:
                t0 = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, CHILD, spec], cwd=cwd, env=env, timeout=COMMAND_TIMEOUT_S,
                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
                )
                wall_s = time.perf_counter() - t0
            try:
                with open(os.path.join(cwd, "result.json"), encoding="utf-8") as fh:
                    record = json.load(fh)
            except FileNotFoundError:
                with open(os.path.join(cwd, "stderr.txt"), encoding="utf-8") as fh:
                    tail = fh.read()[-2000:]
                raise RuntimeError(
                    f"child for {command!r} exited {proc.returncode} without a result:\n{tail}"
                ) from None
        finally:
            shutil.rmtree(cwd, ignore_errors=True)
        record.update(command=command, wall_s=wall_s, scale=CAL_REF_S / record["cal_s"])
        return record


def check(record: dict, golden: dict) -> str:
    """'ok', 'mismatch' or 'unchecked' against the recorded digest."""
    want = golden.get(record["command"])
    if want is None:
        return "unchecked"
    if record["exit"] != want["exit"] or record["sha256"] != want["sha256"]:
        return "mismatch"
    return "ok"


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float:
    """Highest percentile on the ladder with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return 50.0


def setup_s(r: dict) -> float:
    """Process wall time outside the command and the calibration kernel."""
    return r["wall_s"] - r["cmd_s"] - r["cal_s"]


def end_to_end(records: list[dict], peak_rss_kb: int) -> tuple[dict, dict]:
    cmd = [r["cmd_s"] * r["scale"] for r in records]
    tail_p = tail_percentile(len(cmd))
    metrics = {
        "cmds_per_s": len(cmd) / sum(cmd),
        "cmd_s.p50": statistics.median(cmd),
        "cmd_s.tail": percentile(cmd, tail_p),
        "setup_s": statistics.median(setup_s(r) * r["scale"] for r in records),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    unscaled = {
        "cmd_s.p50": statistics.median(r["cmd_s"] for r in records),
        "setup_s": statistics.median(setup_s(r) for r in records),
        "host_factor": statistics.median(1 / r["scale"] for r in records),
    }
    return metrics, {"tail_percentile": tail_p, "samples": len(cmd), "unscaled": unscaled}


def per_layer(plain: list[dict], traced: list[dict], passes: int) -> dict:
    stats: dict[str, list] = {}
    counts: dict[str, int] = {}
    for r in traced:
        for name, (calls, self_s, total_s) in r["trace"]["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += self_s * r["scale"]
            acc[2] += total_s * r["scale"]
        for name, value in r["trace"]["counts"].items():
            counts[name] = counts.get(name, 0) + value

    def stat(name: str, i: int) -> float:
        return stats.get(name, (0, 0.0, 0.0))[i]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {}
    for name in (
        "arith.poly_mul", "arith.poly_divmod", "arith.poly_gcd", "arith.ratfunc_add",
        "arith.ratfunc_mul", "arith.ratfunc_init", "arith.tseries_mul",
        "symfunc.mn_character", "symfunc.to_schur", "symfunc.schur",
        "symfunc.principal_spec", "symfunc.symfunc_mul",
        "charmodel.enhanced_character", "charmodel.graded_trace_product", "charmodel.poincare",
        "charmodel.flag_character", "charmodel.flag_schur_coefficient", "charmodel.point_count",
        "oracle.count_points", "oracle.matrix_ok", "oracle.commute", "oracle.det_mod",
    ):
        out[f"{name}.calls"] = stat(name, 0) / passes
        out[f"{name}.self_s"] = stat(name, 1) / passes
    for name in ("betti_zeta", "coh_series", "stable_betti", "stable_betti_verified", "groupoid_series"):
        out[f"series.{name}.self_s"] = stat(f"series.{name}", 1) / passes
    out["arith.poly_mul.coeff_pairs"] = counts["arith.poly_mul.coeff_pairs"] / passes
    out["arith.poly_gcd.nontrivial_ratio"] = ratio(counts["arith.poly_gcd.nontrivial"], stat("arith.poly_gcd", 0))
    hits, misses = counts["symfunc.mn_cache.hits"], counts["symfunc.mn_cache.misses"]
    out["symfunc.mn_cache.hit_ratio"] = ratio(hits, hits + misses)
    out["oracle.candidates_computed"] = counts["oracle.candidates_computed"] / passes
    out["oracle.accept_ratio"] = ratio(counts["oracle.tuples_counted"], stat("oracle.matrix_ok", 0))
    out["partitions.partitions_of.calls"] = stat("partitions.partitions_of", 0) / passes
    out["partitions.enumerated"] = counts["partitions.enumerated"] / passes
    out["setup.import_s"] = statistics.median(r["import_s"] * r["scale"] for r in plain)
    out["cli.main.self_s"] = stat("cli.main", 1) / passes
    for suite in SUITES:
        out[f"verify.{suite}.total_s"] = stat(f"verify.{suite}", 2) / passes
    traced_s = sum(r["cmd_s"] * r["scale"] for r in traced)
    out["trace.overhead_s"] = (traced_s - sum(r["cmd_s"] * r["scale"] for r in plain)) / passes
    for layer in LAYERS:
        layer_self = sum(v[1] for k, v in stats.items() if k.split(".", 1)[0] == layer)
        out[f"{layer}.self_share"] = ratio(layer_self, traced_s)
    return out


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "commvar", "cli.py")):
        print(f"error: no commvar sources under {src}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)["commands"]

    commands = command_pass(args.workload, args.seed)
    pass_s = PASS_SECONDS[args.workload] * (TRACE_COST if args.trace else 1)
    passes = max(1, round(args.seconds / pass_s))
    runner = Runner(src)
    plain, traced = [], []
    start = time.perf_counter()
    try:
        for _ in range(passes):
            for command in commands:
                plain.append(runner.run(command, trace=False))
                if args.trace:
                    traced.append(runner.run(command, trace=True))
    finally:
        runner.close()
    elapsed = time.perf_counter() - start
    # The largest max-RSS of any child waited for so far: the commands
    # (git_sha runs after this).
    peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    verdicts = [(r, check(r, golden)) for r in plain + traced]
    mismatched = [r for r, v in verdicts if v == "mismatch"]
    unchecked = sum(1 for _, v in verdicts if v == "unchecked")
    attempted = len(verdicts)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "passes": passes,
        "commands_per_pass": len(commands),
        "elapsed_s": round(elapsed, 3),
        "unchecked": unchecked,
        "fail_ratio": len(mismatched) / attempted,
    }
    print("# run " + json.dumps(info))
    for r in mismatched:
        print(f"# mismatch: exit {r['exit']} sha256 {r['sha256'][:12]} argv: commvar {r['command']}")
        if r["stderr"]:
            print("#   stderr: " + r["stderr"].strip().replace("\n", "\n#   "))

    if args.trace:
        values = per_layer(plain, traced, passes)
        listed = spec["per_layer"]
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans_path = os.path.join(SPANS_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        with open(spans_path, "w", encoding="utf-8") as fh:
            for r in traced:
                for span in r["trace"]["spans"]:
                    fh.write(json.dumps(dict(zip(("id", "name", "start", "end", "parent", "command"), span))) + "\n")
        dropped = sum(r["trace"]["spans_dropped"] for r in traced)
        print(f"# spans written to {os.path.relpath(spans_path, ROOT)} ({dropped} beyond the per-command limit)")
    else:
        values, notes = end_to_end(plain, peak_rss_kb)
        listed = spec["end_to_end"]
        print(f"# cmd_s.tail is the p{notes['tail_percentile']:g} of {notes['samples']} commands")
        print("# unscaled wall-clock medians " + json.dumps(notes["unscaled"]))
    metrics = {}
    for entry in listed:
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        print(f"# {entry['name']:<40} {values[entry['name']]:.6g} {entry['unit']}")
    missing = set(values) - set(metrics)
    if missing:
        print(f"error: metrics not listed in BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": not mismatched and unchecked == 0,
                "attempted": attempted,
                "failed": len(mismatched),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

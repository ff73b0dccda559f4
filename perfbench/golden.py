"""Record the golden output digests of every benchmark command.

Usage (from the root of a checkout):

    python3 perfbench/golden.py

Runs every command any seed can generate (``workloads.universe``) once,
in a fresh interpreter, and writes its exit code and the SHA-256 of its
stdout to ``golden.json``.  Regenerate only from a commit whose
``commvar verify`` passes; a command that exits nonzero is an error,
because the workloads are chosen so that no operation fails.
"""

from __future__ import annotations

import json
import os
import platform
import sys

from run import GOLDEN, ROOT, Runner, git_sha
from workloads import WORKLOADS, universe


def main() -> int:
    commands = {}
    runner = Runner(os.path.join(ROOT, "src"))
    failed = []
    try:
        for workload in WORKLOADS:
            todo = universe(workload)
            for i, command in enumerate(todo, 1):
                record = runner.run(command, trace=False)
                commands[command] = {"exit": record["exit"], "sha256": record["sha256"]}
                print(f"{workload} {i}/{len(todo)} {record['cmd_s']:.3f}s exit {record['exit']}: {command}", flush=True)
                if record["exit"] != 0:
                    failed.append(command)
    finally:
        runner.close()
    if failed:
        print("commands that failed:\n  " + "\n  ".join(failed), file=sys.stderr)
        return 1
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(
            {"git_sha": git_sha(), "python": platform.python_version(), "commands": dict(sorted(commands.items()))},
            fh,
            indent=1,
        )
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

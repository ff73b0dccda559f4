"""The benchmark's layer tracer still finds every name it patches.

``perfbench/tracer.py`` wraps functions and methods of ``commvar`` by
name and reads ``symfunc._mn.cache_info()``.  A fresh interpreter loads
it from its file (writing no bytecode, so ``perfbench/`` is only read),
installs it, runs one command of each kind through ``cli.main`` and
prints the report's stat names and counts as JSON.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import contextlib, importlib.util, io, json, sys

spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
t = tracer.Tracer(0)
t.install()

import commvar.cli

codes = []
for argv in (
    ["char", "--flag", "4"],
    ["char", "--variety", "p1", "-n", "4", "-q", "3", "--cycle-type", "(2,1,1)"],
    ["poincare", "--space", "cn", "--variety", "p1", "-n", "4"],
    ["count", "--family", "torus", "--n", "2", "--q", "2"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(commvar.cli.main(argv))
report = t.report()
print(json.dumps({"codes": codes, "stats": sorted(report["stats"]), "counts": report["counts"]}))
"""


def test_tracer_installs_and_reports():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench" / "tracer.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [0, 0, 0, 0]
    stats = set(report["stats"])
    for name in (
        "cli.main",
        "symfunc.to_schur",
        "charmodel.flag_character",
        "charmodel.enhanced_character",
        "charmodel.graded_trace_product",
        "charmodel.poincare",
        "oracle.count_points",
        "arith.poly_mul",
    ):
        assert name in stats, name
    counts = report["counts"]
    assert counts["symfunc.mn_cache.misses"] > 0
    assert counts["oracle.tuples_counted"] == 6

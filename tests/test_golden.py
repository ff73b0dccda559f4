"""The commands of the benchmark, replayed in-process.

``perfbench/golden.json`` records the exit code and the SHA-256 of stdout
of every command the benchmark can run.  Each ``char``, ``count``,
``poincare``, ``series`` and ``verify`` command among them is run here
through ``cli.main`` with the benchmark's descriptor pool written to a
temporary directory, and must give the recorded exit code and digest.
``perfbench/`` is only read.
"""

import hashlib
import importlib.util
import json
import shlex
from pathlib import Path

import pytest

from commvar.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))["commands"]
COMMANDS = sorted(c for c in GOLDEN if c.split()[0] in ("char", "count", "poincare", "series", "verify"))


def write_descriptors(root: Path) -> dict[str, str]:
    """Write the benchmark's descriptor pool to ``root`` as JSON;
    ``@<name>`` -> path of each descriptor."""
    paths = {}
    for name, body in _load_workloads().descriptor_pool().items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(body), encoding="utf-8")
        paths[f"@{name}"] = str(path)
    return paths


@pytest.fixture(scope="module")
def descriptors(tmp_path_factory):
    """``@<name>`` -> path of the pool descriptor written as JSON."""
    return write_descriptors(tmp_path_factory.mktemp("descriptors"))


def test_golden_has_the_series_and_verify_commands():
    assert sum(c.split()[0] in ("series", "verify") for c in COMMANDS) == 35
    assert sum(c.startswith("verify ") for c in COMMANDS) == 9


def test_golden_has_the_char_commands():
    assert sum(c.startswith("char ") for c in COMMANDS) == 150
    assert sum(c.startswith("char --flag ") for c in COMMANDS) == 7


def test_golden_has_the_poincare_commands():
    assert sum(c.startswith("poincare ") for c in COMMANDS) == 62


def test_golden_has_the_count_commands():
    assert sum(c.startswith("count ") for c in COMMANDS) == 28


@pytest.mark.parametrize("command", COMMANDS)
def test_digest_matches_golden(capsys, descriptors, command):
    argv = [descriptors.get(tok, tok) for tok in shlex.split(command)]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == GOLDEN[command]["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[command]["sha256"]

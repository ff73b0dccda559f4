"""The commands of the benchmark, read from the one replay.

``perfbench/golden.json`` records the exit code and the SHA-256 of stdout
of every command the benchmark can run.  Each of them is replayed by
``replay.child_record`` with the benchmark's descriptor pool, each with
its caches cold, as the benchmark runs it in a fresh interpreter, and
must give the recorded exit code and digest.  ``perfbench/`` is only read.
"""

import pytest

from replay import GOLDEN, child_record

COMMANDS = sorted(GOLDEN)


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
def test_digest_matches_golden(command):
    entry = child_record()["commands"][command]
    assert "traceback" not in entry, entry["traceback"]
    assert (entry["exit"], entry["sha256"]) == (GOLDEN[command]["exit"], GOLDEN[command]["sha256"])

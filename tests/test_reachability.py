"""What the commands enter, read from the one replay (``replay.py``).

The functions of ``src/commvar`` that no replayed command enters must be
exactly ``UNREACHED``, each with the reason it stays.  A function that no
command needs and no reason keeps belongs in the tests, next to
``symfunc_ops.py`` and ``series_oracle.py``; a listed function that a
command starts to enter leaves the list.

A cache hit counts only when one command asks for the same value twice.
The module-level caches that no command hits must be exactly ``UNHIT``,
each with the reason it stays: a cache that pays on no command is cost
without use, and goes.

Each of ``PATH_RULES`` names the commands it covers, as a pattern of the
whole command line, the functions they must not enter, and why; every
replayed command it covers exits 0 having entered none of them.
"""

import re

import pytest

from replay import child_record, commands, defined_functions

TRACED = "wrapped by the benchmark's layer tracer (perfbench/tracer.py)"
TRACED_HELPER = "called only by a function the benchmark's layer tracer wraps"
VALUE = "value dunder: repr, str, hash, equality or immutability"
ERROR_PATH = "runs only for help, usage or error text, or a failed check"

UNREACHED = {
    "arith.Poly.coeffs": "read by the tracer's coefficient-pair counter (_count_poly_mul)",
    "arith.Poly.__divmod__": TRACED,
    "arith.poly_gcd": TRACED,
    "arith._primitive": TRACED_HELPER,
    "arith.RatFunc.__add__": TRACED,
    "arith.RatFunc.__mul__": TRACED,
    "arith.TSeries.__mul__": TRACED,
    "arith.TSeries.__init__": TRACED_HELPER,
    "arith.TSeries.__eq__": TRACED_HELPER,
    "charmodel.point_count": TRACED,
    "oracle.commute": TRACED,
    "symfunc.mn_character": TRACED,
    "symfunc.SymFunc.principal_spec": TRACED,
    "symfunc.SymFunc.__mul__": TRACED,
    "symfunc._concat": TRACED_HELPER,
    "arith.Frozen.__eq__": VALUE,
    "arith.Frozen.__repr__": VALUE,
    "arith.Frozen.__setattr__": VALUE,
    "arith.Poly.__repr__": VALUE,
    "arith.Poly.__str__": VALUE,
    "arith.RatFunc.__repr__": VALUE,
    "charmodel.GradedSpace.__repr__": VALUE,
    "charmodel.GradedSpace.__setattr__": VALUE,
    "charmodel.QPower.__str__": VALUE,
    "partitions.Partition.__repr__": VALUE,
    "partitions.Partition.__setattr__": VALUE,
    "symfunc.SymFunc.__hash__": VALUE,
    "symfunc.SymFunc.__repr__": VALUE,
    "cli.build_parser": ERROR_PATH,
    "verify.CrossCheck.describe": ERROR_PATH,
    "arith.Poly.__neg__": "-p, the ring's negation, which the tests write",
    "arith.Poly.__rsub__": "c - p for a scalar c, which the tests write",
}

#: module-level caches that no command hits, each with the reason it stays
UNHIT: dict[str, str] = {}


def test_every_function_is_entered_by_a_command_or_listed():
    record = child_record()
    assert list(record["commands"]) == commands()
    assert [c for c, entry in record["commands"].items() if entry["exit"] != 0] == []
    assert set(record["unreached"]) == set(UNREACHED)


def test_every_module_cache_is_hit_within_a_command_or_listed():
    hits = child_record()["cache_hits"]
    assert hits, "the replay found no module-level cache"
    unhit = {name for name, count in hits.items() if count == 0}
    assert unhit == set(UNHIT), f"unhit and not listed: {sorted(unhit - set(UNHIT))}"


def test_the_function_index_names_methods_and_decorated_functions():
    names = set(defined_functions().values())
    assert {"arith.Poly.coeffs", "arith.pochhammer_ints", "cli.main", "arith.Frozen.__eq__"} <= names


# name -> (commands covered, functions they must not enter, why)
PATH_RULES = {
    "no-poly-product-on-series": (
        r"series (betti|coh|stable) .*|verify --suite (coh|macdonald|stabilization)",
        {"arith._convolve"},
        "the series products run on int rows; _convolve is the product behind Poly.__mul__",
    ),
    "no-character-code-on-point-counts": (
        r"series groupoid .*|verify --suite pointcounts( .*)?",
        {"charmodel.enhanced_character", "partitions.partitions_of", "symfunc.SymFunc.__init__",
         "symfunc.SymFunc.principal_spec_numerator"},
        "the point counts run on the rank recurrence, not on characters",
    ),
    "no-character-table-on-flag": (
        r"char --flag .*",
        {"symfunc.character_table", "symfunc._mn", "symfunc.SymFunc.to_schur"},
        "char --flag prints the hook-formula multiplicities",
    ),
}
RULE_CASES = [
    (name, command) for name, rule in PATH_RULES.items() for command in commands() if re.fullmatch(rule[0], command)
]


def path_violations(rule: tuple, command: str, entry: dict) -> list[str]:
    """What ``command``, recorded as ``entry``, does against ``rule``."""
    _, forbidden, why = rule
    found = [f"{command}: exit {entry['exit']}"] if entry["exit"] != 0 else []
    entered = sorted(forbidden & set(entry["entered"]))
    return found + [f"{command}: entered {name}; {why}" for name in entered]


def test_every_path_rule_covers_a_replayed_command_and_names_defined_functions():
    assert {name for name, _ in RULE_CASES} == set(PATH_RULES)
    forbidden = set().union(*(rule[1] for rule in PATH_RULES.values()))
    assert forbidden - set(defined_functions().values()) == set()


@pytest.mark.parametrize("name, command", RULE_CASES, ids=[f"{n}: {c}" for n, c in RULE_CASES])
def test_command_keeps_to_its_path_rule(name, command):
    entry = child_record()["commands"][command]
    assert path_violations(PATH_RULES[name], command, entry) == []


def test_detects_a_forbidden_function_entered_and_a_failed_exit():
    rule = PATH_RULES["no-poly-product-on-series"]
    entry = {"exit": 1, "entered": ["arith._convolve", "series.betti_zeta"]}
    assert path_violations(rule, "series betti", entry) == [
        "series betti: exit 1",
        f"series betti: entered arith._convolve; {rule[2]}",
    ]

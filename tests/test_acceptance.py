"""Acceptance gate: every exact criterion, one test per criterion.

Each test prints its own PASS/FAIL line (visible with ``pytest -s`` or
on failure) and asserts the exact verdict; there are no tolerances,
every comparison is bit-exact.  The same checks back the ``commvar
verify`` subcommand.
"""

import pytest

from commvar.arith import Poly
from commvar.oracle import Torus
from commvar.series import SeriesReport, StabilizationReport
from commvar.verify import (
    CheckResult,
    CrossCheck,
    check_character_substrate,
    check_coh_product,
    check_degenerate_cases,
    check_flag_character,
    check_gl_consistency,
    check_macdonald,
    check_point_counts,
    check_series_agreement,
    check_stabilization,
)

CRITERIA = [
    pytest.param(check_flag_character, id="1-flag-character"),
    pytest.param(check_degenerate_cases, id="2-degenerate-cases"),
    pytest.param(check_gl_consistency, id="3-gl-consistency"),
    pytest.param(check_coh_product, id="4-coh-product"),
    pytest.param(check_macdonald, id="5-macdonald-zeta"),
    pytest.param(check_point_counts, id="6-point-counts"),
    pytest.param(check_series_agreement, id="7-series-agreement"),
    pytest.param(check_character_substrate, id="8-character-substrate"),
    pytest.param(check_stabilization, id="9-stabilization"),
]


@pytest.mark.parametrize("check", CRITERIA)
def test_acceptance_criterion(check):
    result = check()
    print(result.line())
    assert result.passed, result.line()


ONE = Poly.constant(1)
RECORDS = [
    pytest.param(CheckResult("x", True), "passed", id="CheckResult"),
    pytest.param(CrossCheck(Torus(1), 1, 2, 1, ONE, ONE), "oracle_count", id="CrossCheck"),
    pytest.param(SeriesReport((ONE,), (ONE,)), "lhs", id="SeriesReport"),
    pytest.param(StabilizationReport(ONE, 1, ONE, ONE), "at_n", id="StabilizationReport"),
]


@pytest.mark.parametrize("record, field", RECORDS)
def test_result_records_are_immutable(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) == before

"""Acceptance gate: every exact criterion, one test per criterion.

Each test prints its own PASS/FAIL line (visible with ``pytest -s`` or
on failure) and asserts the exact verdict; there are no tolerances,
every comparison is bit-exact.  The same checks back the ``commvar
verify`` subcommand.
"""

import pytest

from commvar import verify
from commvar.arith import Poly
from commvar.oracle import Torus
from commvar.series import SeriesReport, StabilizationReport
from commvar.symfunc import SymFunc
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


def flip_last(f: SymFunc) -> SymFunc:
    """f with the sign of one int coefficient flipped: the top one of its
    first p-coefficient."""
    terms = dict(f.terms)
    lam, c = next(iter(terms.items()))
    terms[lam] = Poly.from_ints(c.num[:-1] + (-c.num[-1],), c.den)
    return SymFunc(f.degree, terms)


class TestOneCorruptedRouteFails:
    """Each check compares two routes; corrupting exactly one of them, in
    the namespace of ``verify`` only, turns its PASS into a FAIL."""

    def test_series_agreement_direct_route(self, monkeypatch):
        real = verify.enhanced_character

        def corrupt(space, n):
            f = real(space, n)
            return flip_last(f) if n == 3 else f

        monkeypatch.setattr(verify, "enhanced_character", corrupt)
        result = check_series_agreement()
        assert not result.passed
        assert result.detail.startswith("sample 0, n=3, ")

    def test_series_agreement_exponential_route(self, monkeypatch):
        real = verify.enhanced_character_series

        def corrupt(space, order):
            return [flip_last(f) if f.degree == 3 else f for f in real(space, order)]

        monkeypatch.setattr(verify, "enhanced_character_series", corrupt)
        result = check_series_agreement()
        assert not result.passed
        assert result.detail.startswith("sample 0, n=3, ")

    def test_substrate_orthogonality(self, monkeypatch):
        real = verify.character_table

        def flipped(n):
            # chi^(2,1)(3) = -1 becomes 1
            table = real(n)
            return table if n != 3 else (table[0], (-table[1][0], *table[1][1:]), table[2])

        monkeypatch.setattr(verify, "character_table", flipped)
        result = check_character_substrate()
        assert (result.passed, result.detail) == (False, "chi^(3) . chi^(2,1) wrong")

    @pytest.mark.parametrize("shift", [(1,), (0, 0, 1)])
    def test_substrate_hook_form(self, monkeypatch, shift):
        real = SymFunc.principal_spec_numerator

        def perturbed(self, power=1):
            value = real(self, power)
            return value + Poly.from_ints(shift) if self.degree == 3 else value

        monkeypatch.setattr(SymFunc, "principal_spec_numerator", perturbed)
        result = check_character_substrate()
        assert (result.passed, result.detail) == (False, "hook form (3)")

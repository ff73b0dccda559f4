"""The acceptance checks, runnable as named suites.

Each check pins an exact identity: an equality of polynomials, rational
functions, or integers, with no tolerances anywhere.  The CLI ``verify``
subcommand prints one line per check and exits nonzero on any failure;
the pytest acceptance module asserts the same results.
"""

from __future__ import annotations

import random
from math import factorial

from .arith import Poly, RatFunc
from .charmodel import (
    GradedSpace,
    Stratum,
    enhanced_character,
    enhanced_character_series,
    flag_character,
    flag_schur_coefficient,
    poincare,
)
from .oracle import AffineSpace, Frozen, PuncturedLine, Torus, VarietyFamily, count_points, gl_order
from .partitions import partitions_of
from .series import betti_zeta, coh_series, groupoid_series, stable_betti_verified
from .symfunc import SymFunc, mn_character
from .varieties import eigendata_for_family

RANDOM_SEED = 20260810
_EIG_CHOICES = tuple(Poly.from_ints((n,), d) for n, d in ((1, 1), (1, 2), (1, 3), (2, 1)))


class CheckResult(Frozen):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        super().__init__(name, passed, detail)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f" ({self.detail})" if self.detail else ""
        return f"{self.name}: {status}{suffix}"


class CrossCheck(Frozen):
    """A brute-force count compared over three routes: the enumerated
    ``oracle_count`` of ``family`` at rank n over F_q, and the
    ``formula_count`` and ``series_rhs_count``, constant ``Poly``."""

    __slots__ = ("family", "n", "q", "oracle_count", "formula_count", "series_rhs_count")

    @property
    def ok(self) -> bool:
        return self.oracle_count == self.formula_count == self.series_rhs_count

    def describe(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"{self.family.describe()}, n={self.n}, q={self.q}: "
            f"oracle={self.oracle_count} formula={self.formula_count} "
            f"series-rhs={self.series_rhs_count} [{status}]"
        )


def cross_check(family: VarietyFamily, n: int, q: int, space, budget=None) -> CrossCheck:
    """Compare the enumerated count with the formula and series routes.

    ``space`` is the graded eigenvalue data of the same variety.  The
    formula route is the left side of ``groupoid_series`` (the point
    count over the group order, from the rank recurrence of
    ``charmodel.point_counts``), the series route its product side, the
    Weil zeta factors at t/q^i; both are multiplied back by the group
    order, so all three numbers count matrix tuples.  Both formula routes
    expand log prod_(i>=1) Z(t/q^i) = sum_k w_k t^k / (k (1 - q^(-k))),
    so the enumerated count is the independent check of a point count.
    """
    if not family.is_curve():
        raise ValueError("cross_check applies to the curve families only")
    oracle_count = count_points(family, n, q, budget=budget)
    report = groupoid_series(space, q, n)
    order = gl_order(n, q)
    return CrossCheck(family, n, q, oracle_count, report.lhs[n] * order, report.rhs[n] * order)


def _random_space(rng: random.Random) -> GradedSpace:
    strata = [
        Stratum(rng.randint(0, 4), rng.randint(1, 3), rng.choice(_EIG_CHOICES))
        for _ in range(rng.randint(1, 4))
    ]
    return GradedSpace(strata)


def check_flag_character() -> CheckResult:
    """Flag character degenerations for n <= 6.

    At u = 1 the Schur coefficients are the tableau counts, and the
    dimension-weighted sum of graded multiplicities is the q-factorial.
    The hook-formula multiplicities are compared with the Schur view of
    the closed p-basis form, read off the character table.
    """
    for n in range(1, 7):
        fc = flag_character(n)
        schur = fc.to_schur()
        total = Poly()
        for lam in partitions_of(n):
            coeff = flag_schur_coefficient(n, lam)
            if sum(coeff.num) != lam.dimension() * coeff.den:
                return CheckResult("flag-character", False, f"u=1 failure at n={n}, {lam}")
            if schur.get(lam) != coeff.subst_power(2):
                return CheckResult("flag-character", False, f"schur view at n={n}, {lam}")
            total = total + coeff * lam.dimension()
        qfact = Poly.constant(1)
        for i in range(1, n + 1):
            qfact = qfact * Poly([1] * i)
        if total != qfact:
            return CheckResult("flag-character", False, f"q-factorial identity at n={n}")
    return CheckResult("flag-character", True, "n <= 6")


def check_degenerate_cases() -> CheckResult:
    """Affine-line inputs give 1; rank one returns the input polynomial."""
    affine = GradedSpace([Stratum(0, 1)])
    for n in range(1, 9):
        if poincare(affine, n, "cn") != 1:
            return CheckResult("degenerate-cases", False, f"affine line at n={n}")
    rng = random.Random(RANDOM_SEED)
    for k in range(5):
        space = _random_space(rng)
        if poincare(space, 1, "cn") != space.poincare_poly():
            return CheckResult("degenerate-cases", False, f"rank-1 failure, sample {k}")
    return CheckResult("degenerate-cases", True, "n <= 8 and 5 random rank-1 inputs")


def check_gl_consistency() -> CheckResult:
    """Torus input reproduces the classical general-linear cohomology."""
    torus = GradedSpace([Stratum(0, 1), Stratum(1, 1)])
    expected = Poly.constant(1)
    for n in range(1, 7):
        expected = expected * (Poly.constant(1) - Poly.monomial(2 * n - 1))
        if poincare(torus, n, "cn") != expected:
            return CheckResult("gl-consistency", False, f"n={n}")
    return CheckResult("gl-consistency", True, "n <= 6")


def check_coh_product() -> CheckResult:
    """Sheaf-counting product formula at t-order 5, u-order 20."""
    cases = [
        ("point", GradedSpace([Stratum(0, 1)])),
        ("torus", GradedSpace([Stratum(0, 1), Stratum(1, 1)])),
        ("p1", GradedSpace([Stratum(0, 1), Stratum(2, 1)])),
        ("punctured", GradedSpace([Stratum(0, 1), Stratum(1, 2)])),
    ]
    for name, space in cases:
        report = coh_series(space, 5, 20)
        if not report.equal:
            return CheckResult(
                "coh-product", False, f"{name}: {report.verdict()}"
            )
    return CheckResult("coh-product", True, "point, torus, p1, punctured at (5, 20)")


def check_macdonald() -> CheckResult:
    """Symmetric powers of the projective line are projective spaces."""
    p1 = GradedSpace([Stratum(0, 1), Stratum(2, 1)])
    series = betti_zeta(p1, 6)
    for n in range(7):
        expected = Poly([1] * (n + 1)).subst_power(2)
        if series[n] != expected:
            return CheckResult("macdonald-zeta", False, f"t^{n}")
    return CheckResult("macdonald-zeta", True, "projective line, t-order 6")


#: The field sizes of the point-count grid; ``verify -q`` picks one.
POINT_COUNT_FIELDS = (2, 3)


def check_point_counts(q: int | None = None) -> CheckResult:
    """Three-route point-count agreement on the curve families."""
    grid = []
    for qq in POINT_COUNT_FIELDS:
        for n in (1, 2, 3):
            grid.append((AffineSpace(1), n, qq))
    for n in (1, 2, 3):
        grid.append((Torus(1), n, 2))
    for n in (1, 2):
        grid.append((Torus(1), n, 3))
    for qq in POINT_COUNT_FIELDS:
        for n in (1, 2):
            grid.append((PuncturedLine((0, 1)), n, qq))
    failures = []
    ran = 0
    for family, n, qq in grid:
        if q is not None and qq != q:
            continue
        ran += 1
        result = cross_check(family, n, qq, eigendata_for_family(family))
        if not result.ok:
            failures.append(result.describe())
    if failures:
        return CheckResult("point-counts", False, "; ".join(failures))
    return CheckResult("point-counts", True, f"{ran} cross-checks")


def check_series_agreement() -> CheckResult:
    """Per-rank characters equal the exponential-route coefficients."""
    rng = random.Random(RANDOM_SEED)
    for k in range(20):
        space = _random_space(rng)
        series = enhanced_character_series(space, 5)
        for n in range(6):
            if series[n] != enhanced_character(space, n):
                return CheckResult(
                    "series-agreement", False, f"sample {k}, n={n}, {space!r}"
                )
    return CheckResult("series-agreement", True, "20 random spaces, n <= 5")


def check_character_substrate() -> CheckResult:
    """Schur orthonormality, character orthogonality, and the hook form
    of the principal specialization, s_lam(1, x, x^2, ...) =
    x^n(lam) / prod_h (1 - x^h) (Macdonald, Symmetric Functions and Hall
    Polynomials, I.3 Ex. 2), for the Schur function built from the
    character table; ``==`` cross-multiplies, so the check is
    N * prod_h (1 - x^h) == x^n(lam) (x; x)_n for its numerator N."""
    for n in range(8):
        parts = partitions_of(n)
        schurs = {lam: SymFunc.schur(lam) for lam in parts}
        # class sizes n!/z_mu: sum_mu chi^a(mu) chi^b(mu) n!/z_mu = n! delta_ab
        order = factorial(n)
        class_sizes = [order // mu.centralizer_order() for mu in parts]
        for a in parts:
            for b in parts:
                if schurs[a].hall(schurs[b]) != (1 if a == b else 0):
                    return CheckResult(
                        "character-substrate", False, f"<s{a}, s{b}> wrong"
                    )
                ortho = sum(
                    mn_character(a, mu) * mn_character(b, mu) * size
                    for mu, size in zip(parts, class_sizes)
                )
                if ortho != (order if a == b else 0):
                    return CheckResult(
                        "character-substrate", False, f"chi^{a} . chi^{b} wrong"
                    )
    for n in range(1, 8):
        for lam in partitions_of(n):
            den = Poly.constant(1)
            for h in lam.hook_lengths():
                den = den * (Poly.constant(1) - Poly.monomial(h))
            hook_form = RatFunc(Poly.monomial(lam.weighted_row_sum()), den)
            if SymFunc.schur(lam).principal_spec() != hook_form:
                return CheckResult("character-substrate", False, f"hook form {lam}")
    return CheckResult("character-substrate", True, "n <= 7")


def check_stabilization() -> CheckResult:
    """Betti numbers of the commuting spaces stabilize in rank."""
    cases = [
        ("torus", GradedSpace([Stratum(0, 1), Stratum(1, 1)])),
        ("p1", GradedSpace([Stratum(0, 1), Stratum(2, 1)])),
    ]
    for name, space in cases:
        report = stable_betti_verified(space, 10)
        if not report.ok:
            return CheckResult("stabilization", False, name)
    return CheckResult("stabilization", True, "torus and p1, u-order 10")


SUITES = {
    "flag": check_flag_character,
    "degenerate": check_degenerate_cases,
    "gln": check_gl_consistency,
    "coh": check_coh_product,
    "macdonald": check_macdonald,
    "pointcounts": check_point_counts,
    "series-agreement": check_series_agreement,
    "substrate": check_character_substrate,
    "stabilization": check_stabilization,
}


def run_suite(name: str = "all", q: int | None = None) -> list[CheckResult]:
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from 'all' or {sorted(SUITES)}")
    names = list(SUITES) if name == "all" else [name]
    return [SUITES[key](q) if key == "pointcounts" else SUITES[key]() for key in names]

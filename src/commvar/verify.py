"""The acceptance checks, runnable as named suites.

Each check pins an exact identity: an equality of polynomials, rational
functions, or integers, with no tolerances anywhere.  The CLI ``verify``
subcommand prints one line per check and exits nonzero on any failure;
the pytest acceptance module asserts the same results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

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
from .oracle import AffineSpace, PuncturedLine, Torus, cross_check
from .partitions import partitions_of
from .series import betti_zeta, coh_series, stable_betti_verified
from .symfunc import SymFunc, mn_character, q_pochhammer
from .varieties import eigendata_for_family

RANDOM_SEED = 20260810
_EIG_CHOICES = (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f" ({self.detail})" if self.detail else ""
        return f"{self.name}: {status}{suffix}"


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
    """
    for n in range(1, 7):
        fc = flag_character(n)
        schur = fc.to_schur()
        total = Poly()
        for lam in partitions_of(n):
            coeff = flag_schur_coefficient(n, lam)
            if coeff.evaluate(1) != lam.dimension():
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
        if poincare(affine, n, "cn") != RatFunc(1):
            return CheckResult("degenerate-cases", False, f"affine line at n={n}")
    rng = random.Random(RANDOM_SEED)
    for k in range(5):
        space = _random_space(rng)
        if poincare(space, 1, "cn") != RatFunc(space.poincare_poly()):
            return CheckResult("degenerate-cases", False, f"rank-1 failure, sample {k}")
    return CheckResult("degenerate-cases", True, "n <= 8 and 5 random rank-1 inputs")


def check_gl_consistency() -> CheckResult:
    """Torus input reproduces the classical general-linear cohomology."""
    torus = GradedSpace([Stratum(0, 1), Stratum(1, 1)])
    expected = Poly.constant(1)
    for n in range(1, 7):
        expected = expected * (Poly.constant(1) - Poly.monomial(2 * n - 1))
        if poincare(torus, n, "cn") != RatFunc(expected):
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
        expected = RatFunc(Poly([1] * (n + 1)).subst_power(2))
        if series.coeff(n) != expected:
            return CheckResult("macdonald-zeta", False, f"t^{n}")
    return CheckResult("macdonald-zeta", True, "projective line, t-order 6")


def check_point_counts(q: int | None = None) -> CheckResult:
    """Four-way point-count agreement on the curve families."""
    grid = []
    for qq in (2, 3):
        for n in (1, 2, 3):
            grid.append((AffineSpace(1), n, qq))
    for n in (1, 2, 3):
        grid.append((Torus(1), n, 2))
    for n in (1, 2):
        grid.append((Torus(1), n, 3))
    for qq in (2, 3):
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
    """Schur orthonormality, character orthogonality, hook cross-check."""
    for n in range(8):
        parts = partitions_of(n)
        schurs = {lam: SymFunc.schur(lam) for lam in parts}
        for a in parts:
            for b in parts:
                if schurs[a].hall(schurs[b]) != (1 if a == b else 0):
                    return CheckResult(
                        "character-substrate", False, f"<s{a}, s{b}> wrong"
                    )
                ortho = Fraction(0)
                for mu in parts:
                    ortho += Fraction(
                        mn_character(a, mu) * mn_character(b, mu),
                        mu.centralizer_order(),
                    )
                if ortho != (1 if a == b else 0):
                    return CheckResult(
                        "character-substrate", False, f"chi^{a} . chi^{b} wrong"
                    )
    for n in range(1, 8):
        pochhammer = q_pochhammer(n)
        for lam in partitions_of(n):
            lhs = RatFunc(flag_schur_coefficient(n, lam))
            den = Poly.constant(1)
            for h in lam.hook_lengths():
                den = den * (Poly.constant(1) - Poly.monomial(h))
            rhs = RatFunc(
                Poly.monomial(lam.weighted_row_sum()) * pochhammer, den
            )
            if lhs != rhs:
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


SUITES: dict[str, tuple] = {
    "flag": (check_flag_character,),
    "degenerate": (check_degenerate_cases,),
    "gln": (check_gl_consistency,),
    "coh": (check_coh_product,),
    "macdonald": (check_macdonald,),
    "pointcounts": (check_point_counts,),
    "series-agreement": (check_series_agreement,),
    "substrate": (check_character_substrate,),
    "stabilization": (check_stabilization,),
}


def run_suite(name: str = "all", q: int | None = None) -> list[CheckResult]:
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError(
            f"unknown suite {name!r}; choose from 'all' or {sorted(SUITES)}"
        )
    results = []
    for key in names:
        for check in SUITES[key]:
            if check is check_point_counts:
                results.append(check(q))
            else:
                results.append(check())
    return results

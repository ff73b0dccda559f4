"""Generating series: zeta expansions, product formulas, stabilization."""

import random
import re
from fractions import Fraction as F

import pytest

from commvar.arith import Poly, RatFunc, TSeries, poly_gcd
from commvar.charmodel import GradedSpace, QPower, Stratum, poincare
from commvar.series import (
    SeriesReport,
    betti_zeta,
    coh_series,
    groupoid_digits,
    groupoid_series,
    stable_betti,
    stable_betti_verified,
    weil_zeta_digits,
    weil_zeta_from_eigendata,
)
from series_oracle import scale_t
from series_oracle import stable_betti as stable_betti_by_polynomials

U = Poly.monomial(1)
ONE = Poly.constant(1)

POINT = GradedSpace([Stratum(0, 1, QPower(-1))], name="point")
AFFINE = GradedSpace([Stratum(0, 1)], name="affine line")
TORUS = GradedSpace([Stratum(0, 1), Stratum(1, 1, QPower(-1))], name="torus")
PROJ = GradedSpace([Stratum(0, 1), Stratum(2, 1, QPower(-1))], name="projective line")
PUNCT = GradedSpace(
    [Stratum(0, 1), Stratum(1, 2, QPower(-1))], name="twice punctured line"
)


class TestBettiZeta:
    def test_point_is_geometric(self):
        series = betti_zeta(AFFINE, 5)
        assert all(series[n] == RatFunc(1) for n in range(6))

    def test_projective_line_gives_projective_spaces(self):
        series = betti_zeta(PROJ, 6)
        for n in range(7):
            assert series[n] == RatFunc(Poly([1] * (n + 1)).subst_power(2))

    def test_torus_signs(self):
        series = betti_zeta(TORUS, 4)
        assert series[0] == RatFunc(1)
        for n in range(1, 5):
            assert series[n] == RatFunc(ONE - U)

    @pytest.mark.parametrize("space", [POINT, AFFINE, TORUS, PROJ, PUNCT])
    def test_linear_coefficient_is_the_input(self, space):
        assert betti_zeta(space, 2)[1] == RatFunc(space.poincare_poly())

    def test_disjoint_union_multiplies(self):
        # concatenating strata adds Betti numbers, so the series multiply
        for a, b in ((TORUS, PROJ), (AFFINE, PUNCT), (PROJ, PROJ)):
            union = GradedSpace(a + b)
            lhs = betti_zeta(union, 4)
            rhs = TSeries(betti_zeta(a, 4)) * TSeries(betti_zeta(b, 4))
            assert lhs == rhs.coeffs


class TestCohProduct:
    @pytest.mark.parametrize("space", [POINT, TORUS, PROJ, PUNCT])
    def test_verdict_equal(self, space):
        report = coh_series(space, 5, 20)
        assert report.equal, report.verdict()

    def test_point_coefficients_are_inverse_pochhammer(self):
        from commvar.symfunc import q_pochhammer

        report = coh_series(POINT, 4, 10)
        for n in range(5):
            exact = poincare(POINT, n, "coh")
            assert exact == RatFunc(1, q_pochhammer(n, power=2))
            assert report.lhs[n] == Poly(exact.series(10))

    def test_empty_space_is_one(self):
        report = coh_series(GradedSpace([]), 3, 8)
        assert report.equal
        assert report.lhs[0] == RatFunc(1)
        assert all(report.lhs[n] == RatFunc(0) for n in range(1, 4))

    def test_randomized_betti_data(self):
        import random

        rng = random.Random(2718)
        for _ in range(5):
            space = GradedSpace(
                [
                    Stratum(rng.randint(0, 3), rng.randint(1, 2))
                    for _ in range(rng.randint(1, 3))
                ]
            )
            report = coh_series(space, 4, 16)
            assert report.equal, (space, report.first_mismatch)

    @pytest.mark.parametrize("space", [POINT, TORUS, PROJ, PUNCT])
    def test_right_side_is_the_full_product_cut(self, space):
        # the right side as the untruncated product, cut only at the end
        report = coh_series(space, 5, 20)
        base = TSeries(betti_zeta(space, 5))
        full = TSeries([1, 0, 0, 0, 0, 0])
        for i in range(11):
            full = full * scale_t(base, Poly.monomial(2 * i))
        assert report.rhs == tuple(c.truncate(20) for c in full.coeffs)

    def test_left_side_is_the_expanded_stack_poincare_value(self):
        # the left side from one rank pass against each rank's exact
        # stack Poincare value expanded as a series
        import random

        from commvar.varieties import builtin_space

        rng = random.Random(4242)
        spaces = [
            builtin_space("point"),
            builtin_space("affine", dim=2),
            builtin_space("torus", dim=2),
            builtin_space("punctured", avoided=(0, 1, 2)),
            builtin_space("p1"),
        ] + [
            GradedSpace(
                [Stratum(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
            )
            for _ in range(4)
        ]
        for space in spaces:
            for t_order, u_order in ((5, 20), (3, 7), (6, 0)):
                report = coh_series(space, t_order, u_order)
                unit = space.with_unit_eigenvalues()
                expected = [
                    Poly(poincare(unit, n, "coh").series(u_order)) for n in range(t_order + 1)
                ]
                assert report.lhs == tuple(expected), (space, t_order, u_order)

    def test_mismatch_is_reported_with_index(self):
        lhs = tuple(map(Poly.constant, [1, 1, 2]))
        rhs = tuple(map(Poly.constant, [1, 1, 3]))
        report = SeriesReport(lhs, rhs)
        assert not report.equal
        assert report.first_mismatch == 2
        assert report.verdict() == "mismatch at t^2"


class TestWeilZeta:
    def test_affine_line(self):
        assert weil_zeta_from_eigendata(AFFINE, 2) == RatFunc(1, Poly([1, -2]))

    def test_torus(self):
        assert weil_zeta_from_eigendata(TORUS, 2) == RatFunc(Poly([1, -1]), Poly([1, -2]))

    def test_twice_punctured(self):
        expected = RatFunc(Poly([1, -1]) ** 2, Poly([1, -3]))
        assert weil_zeta_from_eigendata(PUNCT, 3) == expected

    def test_point_needs_inverse_eigenvalue(self):
        assert weil_zeta_from_eigendata(POINT, 7) == RatFunc(1, Poly([1, -1]))

    def test_projective_line(self):
        expected = RatFunc(1, Poly([1, -1]) * Poly([1, -5]))
        assert weil_zeta_from_eigendata(PROJ, 5) == expected

    def test_lowest_terms_on_random_eigendata(self):
        # RatFunc runs no gcd: the merged exponents must leave num and
        # den without a common factor; poly_gcd is the oracle
        rng = random.Random(2718)
        eigs = (F(0), F(1), F(-1), F(1, 2), F(-2, 3), F(3), QPower(-1), QPower(1))
        for _ in range(200):
            space = GradedSpace(
                [
                    Stratum(rng.randint(0, 5), rng.randint(1, 3), rng.choice(eigs))
                    for _ in range(rng.randint(1, 6))
                ]
            )
            q = rng.choice((2, 3, 4, 5, 9))
            zeta = weil_zeta_from_eigendata(space, q)
            assert poly_gcd(zeta.num, zeta.den) == ONE, (space, q)

    def test_digit_bound_covers_every_printed_int(self):
        rng = random.Random(3141)
        eigs = (F(0), F(1), F(-1), F(1, 2), F(-2, 3), F(3), QPower(-1), QPower(1))
        for _ in range(200):
            space = GradedSpace(
                [
                    Stratum(rng.randint(0, 5), rng.randint(1, 3), rng.choice(eigs))
                    for _ in range(rng.randint(1, 6))
                ]
            )
            q = rng.choice((2, 3, 4, 5, 9, 1000003))
            text = weil_zeta_from_eigendata(space, q).render("t")
            # ints of the coefficients, not the exponents of t
            longest = max((len(m) for m in re.findall(r"(?<![\^\d])\d+", text)), default=0)
            assert longest <= weil_zeta_digits(space, q), (space, q, text)

    def test_digit_bound_takes_the_larger_side(self):
        # The torus zeta is (1 - t)/(1 - q t): its ints are those of the
        # affine line's 1/(1 - q t), whatever the numerator adds
        for q in (2, 9, 1000003):
            assert weil_zeta_digits(TORUS, q) == weil_zeta_digits(AFFINE, q)


class TestGroupoidSeries:
    def test_affine_line_linear_term(self):
        report = groupoid_series(AFFINE, 2, 2)
        assert report.lhs[1] == RatFunc(F(2))
        assert report.rhs[1] == RatFunc(F(2))
        assert report.equal

    def test_torus_is_constant_one(self):
        report = groupoid_series(TORUS, 2, 3)
        assert report.equal
        assert all(report.lhs[n] == RatFunc(1) for n in range(4))

    def test_punctured_over_f3(self):
        report = groupoid_series(PUNCT, 3, 2)
        assert report.lhs[1] == RatFunc(F(1, 2))
        assert report.equal

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("space", [AFFINE, TORUS, PUNCT, PROJ, POINT])
    def test_product_formula_identity(self, space, q):
        # the symmetric-function identity behind the product holds for
        # any eigenvalue data, curve or not
        report = groupoid_series(space, q, 3)
        assert report.equal, (space.name, q, report.first_mismatch)

    def test_prime_power_field(self):
        report = groupoid_series(TORUS, 4, 2)
        assert report.equal
        assert all(report.lhs[n] == RatFunc(1) for n in range(3))

    def test_rejects_non_prime_power_field(self):
        with pytest.raises(ValueError, match="prime power"):
            groupoid_series(TORUS, 6, 2)


    def test_digit_bound_covers_every_printed_int(self):
        rng = random.Random(2718)
        eigs = (F(0), F(1), F(-1), F(1, 2), F(-2, 3), F(3), QPower(-1), QPower(1), QPower(2))
        for _ in range(100):
            space = GradedSpace(
                [
                    Stratum(rng.randint(0, 5), rng.randint(1, 3), rng.choice(eigs))
                    for _ in range(rng.randint(1, 6))
                ]
            )
            q = rng.choice((2, 3, 4, 5, 9, 1000003))
            order = rng.randint(0, 5)
            report = groupoid_series(space, q, order)
            text = " ".join(side for _, lhs, rhs in report.rows() for side in (lhs, rhs))
            longest = max(len(m) for m in re.findall(r"\d+", text))
            assert longest <= groupoid_digits(space, q, order), (space, q, order, text)

class TestStableBetti:
    def test_affine_line_is_one(self):
        assert stable_betti(AFFINE, 8) == Poly.constant(1)

    def test_torus_odd_product(self):
        M = 9
        expected = Poly.constant(1)
        for i in range(1, 6):
            expected = (expected * (ONE - Poly.monomial(2 * i - 1))).truncate(M)
        assert stable_betti(TORUS, M) == expected.truncate(M)

    def test_against_the_polynomial_product(self):
        # the int-vector residue against the product of (1 - u^a)^e
        # expanded as polynomials and cut after every factor
        rng = random.Random(9191)
        for _ in range(60):
            space = GradedSpace(
                [Stratum(0, 1)]
                + [Stratum(rng.randint(1, 5), rng.randint(1, 4)) for _ in range(rng.randint(0, 4))]
            )
            for M in (0, 1, 5, 12):
                assert stable_betti(space, M) == stable_betti_by_polynomials(space, M), (space, M)

    def test_projective_line_two_routes(self):
        report = stable_betti_verified(PROJ, 6)
        assert report.ok
        assert report.stable == Poly([1, 0, 1, 0, 2, 0, 3])

    def test_requires_connected_input(self):
        two_points = GradedSpace([Stratum(0, 2)])
        with pytest.raises(ValueError, match="b_0 = 1"):
            stable_betti(two_points, 4)

    def test_report_structure(self):
        report = stable_betti_verified(TORUS, 4)
        assert isinstance(report, type(stable_betti_verified(AFFINE, 2)))
        assert report.n == 4
        assert report.ok

    @pytest.mark.parametrize("space", [POINT, AFFINE, TORUS, PROJ, PUNCT], ids=lambda s: s.name)
    def test_ranks_agree_with_full_poincare(self, space):
        for u_order in range(13):
            report = stable_betti_verified(space, u_order)
            assert report.ok, (space, u_order)
            for n, value in ((report.n, report.at_n), (report.n + 1, report.at_next)):
                assert value == poincare(space, n, "cn").as_poly().truncate(u_order)

"""Exact arithmetic: canonical forms, field axioms, truncated series."""

import random
from fractions import Fraction as F

import pytest

from commvar.arith import (
    PoleError,
    Poly,
    RatFunc,
    TSeries,
    cyclotomic_coeffs,
    div_monic_coeffs,
    one_minus_x_coeffs,
    poly_gcd,
)

U = Poly.monomial(1)
ONE = Poly.constant(1)


def random_poly(rng, max_deg=4):
    return Poly([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, max_deg + 1))])


def random_ratfunc(rng):
    den = Poly()
    while den.is_zero():
        den = random_poly(rng)
    return RatFunc(random_poly(rng), den)


class TestRatFuncArith:
    def test_cancellation(self):
        assert (RatFunc(1, ONE - U) * (ONE - U)).is_one()

    def test_common_denominator(self):
        s = RatFunc(1, ONE - U) + RatFunc(1, ONE + U)
        assert s == RatFunc(2, ONE - U**2)

    def test_geometric_factor(self):
        assert RatFunc(ONE - U**3, ONE - U) == RatFunc(ONE + U + U**2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(1, ONE - U) / RatFunc(0)
        with pytest.raises(ZeroDivisionError):
            RatFunc(ONE, Poly())

    def test_field_axioms_randomized(self):
        rng = random.Random(91)
        for _ in range(40):
            a, b, c = (random_ratfunc(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            if not b.is_zero():
                assert (a / b) * b == a

    def test_canonical_congruence(self):
        rng = random.Random(17)
        for _ in range(100):
            a, b, c, d = (random_poly(rng) for _ in range(4))
            if b.is_zero() or d.is_zero():
                continue
            assert (RatFunc(a, b) == RatFunc(c, d)) == (a * d == c * b)

    def test_pow(self):
        f = RatFunc(U, ONE - U)
        assert f**0 == RatFunc(1)
        assert f**3 == f * f * f
        assert f**-2 == RatFunc(1) / (f * f)


class TestAgainstNaiveForms:
    def test_optimized_ops_match_cross_multiplication(self):
        # the add/mul fast paths cancel common factors early; check the
        # results against the defining identities and the canonical-form
        # invariants without trusting those paths
        rng = random.Random(123)
        for _ in range(150):
            a, b = random_ratfunc(rng), random_ratfunc(rng)
            s = a + b
            assert s.num * (a.den * b.den) == (a.num * b.den + b.num * a.den) * s.den
            p = a * b
            assert p.num * (a.den * b.den) == (a.num * b.num) * p.den
            for f in (s, p):
                assert f.den.leading() == 1
                assert poly_gcd(f.num, f.den).degree() <= 0


class TestRatFuncEval:
    def test_geometric_value(self):
        assert RatFunc(1, ONE - U).evaluate(F(1, 2)) == 2

    def test_pole_names_the_point(self):
        with pytest.raises(PoleError, match="pole at 1"):
            RatFunc(U, ONE - U).evaluate(1)

    def test_removable_singularity_is_gone(self):
        assert RatFunc(ONE - U**2, ONE - U).evaluate(1) == 2

    def test_eval_is_multiplicative(self):
        rng = random.Random(23)
        for _ in range(40):
            f, g = random_ratfunc(rng), random_ratfunc(rng)
            x = F(rng.randint(-3, 3), rng.randint(1, 4))
            try:
                lhs = (f * g).evaluate(x)
                rhs = f.evaluate(x) * g.evaluate(x)
            except PoleError:
                continue
            assert lhs == rhs


class TestPoly:
    def test_gcd(self):
        g = poly_gcd((ONE - U) ** 3 * (ONE + U), (ONE - U) * (ONE + U) ** 2)
        assert g == ((ONE - U) * (ONE + U)).monic()
        assert poly_gcd(Poly(), Poly()) == Poly()
        assert poly_gcd(ONE - U, Poly()) == (ONE - U).monic()

    def test_exact_div(self):
        q = ((ONE - U**6)).exact_div(ONE - U**2)
        assert q == ONE + U**2 + U**4
        with pytest.raises(ValueError):
            (ONE + U).exact_div(ONE - U)

    def test_subst_power(self):
        p = ONE - U + 2 * U**2
        assert p.subst_power(2) == ONE - U**2 + 2 * U**4

    def test_render(self):
        assert (ONE - U + U**2).render() == "1 - u + u^2"
        assert Poly().render() == "0"
        assert Poly([F(1, 2), -2]).render("q") == "1/2 - 2*q"
        assert (2 * U**3).render() == "2*u^3"

    def test_render_ratfunc(self):
        assert RatFunc(1, ONE - U).render() == "1/(1 - u)"
        assert RatFunc(U, (ONE - U) * (ONE - U**3)).render("q") == "q/(1 - q - q^3 + q^4)"
        assert RatFunc(Poly([1, -1]), Poly([1, -2])).render("t") == "(1 - t)/(1 - 2*t)"


class TestSeriesExpansion:
    def test_geometric(self):
        assert RatFunc(1, ONE - U).series(4) == [1, 1, 1, 1, 1]

    def test_pole_at_zero(self):
        with pytest.raises(PoleError):
            RatFunc(1, U).series(3)

    def test_matches_product(self):
        rng = random.Random(5)
        for _ in range(20):
            f, g = random_ratfunc(rng), random_ratfunc(rng)
            if f.den.constant_term() == 0 or g.den.constant_term() == 0:
                continue
            fg = (f * g).series(6)
            a, b = f.series(6), g.series(6)
            conv = [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(7)]
            assert fg == conv


class TestTSeries:
    def test_basic_product(self):
        t1 = TSeries([1, 1, 0])
        t2 = TSeries([1, -1, 0])
        assert t1 * t2 == TSeries([1, 0, -1])

    def test_inverse_of_geometric(self):
        geo = TSeries([1, 1, 1, 1])
        assert geo * TSeries([1, -1, 0, 0]) == TSeries.one(3)

    def test_convolution_with_grading(self):
        q = RatFunc(U)
        conv = TSeries.binomial_factor(q, -1, 2) * TSeries.binomial_factor(1, -1, 2)
        assert conv.coeff(0) == RatFunc(1)
        assert conv.coeff(1) == RatFunc(ONE + U)
        assert conv.coeff(2) == RatFunc(ONE + U + U**2)

    def test_truncation_to_min_order(self):
        a = TSeries([1, 2, 3, 4])
        b = TSeries([1, 1])
        assert (a * b).order == 1
        assert (a + b).order == 1

    def test_scale_t(self):
        geo = TSeries([1, 1, 1])
        scaled = geo.scale_t(RatFunc(U**2))
        assert scaled == TSeries([RatFunc(1), RatFunc(U**2), RatFunc(U**4)])

    def test_binomial_factor_positive_exponent(self):
        b = TSeries.binomial_factor(RatFunc(U), 2, 4)
        assert b == TSeries([RatFunc(1), RatFunc(-2 * U), RatFunc(U**2), RatFunc(0), RatFunc(0)])

    def test_truncated_product_is_the_product_cut(self):
        rng = random.Random(515)
        for _ in range(20):
            a = TSeries([random_poly(rng, 6) for _ in range(rng.randint(1, 5))])
            b = TSeries([random_poly(rng, 6) for _ in range(rng.randint(1, 5))])
            for u_order in range(8):
                got = a.mul_trunc(b, u_order)
                assert got == TSeries([c.truncate(u_order) for c in (a * b).coeffs])

    def test_coefficients_are_polynomials(self):
        s = TSeries([F(1, 2), RatFunc(ONE + U), U])
        assert all(isinstance(c, Poly) for c in s.coeffs)
        with pytest.raises(ValueError, match="not a polynomial"):
            TSeries([RatFunc(1, ONE - U)])
        with pytest.raises(ValueError, match="not a polynomial"):
            TSeries.one(2).scale_t(RatFunc(1, ONE - U))


class TestBinomialCoefficients:
    @pytest.mark.parametrize("e", range(-4, 5))
    def test_against_power_and_series(self, e):
        for order in range(9):
            got = one_minus_x_coeffs(e, order)
            assert len(got) == order + 1
            assert all(type(c) is int for c in got)
            if e >= 0:
                assert Poly(got) == (Poly([1, -1]) ** e).truncate(order)
            else:
                assert got == RatFunc(1, Poly([1, -1]) ** -e).series(order)


class TestCyclotomic:
    def test_divisor_product_is_u_to_the_m_minus_one(self):
        for m in range(1, 31):
            acc = ONE
            for d in range(1, m + 1):
                if m % d == 0:
                    acc = acc * Poly(cyclotomic_coeffs(d))
            assert acc == Poly.monomial(m) - ONE, m

    def test_small_values(self):
        assert cyclotomic_coeffs(1) == (-1, 1)
        assert cyclotomic_coeffs(6) == (1, -1, 1)
        assert cyclotomic_coeffs(12) == (1, 0, -1, 0, 1)
        with pytest.raises(ValueError):
            cyclotomic_coeffs(0)

    def test_monic_division_against_divmod(self):
        rng = random.Random(909)
        for _ in range(200):
            a = [rng.randint(-3, 3) for _ in range(rng.randint(0, 9))]
            b = tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 4))) + (1,)
            q, r = divmod(Poly(a), Poly(b))
            got = div_monic_coeffs(a, b)
            if r:
                assert got is None, (a, b)
            else:
                assert got is not None and Poly(got) == q, (a, b)
            product = (Poly(a) * Poly(b)).coeffs
            assert Poly(div_monic_coeffs([int(c) for c in product], b)) == Poly(a)

"""Exact arithmetic: normal forms, ring identities, truncated series."""

import math
import random
from fractions import Fraction as F

import pytest

from commvar import arith, charmodel
from commvar.arith import (
    Poly,
    RatFunc,
    TSeries,
    add_product,
    cyclotomic_coeffs,
    euler_factor,
    euler_rows,
    pochhammer_ints,
    poly_gcd,
    pseudo_divmod,
)
from commvar.symfunc import SymFunc
from commvar.varieties import builtin_space
from series_oracle import (
    binomial_factor,
    cut,
    one_minus_power,
    one_minus_x_coeffs,
    power_series,
    scale_t,
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
        assert RatFunc(1, ONE - U) * (ONE - U) == 1

    def test_common_denominator(self):
        s = RatFunc(1, ONE - U) + RatFunc(1, ONE + U)
        assert s == RatFunc(2, ONE - U**2)

    def test_geometric_factor(self):
        assert RatFunc(ONE - U**3, ONE - U) == RatFunc(ONE + U + U**2)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(ONE, Poly())

    def test_ring_axioms_randomized(self):
        rng = random.Random(91)
        for _ in range(40):
            a, b, c = (random_ratfunc(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a

    def test_canonical_congruence(self):
        rng = random.Random(17)
        for _ in range(100):
            a, b, c, d = (random_poly(rng) for _ in range(4))
            if b.is_zero() or d.is_zero():
                continue
            assert (RatFunc(a, b) == RatFunc(c, d)) == (a * d == c * b)

    def test_pairs_are_kept_as_built(self):
        f = RatFunc(2 * (ONE - U), 2 * (ONE - U**2))
        assert (f.num, f.den) == (2 * (ONE - U), 2 * (ONE - U**2))
        assert f == RatFunc(1, ONE + U)
        assert f.render() == "(1 - u)/(1 - u^2)"


class TestAgainstNaiveForms:
    def test_sums_and_products_are_the_cross_multiplied_pairs(self):
        rng = random.Random(123)
        for _ in range(150):
            a, b = random_ratfunc(rng), random_ratfunc(rng)
            s = a + b
            assert (s.num, s.den) == (a.num * b.den + b.num * a.den, a.den * b.den)
            p = a * b
            assert (p.num, p.den) == (a.num * b.num, a.den * b.den)


class TestPoly:
    def test_gcd(self):
        g = poly_gcd((ONE - U) ** 3 * (ONE + U), (ONE - U) * (ONE + U) ** 2)
        assert g == U**2 - ONE
        assert poly_gcd(Poly(), Poly()) == Poly()
        assert poly_gcd(ONE - U, Poly()) == U - ONE
        assert poly_gcd(2 * U - ONE, Poly([F(1, 3)])) == ONE

    def test_divmod(self):
        assert divmod(ONE - U**6, ONE - U**2) == (ONE + U**2 + U**4, Poly())
        assert divmod(ONE + U, ONE - U) == (-ONE, 2 * ONE)

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
    """The tests' power-series expansion of a RatFunc (``power_series``)."""

    def test_geometric(self):
        assert power_series(RatFunc(1, ONE - U), 4) == [1, 1, 1, 1, 1]

    def test_matches_product(self):
        rng = random.Random(5)
        for _ in range(20):
            f, g = random_ratfunc(rng), random_ratfunc(rng)
            if not f.den.num[0] or not g.den.num[0]:
                continue
            fg = power_series(f * g, 6)
            a, b = power_series(f, 6), power_series(g, 6)
            conv = [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(7)]
            assert fg == conv


class TestTSeries:
    def test_basic_product(self):
        t1 = TSeries([1, 1, 0])
        t2 = TSeries([1, -1, 0])
        assert t1 * t2 == TSeries([1, 0, -1])

    def test_inverse_of_geometric(self):
        geo = TSeries([1, 1, 1, 1])
        assert geo * TSeries([1, -1, 0, 0]) == TSeries([1, 0, 0, 0])

    def test_convolution_with_grading(self):
        q = RatFunc(U)
        conv = binomial_factor(q, -1, 2) * binomial_factor(1, -1, 2)
        assert conv == TSeries([1, ONE + U, ONE + U + U**2])

    def test_truncation_to_min_order(self):
        a = TSeries([1, 2, 3, 4])
        b = TSeries([1, 1])
        assert a * b == b * a == TSeries([1, 3])

    def test_scale_t(self):
        geo = TSeries([1, 1, 1])
        scaled = scale_t(geo, RatFunc(U**2))
        assert scaled == TSeries([RatFunc(1), RatFunc(U**2), RatFunc(U**4)])

    def test_binomial_factor_positive_exponent(self):
        b = binomial_factor(RatFunc(U), 2, 4)
        assert b == TSeries([RatFunc(1), RatFunc(-2 * U), RatFunc(U**2), RatFunc(0), RatFunc(0)])

    def test_coefficients_are_polynomials(self):
        s = TSeries([F(1, 2), RatFunc(ONE + U), U])
        assert all(isinstance(c, Poly) for c in s.coeffs)
        with pytest.raises(ValueError, match="not a polynomial"):
            TSeries([RatFunc(1, ONE - U)])


class TestAddProduct:
    """The one int accumulate kernel against ``Poly`` sums of products, and
    the counts of its calls from the rank recurrence and the Euler rows."""

    def test_against_poly_products(self):
        rng = random.Random(3232)
        for _ in range(400):
            acc = [rng.randint(-4, 4) for _ in range(rng.randint(0, 9))]
            v = [rng.randint(-4, 4) for _ in range(rng.randint(0, 6))]
            if rng.random() < 0.5:  # dense, with zeros
                terms = list(enumerate(rng.randint(-2, 2) for _ in range(rng.randint(0, 5))))
            else:  # sparse: unordered, with repeated d and c == 0
                terms = [(rng.randint(0, 8), rng.randint(-3, 3)) for _ in range(rng.randint(0, 4))]
            scale = rng.choice([1, -1, 6])
            top = rng.choice([None, 0, 3, 7, 30])
            product = sum((Poly.monomial(d, c) for d, c in terms), Poly()) * Poly.from_ints(v)
            if top is not None:
                product = cut(product, top)
            out = list(acc)
            add_product(out, iter(terms), v, scale, top)
            assert all(type(c) is int for c in out)
            # lengthened no further than a term with c != 0 reaches, nor past x^top
            reach = max([0] + [d + len(v) for d, c in terms if c and v])
            if top is not None:
                reach = min(reach, top + 1)
            assert len(acc) <= len(out) <= max(len(acc), reach)
            assert Poly.from_ints(out) == Poly.from_ints(acc) + scale * product, (acc, terms, v, top)

    def test_defaults_and_no_terms(self):
        acc = [1, 2]
        add_product(acc, [(1, 3)], [1, 1])
        assert acc == [1, 5, 3]
        add_product(acc, [], [9])
        add_product(acc, [(0, 0), (1, 5)], [])
        assert acc == [1, 5, 3]

    def counted(self, monkeypatch, module):
        calls = []
        real = arith.add_product

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, "add_product", counting)
        return calls

    def test_the_rank_recurrence_calls_it_once_per_term(self, monkeypatch):
        # p1 has B = 2 letters and N_0 .. N_3 are nonzero, so rank n makes
        # one call per window entry, min(n, 2): 1 + 2 + 2 + 2
        calls = self.counted(monkeypatch, charmodel)
        charmodel.rank_numerators(builtin_space("p1"), 4)
        assert len(calls) == 7

    def test_the_euler_rows_call_it_once_per_binomial_term(self, monkeypatch):
        # (1 - x t)^2 to t^3: rows 3 and 2 take two terms, row 1 one
        calls = self.counted(monkeypatch, arith)
        assert euler_rows([(1, 1, 2)], 3) == [[1], [0, -2], [0, 0, 1], []]
        assert len(calls) == 5


class TestEulerRows:
    """The int rows of prod (1 - v x^a t)^e against the ``TSeries`` product
    of the binomial expansions of its factors, cut at the end."""

    def test_against_the_polynomial_product(self):
        self.check_against_the_polynomial_product(random.Random(1515), (1,))

    def test_factors_with_a_coefficient(self):
        # (1 - v x^a t)^e, as the rank recurrence takes point-count letters
        self.check_against_the_polynomial_product(random.Random(1516), (-2, -1, 0, 1, 3))

    @staticmethod
    def check_against_the_polynomial_product(rng, vs):
        for _ in range(200):
            factors = [(rng.randint(0, 6), rng.randint(-3, 3)) for _ in range(rng.randint(0, 4))]
            factors = [(a, rng.choice(vs) if len(vs) > 1 else 1, e) for a, e in factors]
            t_order = rng.randint(0, 6)
            full = TSeries([1] + [0] * t_order)
            for a, v, e in factors:
                full = full * binomial_factor(Poly.monomial(a, v), e, t_order)
            for top in (None, 0, 1, 7):
                rows = euler_rows(factors, t_order, top)
                assert len(rows) == t_order + 1
                assert all(type(c) is int for row in rows for c in row)
                if top is not None:
                    assert all(len(row) <= top + 1 for row in rows)
                    expected = [cut(c, top) for c in full.coeffs]
                else:
                    expected = list(full.coeffs)
                assert [Poly.from_ints(row) for row in rows] == expected, (factors, top)

    def test_shifted_geometric_series(self):
        # 1 / ((1 - t)(1 - x^2 t)): row k is 1 + x^2 + ... + x^(2k)
        rows = euler_rows([(0, 1, -1), (2, 1, -1)], 4)
        assert [Poly.from_ints(r) for r in rows] == [
            Poly([1] * (k + 1)).subst_power(2) for k in range(5)
        ]
        assert euler_rows([(0, 1, -1), (2, 1, -1)], 4, top=3)[4] == [1, 0, 1, 0]

    @pytest.mark.parametrize("t_order", [0, 1, 2, 3, 5])
    def test_one_factor_is_its_binomial_expansion(self, t_order):
        # every factor is one binomial pass, multiplying for e > 0 and
        # dividing for e < 0, with e on both sides of t_order
        for a in (0, 1, 3):
            for e in range(-t_order - 3, t_order + 4):
                coeffs = one_minus_x_coeffs(e, t_order)
                expected = [Poly.monomial(a * k, c) for k, c in enumerate(coeffs)]
                rows = euler_rows([(a, 1, e)], t_order)
                assert [Poly.from_ints(r) for r in rows] == expected, (a, e)
                for top in (0, 2, 4):
                    rows = euler_rows([(a, 1, e)], t_order, top)
                    assert all(len(r) <= top + 1 for r in rows)
                    # a factor with a > top is 1 modulo x^(top+1)
                    cuts = [cut(c, top) for c in expected] if a <= top else [1] + [0] * t_order
                    assert [Poly.from_ints(r) for r in rows] == cuts, (a, e, top)

    @pytest.mark.parametrize("e", [math.comb(20, 10), -math.comb(20, 10), 10**30, -(10**30)])
    def test_large_exponents(self, e):
        # the torus of dimension 20 has factors with |e| = C(20, 10)
        rows = euler_rows([(1, 1, e), (2, 1, 3)], 3)
        full = binomial_factor(Poly.monomial(1), e, 3) * binomial_factor(Poly.monomial(2), 3, 3)
        assert [Poly.from_ints(r) for r in rows] == list(full.coeffs)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="t order"):
            euler_rows([], -1)
        with pytest.raises(ValueError, match="a must be >= 0"):
            euler_rows([(-1, 1, 1)], 2)


class TestBinomialCoefficients:
    @pytest.mark.parametrize("e", range(-4, 5))
    def test_against_power_and_series(self, e):
        for order in range(9):
            got = one_minus_x_coeffs(e, order)
            assert len(got) == order + 1
            assert all(type(c) is int for c in got)
            if e >= 0:
                assert Poly(got) == cut(Poly([1, -1]) ** e, order)
            else:
                assert got == power_series(RatFunc(1, Poly([1, -1]) ** -e), order)


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

    def test_a_remainder_is_a_value_error(self, monkeypatch):
        monkeypatch.setattr(arith, "pseudo_divmod", lambda a, b: ([1], [0, 1], 1))
        with pytest.raises(ValueError, match="Phi_1 left a remainder"):
            cyclotomic_coeffs.__wrapped__(6)


class TestEulerFactor:
    """The int-vector kernel v * (1 - x^a)^e against ``Poly`` products with
    ``one_minus_power`` (``one_minus_x_coeffs`` at x^a), and against
    ``RatFunc`` series for quotients."""

    TOPS = [None] + list(range(13))

    @staticmethod
    def random_vector(rng):
        return [rng.randint(-5, 5) for _ in range(rng.randint(0, 9))]

    @pytest.mark.parametrize("e", range(-4, 5))
    def test_against_the_binomial_expansion(self, e):
        rng = random.Random(4101 + e)
        for _ in range(40):
            v, a = self.random_vector(rng), rng.randint(1, 5)
            kept = list(v)
            for top in self.TOPS:
                if top is None and e < 0:
                    quotient, rem = divmod(Poly(v), one_minus_power(a, -e, -a * e))
                    if rem:
                        with pytest.raises(ValueError, match="remainder"):
                            euler_factor(v, a, e)
                        continue
                got = euler_factor(v, a, e, top)
                assert v == kept
                assert all(type(c) is int for c in got)
                if top is not None:
                    assert len(got) == top + 1
                    expected = cut(Poly(v) * one_minus_power(a, e, top), top)
                    assert Poly(got) == expected, (v, a, e, top)
                elif e >= 0:
                    assert len(got) == len(v) + a * e
                    assert Poly(got) == Poly(v) * one_minus_power(a, e, a * e), (v, a, e)
                else:
                    assert Poly(got) == quotient, (v, a, e)

    @pytest.mark.parametrize("e", range(-4, 0))
    def test_division_with_top_is_the_power_series_quotient(self, e):
        rng = random.Random(4102 - e)
        for _ in range(40):
            v, a = self.random_vector(rng), rng.randint(1, 7)
            quotient = RatFunc(Poly(v), one_minus_power(a, -e, -a * e))
            for top in range(13):
                assert euler_factor(v, a, e, top) == power_series(quotient, top), (v, a, e, top)

    @pytest.mark.parametrize("top", range(13))
    def test_exponents_on_both_sides_of_the_cut(self, top):
        # the binomial pass takes min(|e|, k // a) terms at entry k
        rng = random.Random(4103 + top)
        for a in range(1, top + 2):
            for e in range(-(top // a) - 3, top // a + 4):
                v = self.random_vector(rng)
                expected = cut(Poly(v) * one_minus_power(a, e, top), top)
                assert Poly(euler_factor(v, a, e, top)) == expected, (v, a, e, top)

    @pytest.mark.parametrize("e", [math.comb(20, 10), -math.comb(20, 10)])
    def test_large_exponents(self, e):
        # the torus of dimension 20 has factors with |e| = C(20, 10)
        for a in (1, 2, 3):
            for top in (0, 3, 7, 12):
                v = [1, -2, 0, 5]
                expected = cut(Poly(v) * one_minus_power(a, e, top), top)
                assert Poly(euler_factor(v, a, e, top)) == expected, (a, top)
        if e < 0:
            # an exact quotient would have degree below 3 - a |e|
            with pytest.raises(ValueError, match="remainder"):
                euler_factor([1, -2, 0, 5], 1, e)
            assert euler_factor([0, 0], 1, e) == []

    def test_small_cases(self):
        assert euler_factor([1, 0, -1], 2, -1) == [1]
        assert euler_factor([1, -1, 0, 0, -1, 1], 4, -1) == [1, -1]
        assert euler_factor([1, -2, 1], 1, -2) == [1]
        assert euler_factor([], 3, -1) == []
        assert Poly(euler_factor([], 3, 1)) == Poly()
        assert euler_factor([1], 2, 1) == [1, 0, -1]
        assert euler_factor([1], 1, 2) == [1, -2, 1]
        assert euler_factor([1, 2], 1, 0) == [1, 2]
        assert euler_factor([1, 2], 1, 0, 3) == [1, 2, 0, 0]
        assert euler_factor([1], 1, -1, 3) == [1, 1, 1, 1]
        assert euler_factor([1], 1, -2, 3) == [1, 2, 3, 4]

    @pytest.mark.parametrize("e", [1, 2, 3, 4])
    def test_exact_division_round_trips_products(self, e):
        rng = random.Random(5 + e)
        for _ in range(40):
            a = rng.randint(1, 6)
            q = [rng.randint(-5, 5) for _ in range(rng.randint(1, 8))] + [1]
            product = euler_factor(q, a, e)
            assert Poly(product) == Poly(q) * one_minus_power(a, e, a * e)
            assert euler_factor(product, a, -e) == q

    @pytest.mark.parametrize(
        "coeffs, a, e",
        [
            ([1, 1], 2, -1),
            ([1], 1, -1),
            ([0, 0, 1], 1, -1),
            ([1, 0, -1, 1], 2, -1),
            ([2], 3, -1),
            ([1, -1], 1, -2),
            ([1, 0, -2, 0, 1, 1], 2, -2),
            ([1, -3, 3], 1, -3),
        ],
    )
    def test_exact_division_rejects_remainder(self, coeffs, a, e):
        with pytest.raises(ValueError, match="remainder"):
            euler_factor(coeffs, a, e)

    def test_a_zero(self):
        # 1 - x^0 = 0: a product with it is 0, a power 0 of it is 1
        for e in (1, 2, 5):
            assert euler_factor([1, 2], 0, e) == [0, 0]
            assert euler_factor([1, 2], 0, e, 3) == [0, 0, 0, 0]
        assert euler_factor([1, 2], 0, 0) == [1, 2]
        for e in (-1, -3):
            with pytest.raises(ZeroDivisionError):
                euler_factor([1, 2], 0, e)
            with pytest.raises(ZeroDivisionError):
                euler_factor([1, 2], 0, e, 4)

    @pytest.mark.parametrize("e", [-2, -1, 0, 1, 2])
    def test_rejects_negative_a(self, e):
        with pytest.raises(ValueError, match=r"^a must be >= 0, got -1$"):
            euler_factor([1, 2], -1, e)

    def test_pochhammer_and_cofactor(self):
        for power in (1, 2, 3):
            acc = ONE
            for n in range(8):
                if n:
                    acc = acc * (ONE - Poly.monomial(power * n))
                assert Poly(pochhammer_ints(n, power)) == acc
        assert pochhammer_ints(0, 0) == (1,)
        assert Poly(pochhammer_ints(3, 0)) == Poly()
        # (x; x)_4 / ((1 - x^2)(1 - x)^2) = (1 + x + x^2)(1 - x^4)
        expected = Poly([1, 1, 1]) * (ONE - U**4)
        assert Poly(pochhammer_ints(4, 1, (2, 1, 1))) == expected
        assert Poly(pochhammer_ints(4, 2, (2, 1, 1))) == expected.subst_power(2)
        assert type(pochhammer_ints(4, 1, (2, 1, 1))) is tuple
        with pytest.raises(ValueError, match="remainder"):
            pochhammer_ints(2, 1, (3,))
        with pytest.raises(ZeroDivisionError):
            pochhammer_ints(2, 0, (1,))

    @pytest.mark.parametrize(
        "n, power, name", [(-1, 1, "n"), (-3, 2, "n"), (2, -1, "power"), (0, -2, "power")]
    )
    def test_pochhammer_rejects_negative_input(self, n, power, name):
        with pytest.raises(ValueError, match=rf"^{name} must be >= 0, got -\d+$"):
            pochhammer_ints(n, power)
        with pytest.raises(ValueError, match=rf"^{name} must be >= 0"):
            pochhammer_ints(n, power, (1,))


class FracPoly:
    """Test oracle: the earlier Poly, a tuple of Fractions by ascending exponent."""

    def __init__(self, coeffs=()):
        cs = [F(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FracPoly(out)

    def __neg__(self):
        return FracPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return FracPoly()
        out = [F(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return FracPoly(out)

    def __pow__(self, e):
        out = FracPoly([1])
        for _ in range(e):
            out = out * self
        return out

    def __divmod__(self, other):
        rem = list(self.coeffs)
        db = len(other.coeffs) - 1
        lb = other.coeffs[-1]
        q = [F(0)] * max(len(rem) - db, 0)
        while rem and len(rem) - 1 >= db:
            k = len(rem) - 1 - db
            f = rem[-1] / lb
            q[k] = f
            for j, c in enumerate(other.coeffs):
                rem[j + k] -= f * c
            while rem and rem[-1] == 0:
                rem.pop()
        return FracPoly(q), FracPoly(rem)

    def subst_power(self, k):
        out = [F(0)] * (max(len(self.coeffs) - 1, 0) * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return FracPoly(out)

    def monic(self):
        if not self.coeffs:
            return self
        return FracPoly(c / self.coeffs[-1] for c in self.coeffs)

    def render(self, var="u"):
        if not self.coeffs:
            return "0"
        pieces = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                varpart = var if k == 1 else f"{var}^{k}"
                body = varpart if mag == 1 else f"{mag}*{varpart}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)


# 11, 13 and 437 = 19 * 23 divide no small factorial, so no lcm of
# centralizer orders hides a missing reduction.
DENOMINATORS = (1, 1, 1, 2, 3, 4, 6, 9, 11, 13, 437)


def random_pair(rng, max_len=7):
    coeffs = [
        F(rng.randint(-20, 20), rng.choice(DENOMINATORS)) if rng.random() < 0.8 else F(0)
        for _ in range(rng.randint(0, max_len))
    ]
    return Poly(coeffs), FracPoly(coeffs)


def assert_normal(p):
    assert isinstance(p.den, int) and p.den > 0
    assert all(type(c) is int for c in p.num)
    assert not p.num or p.num[-1] != 0
    if p.num:
        assert math.gcd(p.den, *p.num) == 1
    else:
        assert p.den == 1


def agree(p, oracle):
    assert_normal(p)
    assert p.coeffs == oracle.coeffs
    assert p.render() == oracle.render() and p.render("q") == oracle.render("q")


class TestRenderAgainstFractionBody:
    """``Poly.render`` prints from num / den the text that the earlier body
    printed from the Fraction view, ``FracPoly.render``."""

    POOL = (0, 0, 1, -1, 2, -7, 12, F(1, 2), F(-1, 3), F(5, 4), F(-9, 6), F(22, 11), F(-3, 437))

    def test_seeded_polynomials(self):
        rng = random.Random(1717)
        kinds = dict.fromkeys(("zero", "unit", "negative", "fraction", "interior zero"), 0)
        for _ in range(20000):
            coeffs = [
                rng.choice(self.POOL)
                if rng.random() < 0.6
                else F(rng.randint(-30, 30), rng.choice(DENOMINATORS))
                for _ in range(rng.randint(0, 8))
            ]
            var = rng.choice("ut")
            p, oracle = Poly(coeffs), FracPoly(coeffs)
            assert p.render(var) == oracle.render(var), coeffs
            cs = oracle.coeffs
            kinds["zero"] += not cs
            kinds["unit"] += any(abs(c) == 1 for c in cs)
            kinds["negative"] += any(c < 0 for c in cs)
            kinds["fraction"] += any(c.denominator != 1 for c in cs)
            kinds["interior zero"] += 0 in cs[1:-1]
        assert min(kinds.values()) > 100, kinds


class TestPolyAgainstFractionOracle:
    def test_ring_operations(self):
        rng = random.Random(8080)
        for _ in range(300):
            (a, fa), (b, fb) = random_pair(rng), random_pair(rng)
            agree(a, fa)
            agree(a + b, fa + fb)
            agree(a - b, fa - fb)
            agree(-a, -fa)
            agree(a * b, fa * fb)
            for e in range(4):
                agree(a**e, fa**e)
            for k in range(1, 4):
                agree(a.subst_power(k), fa.subst_power(k))

    def test_scalars_mix_with_polynomials(self):
        rng = random.Random(8181)
        for _ in range(100):
            a, fa = random_pair(rng)
            c = F(rng.randint(-9, 9), rng.choice(DENOMINATORS))
            fc = FracPoly([c])
            agree(a * c, fa * fc)
            agree(c * a, fa * fc)
            agree(a + c, fa + fc)
            agree(c - a, fc - fa)
            agree(a * 5, fa * FracPoly([5]))

    def test_division(self):
        rng = random.Random(8282)
        for _ in range(300):
            (a, fa), (b, fb) = random_pair(rng), random_pair(rng)
            if b.is_zero():
                with pytest.raises(ZeroDivisionError):
                    divmod(a, b)
                continue
            q, r = divmod(a, b)
            fq, fr = divmod(fa, fb)
            agree(q, fq)
            agree(r, fr)
            q, r = divmod(a * b, b)
            agree(q, fa)
            assert not r


def primitive_remainder_gcd(a, b):
    """Test oracle: the earlier gcd, Euclid on int vectors with the content
    stripped after every elimination step, as a monic FracPoly."""

    def primitive(ints):
        g = math.gcd(*ints)
        if g == 0:
            return []
        return [c // (g if ints[-1] > 0 else -g) for c in ints]

    def rem(a, b):
        r = list(a)
        while r and len(r) >= len(b):
            k = len(r) - len(b)
            factor = r[-1]
            r = [b[-1] * c for c in r]
            for j, bc in enumerate(b):
                r[j + k] -= factor * bc
            while r and r[-1] == 0:
                r.pop()
            r = primitive(r)
        return r

    A, B = primitive(list(a.num)), primitive(list(b.num))
    if len(A) < len(B):
        A, B = B, A
    while B:
        A, B = B, rem(A, B)
    return FracPoly(A).monic()


class TestPseudoDivmod:
    """The one integer long division against the schoolbook Fraction one."""

    @staticmethod
    def cases(rng, count=400):
        yield [], [3]
        yield [0, 0], [1, -2]
        yield [5], [-1, 0, 2]
        for _ in range(count):
            a = [rng.randint(-9, 9) for _ in range(rng.randint(0, 9))]
            b = [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))]
            yield a, b + [rng.choice((-6, -3, -2, -1, 1, 1, 2, 4, 9))]

    def test_against_fraction_long_division(self):
        for a, b in self.cases(random.Random(1111)):
            q, r, s = pseudo_divmod(a, b)
            assert type(s) is int and s > 0, (a, b)
            assert len(r) < len(b), (a, b)
            identity = FracPoly(q) * FracPoly(b) + FracPoly(r) - FracPoly([s * c for c in a])
            assert not identity.coeffs, (a, b)
            if b[-1] == 1:
                assert s == 1, (a, b)
            fq, fr = divmod(FracPoly(a), FracPoly(b))
            assert FracPoly(F(c, s) for c in q).coeffs == fq.coeffs, (a, b)
            assert FracPoly(F(c, s) for c in r).coeffs == fr.coeffs, (a, b)

    def test_poly_divmod_against_fraction_long_division(self):
        rng = random.Random(1212)
        for a, b in self.cases(rng):
            c = F(rng.randint(-9, 9) or 1, rng.choice(DENOMINATORS))
            pa, pb = Poly(a) * c, Poly(b) * F(1, rng.choice(DENOMINATORS))
            fq, fr = divmod(FracPoly(pa.coeffs), FracPoly(pb.coeffs))
            q, r = divmod(pa, pb)
            agree(q, fq)
            agree(r, fr)

    def test_bad_divisors(self):
        with pytest.raises(ZeroDivisionError):
            pseudo_divmod([1, 2], [])
        with pytest.raises(ZeroDivisionError):
            divmod(Poly([1, 2]), Poly())
        with pytest.raises(TypeError, match="unsupported operand"):
            divmod(Poly([1, 2]), "u")

    def test_gcd_against_primitive_remainder_euclid(self):
        rng = random.Random(1313)
        for _ in range(200):
            f, g, h = (random_pair(rng, max_len=4)[0] for _ in range(3))
            a, b = f * g, f * h
            got = poly_gcd(a, b)
            assert got.coeffs == primitive_remainder_gcd(a, b).coeffs, (f, g, h)
            if f and (g or h):
                assert not divmod(FracPoly(got.coeffs), FracPoly(f.coeffs))[1].coeffs, (f, g, h)


class TestPolyNormalForm:
    def test_content_is_divided_out(self):
        p = Poly([F(2, 4)])
        assert p.num == (1,) and p.den == 2
        p = Poly([F(2, 6), F(4, 6)])
        assert p.num == (1, 2) and p.den == 3
        assert Poly.from_ints([6, -4, 2], 8) == Poly([F(3, 4), F(-1, 2), F(1, 4)])
        assert Poly.from_ints([6, -4, 2], 8).num == (3, -2, 1)

    def test_equal_values_by_different_routes(self):
        half = F(1, 2)
        routes = [
            Poly([half, half]),
            Poly([F(3, 6), F(4, 8)]),
            Poly.from_ints([2, 2], 4),
            Poly.from_ints([-7, -7], -14),
            (ONE + U) * half,
            Poly([half]) + Poly.monomial(1, half),
            (Poly([F(1, 3), F(1, 3)]) * F(3, 2)),
            Poly([F(1, 437), F(1, 437)]) * F(437, 2),
            Poly([1, 2, F(1, 2)]) - U**2 * half - U * F(3, 2) - half,
            divmod(Poly([F(1, 2), 1, F(1, 2)]), ONE + U)[0],
        ]
        for p in routes:
            assert p == routes[0]
            assert hash(p) == hash(routes[0])
            assert p.num == (1, 1) and p.den == 2
        assert len({p: None for p in routes}) == 1

    def test_zero_has_denominator_one(self):
        zeros = [
            Poly(),
            Poly([0, 0]),
            Poly([F(0, 5)]),
            Poly.from_ints([0, 0], 7),
            U * F(1, 3) - U * F(1, 3),
            Poly([F(1, 13)]) * Poly(),
            divmod(Poly([F(1, 2)]), U)[0],
            divmod(U * F(2, 3), U)[1],
        ]
        for z in zeros:
            assert z.num == () and z.den == 1
            assert z == Poly() and hash(z) == hash(Poly())
            assert z.degree() == -1 and z.render() == "0"

    def test_integer_polynomials_have_denominator_one(self):
        p = Poly([F(4, 2), F(-6, 3), 5])
        assert p.num == (2, -2, 5) and p.den == 1
        assert (Poly([F(1, 3)]) * 3).den == 1

    def test_constructor_checks(self):
        with pytest.raises(TypeError):
            Poly([0.5])
        with pytest.raises(ZeroDivisionError):
            Poly.from_ints([1], 0)
        with pytest.raises(AttributeError):
            U.num = (1,)

    def test_operands_that_are_not_rational_scalars(self):
        # The one rule is ``ratio``'s: ints, constant Polys and values with
        # int numerator and denominator.  Anything else is NotImplemented,
        # so == is False and + raises Python's own TypeError.
        class FloatDenominator:
            numerator, denominator = 1, 2.0

        for other in (FloatDenominator(), 0.5, "u"):
            assert (U == other) is False
            assert (RatFunc(U) == other) is False
            with pytest.raises(TypeError, match="unsupported operand"):
                U + other
        assert U * F(1, 2) == Poly.from_ints([0, 1], 2) == RatFunc(U) * F(1, 2)
        assert RatFunc(Poly([F(1, 2)])) == F(1, 2)


@pytest.mark.parametrize(
    "value, field",
    [
        (Poly([1, 2]), "num"),
        (RatFunc(1, Poly([1, 1])), "den"),
        (TSeries([1, 2]), "coeffs"),
        (SymFunc(1, {(1,): 1}), "terms"),
    ],
    ids=["Poly", "RatFunc", "TSeries", "SymFunc"],
)
def test_values_are_frozen(value, field):
    # Frozen's __setattr__ is the one refusal; no value class writes its own
    cls = type(value)
    assert issubclass(cls, arith.Frozen) and "__setattr__" not in vars(cls)
    before = getattr(value, field)
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
        setattr(value, field, before)
    assert getattr(value, field) is before

"""Symmetric function ring: basis conversions, pairings, specializations.

The Murnaghan-Nakayama characters are cross-checked against a
determinantal oracle: Schur functions built from complete homogeneous
functions by the Jacobi-Trudi determinant, a code path that never
touches the border-strip recursion.
"""

import random
from fractions import Fraction as F
from itertools import permutations

import pytest

from commvar.arith import Poly, RatFunc
from commvar.charmodel import GradedSpace, Stratum, enhanced_character, poincare
from commvar.partitions import Partition, partitions_of
from commvar.symfunc import SymFunc, mn_character, q_pochhammer

P = Partition
U = Poly.monomial(1)
ONE = Poly.constant(1)


def schur_by_jacobi_trudi(lam: Partition) -> SymFunc:
    """det(h_{lam_i - i + j}) expanded over permutations; oracle only."""
    ell = len(lam.parts)
    if ell == 0:
        return SymFunc.unit()
    result = SymFunc.zero(lam.n)
    for sigma in permutations(range(ell)):
        sign = 1
        seen = list(sigma)
        # count inversions for the permutation sign
        inv = sum(
            1 for i in range(ell) for j in range(i + 1, ell) if seen[i] > seen[j]
        )
        sign = -1 if inv % 2 else 1
        term = SymFunc.unit()
        ok = True
        for i in range(ell):
            m = lam.parts[i] - (i + 1) + (sigma[i] + 1)
            if m < 0:
                ok = False
                break
            if m > 0:
                term = term * SymFunc.from_h(P((m,)))
        if ok and term.degree == lam.n:
            result = result + term.scale(sign)
    return result


def principal_spec_per_term(f: SymFunc, power: int) -> RatFunc:
    """Sum of c_lam / prod (1 - x^(power*lam_i)), one RatFunc add per term; oracle only."""
    acc = RatFunc(0)
    for lam, coeff in f.terms.items():
        den = ONE
        for part in lam.parts:
            den = den * (ONE - Poly.monomial(power * part))
        acc = acc + RatFunc(coeff, den)
    return acc


class TestCoefficients:
    def test_coefficients_are_polynomials(self):
        f = SymFunc(3, {(3,): 3, (2, 1): F(1, 2), (1, 1, 1): RatFunc(ONE - U)})
        assert all(type(c) is Poly for c in f.terms.values())
        assert f.coeff(P((3,))) == Poly.constant(3)
        assert f.coeff(P((2, 1))) == Poly.constant(F(1, 2))
        assert f.coeff(P((1, 1, 1))) == ONE - U

    def test_rejects_true_rational_coefficient(self):
        with pytest.raises(ValueError, match="denominator"):
            SymFunc(1, {(1,): RatFunc(1, ONE - U)})
        with pytest.raises(ValueError, match="denominator"):
            SymFunc.from_p(P((1,))).scale(RatFunc(1, ONE - U))

    def test_products_and_pairings_stay_polynomial(self):
        f = SymFunc.schur(P((2, 1))).scale(ONE + U)
        g = SymFunc.from_h(P((1,))) * SymFunc.from_p(P((1, 1))).scale(U)
        assert type(f.hall(f)) is Poly
        assert all(type(c) is Poly for c in (f * g).terms.values())
        assert all(type(c) is Poly for c in g.to_schur().values())


class TestHomogeneous:
    def test_h1_is_p1(self):
        assert SymFunc.from_h(P((1,))) == SymFunc.from_p(P((1,)))

    def test_h2_expansion(self):
        # derived by expanding exp(sum p_n t^n / n) to t^2
        h2 = SymFunc.from_h(P((2,)))
        assert h2.terms == {P((1, 1)): RatFunc(F(1, 2)), P((2,)): RatFunc(F(1, 2))}

    def test_h21_is_a_product(self):
        assert SymFunc.from_h(P((2, 1))) == SymFunc.from_h(P((2,))) * SymFunc.from_h(
            P((1,))
        )

    def test_h0_is_unit(self):
        assert SymFunc.from_h(P(())) == SymFunc.unit()


class TestCharacters:
    def test_trivial_row(self):
        for mu in partitions_of(5):
            assert mn_character(P((5,)), mu) == 1

    def test_sign_on_transposition(self):
        assert mn_character(P((1, 1, 1)), P((2, 1))) == -1

    def test_standard_rep_values(self):
        assert mn_character(P((2, 1)), P((1, 1, 1))) == 2
        assert mn_character(P((2, 1)), P((3,))) == -1

    def test_frozen_table_n3(self):
        # derived from column orthogonality plus the two trivial rows
        table = {
            (3,): {(3,): 1, (2, 1): 1, (1, 1, 1): 1},
            (2, 1): {(3,): -1, (2, 1): 0, (1, 1, 1): 2},
            (1, 1, 1): {(3,): 1, (2, 1): -1, (1, 1, 1): 1},
        }
        for lam, row in table.items():
            for mu, value in row.items():
                assert mn_character(P(lam), P(mu)) == value

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError, match="size mismatch"):
            mn_character(P((2,)), P((3,)))

    def test_concurrent_lookups_are_consistent(self):
        # the memo table may be hit from several workers at once
        import threading

        pairs = [(a, b) for a in partitions_of(6) for b in partitions_of(6)]
        results = [dict() for _ in range(4)]

        def worker(store):
            for a, b in pairs:
                store[(a, b)] = mn_character(a, b)

        threads = [threading.Thread(target=worker, args=(r,)) for r in results]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results[0] == results[1] == results[2] == results[3]

    @pytest.mark.parametrize("n", range(7))
    def test_schur_against_jacobi_trudi(self, n):
        for lam in partitions_of(n):
            assert SymFunc.schur(lam) == schur_by_jacobi_trudi(lam), lam

    @pytest.mark.parametrize("n", range(6))
    def test_character_orthogonality(self, n):
        parts = partitions_of(n)
        for a in parts:
            for b in parts:
                total = sum(
                    F(mn_character(a, mu) * mn_character(b, mu), mu.centralizer_order())
                    for mu in parts
                )
                assert total == (1 if a == b else 0)


class TestSchurView:
    def test_power_sum_square(self):
        assert SymFunc.from_p(P((1, 1))).to_schur() == {
            P((2,)): RatFunc(1),
            P((1, 1)): RatFunc(1),
        }

    def test_h2_is_s2(self):
        assert SymFunc.from_h(P((2,))).to_schur() == {P((2,)): RatFunc(1)}

    def test_zero_gives_empty_map(self):
        assert SymFunc.zero(3).to_schur() == {}

    def test_round_trip(self):
        rng = random.Random(37)
        for _ in range(10):
            n = rng.randint(0, 6)
            f = SymFunc(
                n,
                {
                    lam: RatFunc(Poly([F(rng.randint(-3, 3)) for _ in range(3)]))
                    for lam in partitions_of(n)
                    if rng.random() < 0.7
                },
            )
            rebuilt = SymFunc.zero(n)
            for lam, c in f.to_schur().items():
                rebuilt = rebuilt + SymFunc.schur(lam).scale(c)
            assert rebuilt == f


class TestHallInner:
    def test_power_sum_norms(self):
        p2 = SymFunc.from_p(P((2,)))
        assert p2.hall(p2) == RatFunc(2)
        p11 = SymFunc.from_p(P((1, 1)))
        assert p11.hall(p11) == RatFunc(2)
        assert p2.hall(p11) == RatFunc(0)

    def test_h2_norm(self):
        h2 = SymFunc.from_h(P((2,)))
        assert h2.hall(h2) == RatFunc(1)

    @pytest.mark.parametrize("n", range(6))
    def test_schur_orthonormality(self, n):
        for a in partitions_of(n):
            for b in partitions_of(n):
                expected = RatFunc(1 if a == b else 0)
                assert SymFunc.schur(a).hall(SymFunc.schur(b)) == expected

    def test_degree_mismatch_pairs_to_zero(self):
        f = SymFunc.from_h(P((2,)))
        g = SymFunc.from_h(P((3,)))
        assert f.hall(g) == RatFunc(0)

    def test_bilinear_over_scalars(self):
        f = SymFunc.schur(P((2,))).scale(U)
        g = SymFunc.schur(P((2,))).scale(ONE - U)
        assert f.hall(g) == RatFunc(U * (ONE - U))


class TestPrincipalSpec:
    def test_power_sum(self):
        for k in (1, 2, 5):
            assert SymFunc.from_p(P((k,))).principal_spec() == RatFunc(
                1, ONE - Poly.monomial(k)
            )

    def test_complete_homogeneous(self):
        for n in range(1, 7):
            assert SymFunc.from_h(P((n,))).principal_spec() == RatFunc(
                1, q_pochhammer(n)
            )

    def test_schur_21(self):
        # hook-content oracle: u^1 / ((1-u)^2 (1-u^3))
        expected = RatFunc(U, (ONE - U) ** 2 * (ONE - U**3))
        assert SymFunc.schur(P((2, 1))).principal_spec() == expected

    @pytest.mark.parametrize("n", range(1, 8))
    def test_hook_content_oracle(self, n):
        for lam in partitions_of(n):
            den = Poly.constant(1)
            for h in lam.hook_lengths():
                den = den * (ONE - Poly.monomial(h))
            expected = RatFunc(Poly.monomial(lam.weighted_row_sum()), den)
            assert SymFunc.schur(lam).principal_spec() == expected

    def test_ring_homomorphism(self):
        rng = random.Random(11)
        for _ in range(10):
            na, nb = rng.randint(0, 4), rng.randint(0, 4)
            f = SymFunc(
                na,
                {lam: RatFunc(rng.randint(-3, 3)) for lam in partitions_of(na)},
            )
            g = SymFunc(
                nb,
                {lam: RatFunc(rng.randint(-3, 3)) for lam in partitions_of(nb)},
            )
            assert (f * g).principal_spec() == f.principal_spec() * g.principal_spec()

    def test_square_variable(self):
        assert SymFunc.from_p(P((3,))).principal_spec(power=2) == RatFunc(
            1, ONE - Poly.monomial(6)
        )

    def test_unit(self):
        assert SymFunc.unit().principal_spec() == RatFunc(1)

    @pytest.mark.parametrize("power", (1, 2))
    def test_matches_per_term_route(self, power):
        rng = random.Random(53 + power)
        for n in range(8):
            f = SymFunc(
                n,
                {
                    lam: Poly([F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)])
                    for lam in partitions_of(n)
                    if rng.random() < 0.6
                },
            )
            assert f.principal_spec(power) == principal_spec_per_term(f, power), n

    def test_poincare_matches_per_term_route(self):
        rng = random.Random(71)
        spaces = [
            GradedSpace([Stratum(0, 1), Stratum(1, 1)]),
            GradedSpace([Stratum(0, 1), Stratum(2, 1)]),
            GradedSpace([Stratum(0, 1), Stratum(1, 2)]),
            GradedSpace([Stratum(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(3)]),
        ]
        for space in spaces:
            for n in range(9):
                per_term = principal_spec_per_term(enhanced_character(space, n), 2)
                assert RatFunc(q_pochhammer(n, 2)) * per_term == poincare(space, n, "cn")


class TestProduct:
    def test_power_sums_concatenate(self):
        prod = SymFunc.from_p(P((2,))) * SymFunc.from_p(P((1,)))
        assert prod.terms == {P((2, 1)): RatFunc(1)}

    def test_h1_squared(self):
        assert (SymFunc.from_h(P((1,))) * SymFunc.from_h(P((1,)))).terms == {
            P((1, 1)): RatFunc(1)
        }

    def test_pieri_rank_two(self):
        s1 = SymFunc.schur(P((1,)))
        assert (s1 * s1).to_schur() == {P((2,)): RatFunc(1), P((1, 1)): RatFunc(1)}

    def test_degree_addition(self):
        f = SymFunc.from_h(P((2,)))
        g = SymFunc.from_h(P((3,)))
        assert (f * g).degree == 5


class TestRendering:
    def test_p_basis(self):
        h2 = SymFunc.from_h(P((2,)))
        assert h2.render() == "(1/2)*p[2] + (1/2)*p[1,1]"

    def test_schur_basis(self):
        f = SymFunc.schur(P((2,))) + SymFunc.schur(P((1, 1))).scale(Poly.monomial(2))
        assert f.render_schur() == "s[2] + u^2*s[1,1]"

    def test_zero(self):
        assert SymFunc.zero(2).render() == "0"

    def test_add_requires_same_degree(self):
        with pytest.raises(ValueError):
            SymFunc.from_h(P((2,))) + SymFunc.from_h(P((3,)))

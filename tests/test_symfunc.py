"""Symmetric function ring: basis conversions, pairings, specializations.

The Murnaghan-Nakayama characters are cross-checked against a
determinantal oracle: Schur functions built from complete homogeneous
functions by the Jacobi-Trudi determinant, a code path that never
touches the border-strip recursion.  The character table, built column
by column, is compared entry by entry with the per-entry border-strip
recursion.
"""

import random
from fractions import Fraction as F
from functools import lru_cache
from itertools import permutations

import pytest

from commvar import symfunc
from commvar.arith import Poly, RatFunc
from commvar.charmodel import GradedSpace, Stratum, enhanced_character, poincare
from commvar.partitions import Partition, partitions_of
from commvar.symfunc import (
    SymFunc,
    _mn,
    _positions,
    _strips,
    character_table,
    mn_character,
    q_pochhammer,
)
from h_basis import from_h
from symfunc_ops import add, power_sum, scale, strips_by_beta_tuples

P = Partition
U = Poly.monomial(1)
ONE = Poly.constant(1)


def schur_by_jacobi_trudi(lam: Partition) -> SymFunc:
    """det(h_{lam_i - i + j}) expanded over permutations; oracle only."""
    ell = len(lam)
    if ell == 0:
        return SymFunc.unit()
    result = SymFunc(lam.n)
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
            m = lam[i] - (i + 1) + (sigma[i] + 1)
            if m < 0:
                ok = False
                break
            if m > 0:
                term = term * from_h(P((m,)))
        if ok and term.degree == lam.n:
            result = add(result, scale(term, sign))
    return result


def principal_spec_per_term(f: SymFunc, power: int) -> RatFunc:
    """Sum of c_lam / prod (1 - x^(power*lam_i)), one RatFunc add per term; oracle only."""
    acc = RatFunc(0)
    for lam, coeff in f.terms.items():
        den = ONE
        for part in lam:
            den = den * (ONE - Poly.monomial(power * part))
        acc = acc + RatFunc(coeff, den)
    return acc


def pochhammer_by_products(n: int, power: int) -> Poly:
    """(1 - x^p)(1 - x^2p) ... (1 - x^np) as Poly products; oracle only."""
    acc = ONE
    for i in range(1, n + 1):
        acc = acc * (ONE - Poly.monomial(power * i))
    return acc


def numerator_by_poly_division(f: SymFunc, power: int) -> Poly:
    """Sum of c_lam * (x^p;x^p)_n / prod (1 - x^(p*lam_i)), one Poly divmod per term; oracle only."""
    pochhammer = pochhammer_by_products(f.degree, power)
    acc = Poly()
    for lam, coeff in f.terms.items():
        den = ONE
        for part in lam:
            den = den * (ONE - Poly.monomial(power * part))
        quotient, rem = divmod(pochhammer, den)
        assert not rem
        acc = acc + coeff * quotient
    return acc


def to_schur_by_products(f: SymFunc) -> dict[Partition, Poly]:
    """sum over mu of chi^lam(mu) * [p_mu] f, one Poly product per pair; oracle only."""
    out = {}
    for lam in partitions_of(f.degree):
        acc = Poly()
        for mu, coeff in f.terms.items():
            chi = mn_character(lam, mu)
            if chi:
                acc = acc + coeff * chi
        if acc:
            out[lam] = acc
    return out


def random_symfunc(rng: random.Random, n: int) -> SymFunc:
    """Fraction-coefficient polynomials, denominators up to 9, on about 60% of partitions."""
    return SymFunc(
        n,
        {
            lam: Poly([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 5))])
            for lam in partitions_of(n)
            if rng.random() < 0.6
        },
    )


class TestIntegerKernel:
    @pytest.mark.parametrize("power", (1, 2, 3))
    def test_matches_poly_division(self, power):
        rng = random.Random(907 + power)
        for n in range(10):
            f = random_symfunc(rng, n)
            assert f.principal_spec_numerator(power) == numerator_by_poly_division(f, power), n

    def test_denominators_not_dividing_n_factorial(self):
        f = SymFunc(4, {(2, 1, 1): F(1, 7), (4,): Poly([F(3, 11), 0, F(-5, 13)]), (3, 1): F(2, 3)})
        for power in (1, 2, 3):
            got = f.principal_spec_numerator(power)
            assert got == numerator_by_poly_division(f, power)
            assert got.coeffs[0] == F(1, 7) + F(3, 11) + F(2, 3)

    def test_zero_and_unit(self):
        for power in (1, 2, 3):
            for n in range(6):
                assert SymFunc(n).principal_spec_numerator(power) == Poly()
            assert SymFunc.unit().principal_spec_numerator(power) == ONE
            assert scale(SymFunc.unit(), U - F(1, 3)).principal_spec_numerator(power) == U - F(1, 3)

    @pytest.mark.parametrize("power", (0, 1, 2, 3))
    def test_pochhammer(self, power):
        for n in range(10):
            assert q_pochhammer(n, power) == pochhammer_by_products(n, power)

    @pytest.mark.parametrize("n, power, name", [(-3, 1, "n"), (-1, 2, "n"), (2, -1, "power")])
    def test_pochhammer_rejects_negative_input(self, n, power, name):
        with pytest.raises(ValueError, match=rf"^{name} must be >= 0"):
            q_pochhammer(n, power)


class TestCoefficients:
    def test_coefficients_are_polynomials(self):
        f = SymFunc(3, {(3,): 3, (2, 1): F(1, 2), (1, 1, 1): RatFunc(ONE - U)})
        assert all(type(c) is Poly for c in f.terms.values())
        assert f.terms[P((3,))] == Poly.constant(3)
        assert f.terms[P((2, 1))] == Poly.constant(F(1, 2))
        assert f.terms[P((1, 1, 1))] == ONE - U

    def test_rejects_true_rational_coefficient(self):
        with pytest.raises(ValueError, match="denominator"):
            SymFunc(1, {(1,): RatFunc(1, ONE - U)})
        with pytest.raises(ValueError, match="denominator"):
            scale(power_sum(P((1,))), RatFunc(1, ONE - U))

    def test_products_and_pairings_stay_polynomial(self):
        f = scale(SymFunc.schur(P((2, 1))), ONE + U)
        g = from_h(P((1,))) * scale(power_sum(P((1, 1))), U)
        assert all(type(c) is Poly for c in (f * g).terms.values())
        assert all(type(c) is Poly for c in g.to_schur().values())


class TestHomogeneous:
    def test_h1_is_p1(self):
        assert from_h(P((1,))) == power_sum(P((1,)))

    def test_h2_expansion(self):
        # derived by expanding exp(sum p_n t^n / n) to t^2
        h2 = from_h(P((2,)))
        assert h2.terms == {P((1, 1)): RatFunc(F(1, 2)), P((2,)): RatFunc(F(1, 2))}

    def test_h21_is_a_product(self):
        assert from_h(P((2, 1))) == from_h(P((2,))) * from_h(
            P((1,))
        )

    def test_h0_is_unit(self):
        assert from_h(P(())) == SymFunc.unit()


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


@lru_cache(maxsize=None)
def mn_by_border_strips(lam: tuple, mu: tuple) -> int:
    """chi^lam(mu) entry by entry: peel border strips of length mu_1 off
    lam, with the sign of the strip height; oracle only."""
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    m = len(lam)
    betas = [lam[i] + (m - 1 - i) for i in range(m)]
    bset = set(betas)
    total = 0
    for b in betas:
        nb = b - r
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in betas if nb < x < b)
        newbetas = sorted((bset - {b}) | {nb}, reverse=True)
        newparts = tuple(p for p in (newbetas[i] - (m - 1 - i) for i in range(m)) if p > 0)
        value = mn_by_border_strips(newparts, rest)
        total += -value if height % 2 else value
    return total


class TestCharacterTable:
    @pytest.mark.parametrize("n", range(10))
    def test_entries_are_mn_characters(self, n):
        parts = partitions_of(n)
        table = character_table(n)
        assert len(table) == len(parts)
        for lam, row in zip(parts, table):
            assert len(row) == len(parts)
            for mu, value in zip(parts, row):
                assert value == mn_character(lam, mu), (lam, mu)

    @pytest.mark.parametrize("n", range(11))
    def test_columns_match_the_border_strip_recursion(self, n):
        parts = partitions_of(n)
        for lam, row in zip(parts, character_table(n)):
            for mu, value in zip(parts, row):
                assert value == mn_by_border_strips(lam, mu), (lam, mu)

    @pytest.mark.parametrize("n", range(10))
    def test_row_orthogonality(self, n):
        # sum_mu chi^a(mu) chi^b(mu) / z_mu = delta_ab
        zs = [mu.centralizer_order() for mu in partitions_of(n)]
        table = character_table(n)
        for i, a in enumerate(table):
            for j, b in enumerate(table):
                total = sum(F(x * y, z) for x, y, z in zip(a, b, zs))
                assert total == (1 if i == j else 0), (n, i, j)

    @pytest.mark.parametrize("n", range(10))
    def test_column_orthogonality(self, n):
        # sum_lam chi^lam(mu) chi^lam(nu) = delta_mu,nu * z_mu
        parts = partitions_of(n)
        columns = list(zip(*character_table(n)))
        for i, mu in enumerate(parts):
            for j in range(len(parts)):
                total = sum(x * y for x, y in zip(columns[i], columns[j]))
                assert total == (mu.centralizer_order() if i == j else 0), (n, i, j)


class TestStrips:
    @pytest.mark.parametrize("size", range(1, 15))
    def test_match_the_beta_tuple_oracle_in_order(self, size):
        # the production lists come from bead masks; the order of each
        # nu's strips is part of the contract
        for r in range(1, size + 1):
            assert _strips(size - r, r) == strips_by_beta_tuples(size - r, r), (size - r, r)


class TestPartitionKeys:
    """The character caches take a partition or the plain tuple of its parts."""

    def test_positions_are_keyed_by_parts(self):
        assert _positions(3)[(2, 1)] == _positions(3)[Partition((2, 1))] == 1

    def test_partition_and_tuple_share_one_cached_column(self):
        assert _mn(Partition((2, 1))) is _mn((2, 1))
        assert _mn(Partition((3, 2, 2))) is _mn((3, 2, 2))


class TestSchurConversion:
    """to_schur against the product-by-product loop it replaced."""

    @pytest.mark.parametrize("n", range(9))
    def test_matches_products_on_random_input(self, n):
        rng = random.Random(5100 + n)
        for _ in range(4):
            f = random_symfunc(rng, n)
            assert f.to_schur() == to_schur_by_products(f)

    @pytest.mark.parametrize("n", range(9))
    def test_large_coefficients_of_mixed_sign(self, n):
        rng = random.Random(5300 + n)
        for _ in range(3):
            terms = {}
            for lam in partitions_of(n):
                if rng.random() < 0.7:
                    coeffs = [F(rng.randint(-(10**30), 10**30), rng.randint(1, 10**6)) for _ in range(6)]
                    terms[lam] = Poly(coeffs[: rng.randint(1, 6)])
            f = SymFunc(n, terms)
            assert f.to_schur() == to_schur_by_products(f)

    @pytest.mark.parametrize("n", range(9))
    def test_denominators_not_dividing_n_factorial(self, n):
        # primes above n, so no denominator divides n!
        rng = random.Random(5200 + n)
        dens = (11, 13, 17, 19 * 23, 29 * 31)
        f = SymFunc(
            n,
            {
                lam: Poly([F(rng.randint(-40, 40), rng.choice(dens)) for _ in range(rng.randint(1, 6))])
                for lam in partitions_of(n)
                if rng.random() < 0.7
            },
        )
        assert f.to_schur() == to_schur_by_products(f)

    @pytest.mark.parametrize("n", range(9))
    def test_zero(self, n):
        assert SymFunc(n).to_schur() == to_schur_by_products(SymFunc(n)) == {}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_single_power_sums(self, n):
        for mu in partitions_of(n):
            f = scale(power_sum(mu), Poly([F(1, 7), 0, F(-3, 5)]))
            assert f.to_schur() == to_schur_by_products(f)


def slot_filling(n: int, big: int) -> tuple[SymFunc, Partition]:
    """The row lam* of largest l1 norm and big * sign(chi^lam*(mu)) * (1 - u + u^2)
    at each mu, so that c_lam* = big * l1 * (1 - u + u^2) fills its packed
    slots to the bound, with a borrow between neighbouring degrees."""
    parts = partitions_of(n)
    table = character_table(n)
    star = max(range(len(parts)), key=lambda i: sum(map(abs, table[i])))
    terms = {}
    for mu, chi in zip(parts, table[star]):
        if chi:
            sign = 1 if chi > 0 else -1
            terms[mu] = Poly.from_ints([sign * big, -sign * big, sign * big])
    return SymFunc(n, terms), parts[star]


class TestPackedSlotWidth:
    """The slot width of the packed dot products, from both sides."""

    BIG = 3**25

    @pytest.mark.parametrize("n", range(10))
    def test_a_full_slot_is_read_back(self, n):
        f, star = slot_filling(n, self.BIG)
        bound = self.BIG * max(sum(map(abs, row)) for row in character_table(n))
        assert f.to_schur()[star].num == (bound, -bound, bound)
        assert f.to_schur() == to_schur_by_products(f)

    @pytest.mark.parametrize("n", range(10))
    def test_one_bit_less_overflows(self, monkeypatch, n):
        real = symfunc._slot_bits
        monkeypatch.setattr(symfunc, "_slot_bits", lambda top, degree: real(top, degree) - 1)
        f, _ = slot_filling(n, self.BIG)
        assert f.to_schur() != to_schur_by_products(f)


class TestSchurView:
    def test_power_sum_square(self):
        assert power_sum(P((1, 1))).to_schur() == {
            P((2,)): RatFunc(1),
            P((1, 1)): RatFunc(1),
        }

    def test_h2_is_s2(self):
        assert from_h(P((2,))).to_schur() == {P((2,)): RatFunc(1)}

    def test_zero_gives_empty_map(self):
        assert SymFunc(3).to_schur() == {}

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
            rebuilt = SymFunc(n)
            for lam, c in f.to_schur().items():
                rebuilt = add(rebuilt, scale(SymFunc.schur(lam), c))
            assert rebuilt == f


class TestPrincipalSpec:
    def test_power_sum(self):
        for k in (1, 2, 5):
            assert power_sum(P((k,))).principal_spec() == RatFunc(
                1, ONE - Poly.monomial(k)
            )

    def test_complete_homogeneous(self):
        for n in range(1, 7):
            assert from_h(P((n,))).principal_spec() == RatFunc(
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
        assert power_sum(P((3,))).principal_spec(power=2) == RatFunc(
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
        prod = power_sum(P((2,))) * power_sum(P((1,)))
        assert prod.terms == {P((2, 1)): RatFunc(1)}

    def test_h1_squared(self):
        assert (from_h(P((1,))) * from_h(P((1,)))).terms == {
            P((1, 1)): RatFunc(1)
        }

    def test_pieri_rank_two(self):
        s1 = SymFunc.schur(P((1,)))
        assert (s1 * s1).to_schur() == {P((2,)): RatFunc(1), P((1, 1)): RatFunc(1)}

    def test_degree_addition(self):
        f = from_h(P((2,)))
        g = from_h(P((3,)))
        assert (f * g).degree == 5


class TestRendering:
    def test_p_basis(self):
        h2 = from_h(P((2,)))
        assert h2.render() == "(1/2)*p[2] + (1/2)*p[1,1]"

    def test_schur_basis(self):
        f = add(SymFunc.schur(P((2,))), scale(SymFunc.schur(P((1, 1))), Poly.monomial(2)))
        assert f.render_schur() == "s[2] + u^2*s[1,1]"

    def test_zero(self):
        assert SymFunc(2).render() == "0"

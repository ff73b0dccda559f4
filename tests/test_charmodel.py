"""Character-level formulas: traces, enhanced characters, Poincare values."""

import json
import random
import re
from fractions import Fraction as F

import pytest

from commvar import charmodel
from commvar.arith import Poly, RatFunc, cyclotomic_coeffs, poly_gcd
from commvar.charmodel import (
    DescriptorError,
    GradedSpace,
    QPower,
    Stratum,
    character_digits,
    enhanced_character,
    enhanced_character_series,
    flag_character,
    flag_schur_coefficient,
    graded_trace_product,
    load_descriptor,
    parse_descriptor,
    parse_eigenvalue,
    point_count,
    point_counts,
    poincare,
    rank_numerators,
)
from commvar.partitions import Partition, partitions_of
from commvar.symfunc import SymFunc, q_pochhammer
from commvar.varieties import builtin_space
from h_basis import from_h

P = Partition
U = Poly.monomial(1)
ONE = Poly.constant(1)

AFFINE = GradedSpace([Stratum(0, 1)], name="affine line")
TORUS = GradedSpace([Stratum(0, 1), Stratum(1, 1)], name="torus")
PROJ = GradedSpace([Stratum(0, 1), Stratum(2, 1)], name="projective line")


def random_space(rng, eigs=(F(1), F(1, 2), F(1, 3), F(2))):
    return GradedSpace(
        [
            Stratum(rng.randint(0, 4), rng.randint(1, 3), rng.choice(eigs))
            for _ in range(rng.randint(1, 4))
        ]
    )


class TestGradedSpace:
    def test_merges_repeated_strata(self):
        space = GradedSpace([Stratum(1, 2), Stratum(0, 1), Stratum(1, 3)])
        assert space == (Stratum(0, 1), Stratum(1, 5))

    def test_betti_default_eigenvalue(self):
        space = GradedSpace([Stratum(0, 1), Stratum(1, 2)])
        assert all(s.eig == 1 for s in space)

    def test_poincare_poly_signs(self):
        assert TORUS.poincare_poly() == ONE - U
        assert PROJ.poincare_poly() == ONE + U**2

    def test_resolve_tokens(self):
        space = GradedSpace([Stratum(1, 1, QPower(-1))])
        assert space.resolve(3)[0].eig == F(1, 3)
        with pytest.raises(ValueError, match="q\\^k"):
            graded_trace_product(space, P((1,)))

    def test_rejects_bad_strata(self):
        with pytest.raises(ValueError):
            GradedSpace([Stratum(-1, 1)])
        with pytest.raises(ValueError):
            GradedSpace([Stratum(0, 0)])


class TestGradedSpaceTuple:
    """A graded space is the tuple of its canonical strata."""

    def test_equals_its_canonical_strata_whatever_its_name(self):
        space = GradedSpace([Stratum(1, 2), Stratum(0, 1)], name="curve")
        strata = (Stratum(0, 1), Stratum(1, 2))
        assert isinstance(space, tuple)
        assert space == strata and hash(space) == hash(strata)
        assert space == GradedSpace(strata, name="other") == GradedSpace(strata)
        assert space.name == "curve"

    def test_length_is_the_number_of_strata(self):
        assert len(GradedSpace([Stratum(1, 2), Stratum(0, 1), Stratum(1, 3)])) == 2
        assert len(TORUS) == 2

    def test_sum_is_the_disjoint_union(self):
        union = GradedSpace(TORUS + PROJ)
        assert union == (Stratum(0, 2), Stratum(1, 1), Stratum(2, 1))
        assert union.poincare_poly() == TORUS.poincare_poly() + PROJ.poincare_poly()

    def test_empty_space_is_falsy_with_zero_weights(self):
        empty = GradedSpace([])
        assert not empty
        assert charmodel.eigen_power_sum(empty, 2) == Poly()

    @pytest.mark.parametrize("name", ["name", "strata", "other"])
    def test_attributes_cannot_be_set(self, name):
        with pytest.raises(AttributeError):
            setattr(GradedSpace([Stratum(0, 1)], name="x"), name, None)

    def test_strata_and_eigenvalues_are_values(self):
        assert Stratum(1, 2) == Stratum(1, 2, F(1)) != (1, 2, F(1))
        assert hash(Stratum(1, 2)) == hash(Stratum(1, 2, F(1)))
        assert QPower(-1) == QPower(-1) != QPower(0)
        assert repr(Stratum(2, 1, QPower(-1))) == "Stratum(deg=2, dim=1, eig=QPower(k=-1))"
        with pytest.raises(AttributeError):
            Stratum(0, 1).dim = 2
        with pytest.raises(AttributeError):
            QPower(1).k = 2


class TestTraceProduct:
    def test_torus_identity_type(self):
        assert graded_trace_product(TORUS, P((1, 1))) == RatFunc((ONE - U) ** 2)

    def test_torus_two_cycle(self):
        assert graded_trace_product(TORUS, P((2,))) == RatFunc(ONE - U**2)

    def test_identity_type_is_a_power(self):
        rng = random.Random(3)
        for _ in range(6):
            space = random_space(rng)
            n = rng.randint(1, 4)
            expected = space.poincare_poly() ** n
            # eigenvalues do matter for the trace; reset them first
            betti_only = space.with_unit_eigenvalues()
            assert graded_trace_product(betti_only, P((1,) * n)) == expected


class TestEnhancedCharacter:
    def test_affine_line_gives_trivial_character(self):
        for n in range(6):
            expected = from_h(P((n,)) if n else P(()))
            assert enhanced_character(AFFINE, n) == expected

    def test_torus_rank_two_schur_view(self):
        schur = enhanced_character(TORUS, 2).to_schur()
        assert schur[P((2,))] == RatFunc(ONE - U)
        assert schur[P((1, 1))] == RatFunc(-U * (ONE - U))

    def test_rank_zero_is_unit(self):
        assert enhanced_character(TORUS, 0) == SymFunc.unit()

    def test_identity_coefficient_tracks_dimension(self):
        # z * (p_1^n coefficient) equals the n-th power of the input polynomial
        rng = random.Random(8)
        for _ in range(5):
            space = random_space(rng).with_unit_eigenvalues()
            for n in range(1, 5):
                ch = enhanced_character(space, n)
                lam = P((1,) * n)
                got = ch.coeff(lam) * lam.centralizer_order()
                assert got == space.poincare_poly() ** n

    def test_digit_bound_covers_every_printed_int(self):
        # the ints of both bases and of every trace, not the partition
        # labels or the exponents of u
        rng = random.Random(1618)
        eigs = (F(0), F(1), F(-1), F(1, 2), F(-2, 3), F(3), F(7, 5), QPower(-1), QPower(2))
        for _ in range(100):
            space = GradedSpace(
                [
                    Stratum(rng.randint(0, 4), rng.randint(1, 3), rng.choice(eigs))
                    for _ in range(rng.randint(1, 5))
                ]
            ).resolve(rng.choice((2, 3, 4, 5, 9, 1000003)))
            n = rng.randint(0, 5)
            ch = enhanced_character(space, n)
            texts = [ch.render(), ch.render_schur()]
            texts += [graded_trace_product(space, lam).render() for lam in partitions_of(n)]
            text = re.sub(r"[sp]\[[\d,]*\]|\^\d+", "", " ".join(texts))
            longest = max((len(m) for m in re.findall(r"\d+", text)), default=0)
            assert longest <= character_digits(space, n), (space, n, text)


BUILTINS = [
    builtin_space("point"),
    builtin_space("affine", dim=1),
    builtin_space("affine", dim=2),
    builtin_space("torus", dim=1),
    builtin_space("torus", dim=2),
    builtin_space("punctured", avoided=(0, 1)),
    builtin_space("punctured", avoided=(0, 1, 2)),
    builtin_space("p1"),
]


class TestEnhancedCharacterPowers:
    """z_lam * [p_lam] enhanced_character is the per-lam trace product."""

    @staticmethod
    def check(space, n):
        ch = enhanced_character(space, n)
        for lam in partitions_of(n):
            assert ch.coeff(lam) * lam.centralizer_order() == graded_trace_product(space, lam), (
                space,
                lam,
            )

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_builtins(self, q):
        for space in BUILTINS:
            for n in range(9):
                self.check(space.resolve(q), n)

    def test_random_spaces(self):
        rng = random.Random(6006)
        for _ in range(6):
            space = random_space(rng)
            for n in range(9):
                self.check(space, n)

    def test_empty_space(self):
        for n in range(1, 5):
            assert enhanced_character(GradedSpace([]), n).is_zero()


class TestSignedTensorOracle:
    """First-principles check of the trace products.

    Materializes the graded permutation action on small tensor powers,
    with the Koszul sign on each transposed pair of odd factors, and
    takes traces basis vector by basis vector.  Shares no code with the
    cycle-indexed product formula.
    """

    @staticmethod
    def character_by_tensor_trace(space, n):
        from itertools import permutations, product as iproduct
        from math import factorial

        basis = []  # (degree, eigenvalue) per basis vector
        for s in space:
            basis.extend([(s.deg, s.eig)] * s.dim)
        terms = {}
        for sigma in permutations(range(n)):
            trace = RatFunc(0)
            for tup in iproduct(range(len(basis)), repeat=n):
                # permuting factors fixes the basis tuple, or contributes 0
                if any(tup[sigma[k]] != tup[k] for k in range(n)):
                    continue
                sign = 1
                for k in range(n):
                    for l in range(k + 1, n):
                        if sigma[k] > sigma[l]:
                            if basis[tup[k]][0] % 2 and basis[tup[l]][0] % 2:
                                sign = -sign
                total_deg = sum(basis[b][0] for b in tup)
                weight = F(1)
                for b in tup:
                    weight *= basis[b][1]
                mono = Poly.monomial(total_deg, (-1) ** total_deg * sign * weight)
                trace = trace + RatFunc(mono)
            lam = TestSignedTensorOracle.cycle_type(sigma)
            terms[lam] = terms.get(lam, RatFunc(0)) + trace
        out = {}
        for lam, tr in terms.items():
            # each cycle type was hit n!/z times; dividing by n! leaves 1/z
            coeff = tr * F(1, factorial(n))
            if coeff:
                out[lam] = coeff
        return SymFunc(n, out)

    @staticmethod
    def cycle_type(sigma):
        seen = [False] * len(sigma)
        lengths = []
        for start in range(len(sigma)):
            if seen[start]:
                continue
            length = 0
            k = start
            while not seen[k]:
                seen[k] = True
                k = sigma[k]
                length += 1
            lengths.append(length)
        return P(sorted(lengths, reverse=True))

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_matches_trace_product_route(self, n):
        rng = random.Random(19)
        spaces = [
            GradedSpace([Stratum(0, 1)]),
            TORUS,
            PROJ,
            GradedSpace([Stratum(0, 1, F(1)), Stratum(1, 2, F(1, 2))]),
            GradedSpace([Stratum(1, 1, F(2)), Stratum(2, 1, F(1, 3))]),
        ]
        spaces += [
            GradedSpace(
                [
                    Stratum(rng.randint(0, 2), rng.randint(1, 2), F(rng.randint(1, 3)))
                    for _ in range(rng.randint(1, 2))
                ]
            )
            for _ in range(3)
        ]
        for space in spaces:
            expected = self.character_by_tensor_trace(space, n)
            assert enhanced_character(space, n) == expected, (space, n)


class TestSeriesRoute:
    def test_point_gives_complete_homogeneous(self):
        series = enhanced_character_series(AFFINE, 4)
        for n in range(5):
            assert series[n] == from_h(P((n,)) if n else P(()))

    def test_empty_space(self):
        series = enhanced_character_series(GradedSpace([]), 3)
        assert series[0] == SymFunc.unit()
        assert all(series[n].is_zero() for n in range(1, 4))

    def test_torus_matches_direct_route(self):
        series = enhanced_character_series(TORUS, 3)
        for n in range(4):
            assert series[n] == enhanced_character(TORUS, n)

    def test_random_spaces_agree(self):
        rng = random.Random(77)
        for _ in range(5):
            space = random_space(rng)
            series = enhanced_character_series(space, 5)
            for n in range(6):
                assert series[n] == enhanced_character(space, n)


def flag_character_by_schur_sum(n: int) -> SymFunc:
    """sum over lam of flag_schur_coefficient(n, lam)(u^2) * s_lam; oracle only."""
    acc = SymFunc.zero(n)
    for lam in partitions_of(n):
        coeff = flag_schur_coefficient(n, lam).subst_power(2)
        acc = acc + SymFunc.schur(lam).scale(coeff)
    return acc


class TestFlagCharacter:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_closed_form_matches_schur_sum(self, n):
        assert flag_character(n) == flag_character_by_schur_sum(n)

    def test_identity_coefficient_is_the_q_factorial(self):
        # at cycle type 1^n the trace is (q;q)_n / (1 - q)^n = [n]_q!
        for n in range(1, 8):
            lam = P((1,) * n)
            qfact = ONE
            for i in range(1, n + 1):
                qfact = qfact * Poly([1] * i).subst_power(2)
            assert flag_character(n).coeff(lam) * lam.centralizer_order() == qfact

    def test_rank_two(self):
        assert flag_character(2).render_schur() == "s[2] + u^2*s[1,1]"

    def test_regular_representation_at_one(self):
        for n in range(1, 6):
            for lam, coeff in flag_character(n).to_schur().items():
                assert coeff.evaluate(1) == lam.dimension()

    def test_sign_column(self):
        for n in range(1, 7):
            expected = Poly.monomial(n * (n - 1) // 2)
            assert flag_schur_coefficient(n, P((1,) * n)) == expected

    def test_coefficients_have_nonnegative_integers(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                poly = flag_schur_coefficient(n, lam)
                assert all(c.denominator == 1 and c >= 0 for c in poly.coeffs)

    def test_rank_must_match_the_partition(self):
        with pytest.raises(ValueError, match="not a partition of 4"):
            flag_schur_coefficient(4, P((2, 1)))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_hook_formula_matches_the_table_route(self, n):
        hooks = {lam: flag_schur_coefficient(n, lam).subst_power(2) for lam in partitions_of(n)}
        assert hooks == flag_character(n).to_schur()


class TestPoincare:
    def test_affine_is_trivial(self):
        for n in range(1, 9):
            assert poincare(AFFINE, n, "cn") == RatFunc(1)

    def test_torus_matches_general_linear_group(self):
        expected = Poly.constant(1)
        for n in range(1, 7):
            expected = expected * (ONE - Poly.monomial(2 * n - 1))
            assert poincare(TORUS, n, "cn") == RatFunc(expected)

    def test_rank_one_returns_input(self):
        rng = random.Random(41)
        for _ in range(5):
            space = random_space(rng)
            assert poincare(space, 1, "cn") == RatFunc(space.poincare_poly())

    def test_flag_and_bgln(self):
        assert poincare(None, 3, "flag") == RatFunc((ONE + U**2) * (ONE + U**2 + U**4))
        assert poincare(None, 2, "bgln") == RatFunc(1, q_pochhammer(2, power=2))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_flag_is_the_q_factorial_at_u_squared(self, n):
        qfact = ONE
        for i in range(1, n + 1):
            qfact = qfact * Poly([1] * i).subst_power(2)
        assert poincare(None, n, "flag") == RatFunc(qfact)

    def test_sn_equals_cn(self):
        assert poincare(PROJ, 3, "sn") == poincare(PROJ, 3, "cn")

    @pytest.mark.parametrize("n", range(1, 5))
    def test_coh_ratio(self, n):
        phi = RatFunc(q_pochhammer(n, power=2))
        for space in (TORUS, PROJ, AFFINE):
            assert poincare(space, n, "coh") * phi == poincare(space, n, "cn")

    def test_integer_coefficients(self):
        rng = random.Random(4)
        for _ in range(4):
            space = random_space(rng)
            for n in range(1, 5):
                poly = poincare(space, n, "cn").as_poly()
                assert all(c.denominator == 1 for c in poly.coeffs), (space, n)

    def test_eigenvalues_are_ignored(self):
        twisted = GradedSpace([Stratum(0, 1, F(1, 2)), Stratum(1, 1, F(2))])
        plain = GradedSpace([Stratum(0, 1), Stratum(1, 1)])
        for n in range(1, 4):
            assert poincare(twisted, n, "cn") == poincare(plain, n, "cn")

    def test_unknown_space_rejected(self):
        with pytest.raises(ValueError, match="unknown space"):
            poincare(TORUS, 2, "nope")

    def test_matrices_avoiding_two_eigenvalues(self):
        # rank 2, spectrum disjoint from {0,1}; expanded by hand from
        # (q;q)_2 at u^2 times the specialized character of the input
        # with Betti numbers (1, 2)
        avoiding = GradedSpace([Stratum(0, 1), Stratum(1, 2)])
        assert poincare(avoiding, 2, "cn") == RatFunc(Poly([1, -2, 1, -2, 3]))

    def test_hermitian_reuse(self):
        # real points of the affine line deformation-retract to a point
        real_point = GradedSpace([Stratum(0, 1)])
        for n in range(1, 5):
            assert poincare(real_point, n, "cn") == RatFunc(1)
        # a circle has the Betti numbers of the torus column
        circle = GradedSpace([Stratum(0, 1), Stratum(1, 1)])
        for n in range(1, 5):
            assert poincare(circle, n, "cn") == poincare(TORUS, n, "cn")


def poincare_by_character_sum(space, n):
    """(u^2; u^2)_n times the principal specialization of the character; oracle only."""
    ch = enhanced_character(space.with_unit_eigenvalues(), n)
    return ch.principal_spec_numerator(power=2)


RANK_NAMES = ("point", "affine", "torus", "p1", "punctured")
RANK_SEEDS = (11, 12, 13, 14)
RANK_SPACES = [builtin_space(name) for name in RANK_NAMES]
RANK_SPACES += [random_space(random.Random(seed)) for seed in RANK_SEEDS]
RANK_IDS = list(RANK_NAMES) + [f"random{seed}" for seed in RANK_SEEDS]


class TestRankNumerators:
    """The partition-free rank recurrence against the character-sum route."""

    @pytest.mark.parametrize("space", RANK_SPACES, ids=RANK_IDS)
    def test_matches_character_sum(self, space):
        ranks = rank_numerators(space, 10)
        for n in range(11):
            assert Poly(ranks[n]) == poincare_by_character_sum(space, n), (space, n)
            assert poincare(space, n, "cn") == RatFunc(Poly(ranks[n]))

    @pytest.mark.parametrize("space", RANK_SPACES, ids=RANK_IDS)
    def test_coh_matches_character_sum(self, space):
        for n in range(11):
            expected = RatFunc(poincare_by_character_sum(space, n), q_pochhammer(n, power=2))
            assert poincare(space, n, "coh") == expected, (space, n)

    @pytest.mark.parametrize("space", RANK_SPACES, ids=RANK_IDS)
    def test_truncated_ranks_are_the_full_ranks_cut(self, space):
        full = rank_numerators(space, 9)
        for top in range(15):
            cut = rank_numerators(space, 9, top=top)
            assert [Poly(r) for r in cut] == [Poly(r).truncate(top) for r in full], (space, top)

    def test_coefficients_are_plain_ints(self):
        ranks = rank_numerators(builtin_space("torus", dim=2), 6)
        assert all(type(c) is int for rank in ranks for c in rank)
        assert all(rank[-1] for rank in ranks)

    def test_empty_space_has_zero_ranks(self):
        assert rank_numerators(GradedSpace([]), 4) == [[1], [], [], [], []]
        assert poincare(GradedSpace([]), 3, "coh") == RatFunc(0)

    def test_division_by_n_is_checked(self):
        # w_1 = 1 and w_k = 0 otherwise: N_2 = (1 + u^2) / 2 is not integral
        weights = [[(0, 1)], []]
        assert charmodel._rank_recurrence(weights, 1) == [[1], [1]]
        with pytest.raises(ValueError, match="division by 2 left a remainder"):
            charmodel._rank_recurrence(weights, 2)
        with pytest.raises(ValueError, match="division by 2 left a remainder"):
            charmodel._rank_recurrence(weights, 2, top=4)

    @pytest.mark.parametrize("N, top", [(12, None), (20, None), (14, 14), (30, 7)])
    def test_factor_passes_are_quadratic(self, monkeypatch, N, top):
        # running products take each factor 1 - u^(2n) once per rank; one
        # product per (n, k) would make about N^3 / 6 passes
        expected = rank_numerators(PROJ, N, top)
        calls = []
        kernel = charmodel.mul_one_minus
        monkeypatch.setattr(
            charmodel, "mul_one_minus", lambda *args: calls.append(args) or kernel(*args)
        )
        weights = [[(0, 1), (2 * k, 1)] for k in range(1, N + 1)]
        assert charmodel._rank_recurrence(weights, N, top) == expected
        assert 0 < len(calls) <= N * (N + 1) // 2

    @pytest.mark.parametrize("top", [None, 0, 5, 12])
    def test_step_two_is_step_one_at_even_degrees(self, top):
        # with every weight at degree 0, the pass in x = u^2 is the pass
        # in x = u with the coefficient of u^d moved to u^(2d)
        rng = random.Random(1618)
        N = 6
        for _ in range(10):
            roots = [(rng.randint(-3, 3), rng.choice((-2, -1, 1, 2))) for _ in range(3)]
            sums = [sum(c * a**k for a, c in roots) for k in range(1, N + 1)]
            weights = [[(0, w)] if w else [] for w in sums]
            one = charmodel._rank_recurrence(weights, N, None if top is None else top // 2, 1)
            two = charmodel._rank_recurrence(weights, N, top, 2)
            spread = []
            for v in one:
                even = [0] * (2 * len(v) - 1) if v else []
                even[::2] = v
                spread.append(even)
            assert two == spread, (roots, top)

    def test_rejects_negative_orders(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            rank_numerators(TORUS, -1)
        with pytest.raises(ValueError, match="u order must be >= 0"):
            rank_numerators(TORUS, 2, top=-1)


def fermionic_side(space, n):
    """<enhanced_character(X, n), flag character>, from the Schur expansion.

    The Schur coefficient of the flag character at lam is the fake
    degree q^n(lam) (q;q)_n / prod over hooks (1 - q^h) at q = u^2.
    """
    acc = Poly()
    for lam, coeff in enhanced_character(space.with_unit_eigenvalues(), n).to_schur().items():
        hooks = ONE
        for h in lam.hook_lengths():
            hooks = hooks * (ONE - Poly.monomial(h))
        fake, rem = divmod(Poly.monomial(lam.weighted_row_sum()) * q_pochhammer(n), hooks)
        assert not rem
        acc = acc + coeff * fake.subst_power(2)
    return acc


class TestBosonFermion:
    """The main theorem: both Poincare routes equal the flag pairing."""

    @pytest.mark.parametrize("space", BUILTINS + RANK_SPACES[len(RANK_NAMES) :])
    def test_flag_pairing_equals_poincare(self, space):
        for n in range(1, 8):
            expected = RatFunc(fermionic_side(space, n))
            assert poincare(space, n, "sn") == expected, (space, n)
            assert poincare(space, n, "cn") == expected, (space, n)


class TestLowestTerms:
    """Every rational value ``poincare`` builds is in lowest terms.

    ``RatFunc`` runs no gcd, so its producers must reduce.  ``poly_gcd``
    is the oracle.  A coh denominator divides (u^2; u^2)_n, whose
    irreducible factors over Q are the cyclotomic Phi_d with d <= 2n,
    so num and den are coprime exactly when no Phi_d has a nontrivial
    gcd with both.  The full Euclid on the degree-420 pair at n = 20
    would take seconds per value.
    """

    @pytest.mark.parametrize("space", BUILTINS + RANK_SPACES[len(RANK_NAMES) :])
    def test_coh(self, space):
        for n in range(21):
            value = poincare(space, n, "coh")
            _, rem = divmod(q_pochhammer(n, power=2), value.den)
            assert not rem, (space, n)
            for d in range(1, 2 * n + 1):
                phi = Poly(cyclotomic_coeffs(d))
                if poly_gcd(value.num, phi).degree() > 0:
                    assert poly_gcd(value.den, phi).degree() == 0, (space, n, d)

    def test_bgln(self):
        for n in range(1, 21):
            value = poincare(None, n, "bgln")
            assert poly_gcd(value.num, value.den) == ONE


def point_count_by_character_sum(space, n, q):
    """q^(n^2) times the principal specialization numerator at 1/q of the
    character at u = 1, summed over the partitions of n; oracle only."""
    character = enhanced_character(space.resolve(q), n)
    at_one = SymFunc(n, {lam: c.evaluate(1) for lam, c in character.terms.items()})
    return q ** (n * n) * at_one.principal_spec_numerator().evaluate(F(1, q))


POINT_EIGS = (F(1), F(1, 2), F(1, 3), F(2), QPower(-1), QPower(1), QPower(-2))
POINT_SPACES = [builtin_space(name) for name in ("point", "affine", "torus", "punctured", "p1")]
POINT_SPACES += [
    builtin_space("torus", dim=2),
    builtin_space("affine", dim=3),
    builtin_space("punctured", avoided=(0, 1, 2)),
]
POINT_IDS = ["point", "affine", "torus", "punctured", "p1", "torus2", "affine3", "punctured012"]
POINT_SPACES += [random_space(random.Random(seed), POINT_EIGS) for seed in range(40)]
POINT_IDS += [f"random{seed}" for seed in range(40)]


class TestPointCount:
    @pytest.mark.parametrize("space", POINT_SPACES, ids=POINT_IDS)
    def test_matches_character_sum(self, space):
        for q in (2, 3, 4, 5, 7, 9):
            counts = point_counts(space, 5, q)
            assert counts[0] == 1
            for n in range(1, 6):
                expected = point_count_by_character_sum(space, n, q)
                assert counts[n] == expected, (space, q, n)
                assert point_count(space, n, q) == expected, (space, q, n)

    def test_weight_conversion_is_checked(self, monkeypatch):
        # w_2 = 1/2 with all eigenvalues 1, so D = 1 and D^2 w_2 is not an integer
        monkeypatch.setattr(
            charmodel, "eigen_power_sum", lambda space, k: Poly.constant(F(1, k))
        )
        assert point_counts(AFFINE, 1, 2) == [1, 2]
        with pytest.raises(ValueError, match="w_2") as info:
            point_count(AFFINE, 2, 2)
        assert "\n" not in str(info.value)

    def test_affine_line_full_matrix_space(self):
        space = GradedSpace([Stratum(0, 1, F(1))])
        assert point_count(space, 2, 2) == 16
        assert point_count(space, 3, 3) == 3**9

    def test_torus_counts_invertibles(self):
        space = GradedSpace([Stratum(0, 1, F(1)), Stratum(1, 1, QPower(-1))])
        assert point_count(space, 2, 2) == 6
        assert point_count(space, 3, 2) == 168

    def test_twice_punctured_line_over_f2(self):
        space = GradedSpace([Stratum(0, 1, F(1)), Stratum(1, 2, QPower(-1))])
        assert point_count(space, 1, 2) == 0
        assert point_count(space, 1, 3) == 1

    def test_rejects_non_prime_power(self):
        space = GradedSpace([Stratum(0, 1, F(1))])
        with pytest.raises(ValueError, match="prime power"):
            point_count(space, 2, 6)


# eigenvalue text -> its value, or None where it is rejected.  The table
# holds on every Python version: Fraction takes whitespace around "/"
# from 3.12 on and "_" from 3.11 on, and parse_eigenvalue rejects both.
EIGENVALUE_GRAMMAR = {
    "1/2": F(1, 2),
    " 1/2 ": F(1, 2),
    "\t-3/6\n": F(-1, 2),
    "+3": F(3),
    "007": F(7),
    "1.5": F(3, 2),
    ".5": F(1, 2),
    "5.": F(5),
    "-2.5e-1": F(-1, 4),
    "1E3": F(1000),
    "\u0663/\u0664": F(3, 4),
    "q^-1": QPower(-1),
    "q^0": QPower(0),
    "1 / 2": None,
    "1/ 2": None,
    "1 /2": None,
    "1\u00a0/2": None,
    "- 1": None,
    "1 .5": None,
    "1e 3": None,
    "q^ 1": None,
    "q^+1": None,
    "1_000": None,
    "": None,
    "1/0": None,
    "1/-2": None,
    "1.5/2": None,
    "0x10": None,
    "inf": None,
    "nan": None,
}


def fraction_oracle(text):
    """What the eigenvalue grammar reads ``text`` as, by Fraction and one
    pattern for q^k (test oracle only), or None where neither reads it."""
    inner = text.strip()
    m = re.fullmatch(r"q\^(-?\d+)", inner)
    if m:
        return QPower(int(m[1]))
    try:
        return F(inner)
    except (ValueError, ZeroDivisionError):
        return None


def exponent_above_cap(text):
    m = re.fullmatch(r"q\^(-?\d+)|[-+]?(?:\d+\.?\d*|\.\d+)[eE]([-+]?\d+)", text.strip())
    return bool(m) and abs(int(m[1] or m[2])) > charmodel.MAX_DEG


def eigenvalue_corpus(count, seed):
    """Seeded strings over digits (one of them non-ASCII), signs, point,
    e, E, slash, q^, underscore and space, digits drawn most often."""
    rng = random.Random(seed)
    tokens = list("0123456789") + ["\u0663"] + list("+-.eE/") + ["q^", "_", " "]
    weights = [6] * 11 + [3, 3, 3, 2, 2, 3, 2, 1, 1]
    return [
        "".join(rng.choices(tokens, weights, k=rng.randint(1, 8))) for _ in range(count)
    ]


class TestEigenvalueParserAgainstFraction:
    """``parse_eigenvalue`` reads into ints; Fraction is the oracle here only."""

    CORPUS = eigenvalue_corpus(12000, 20261019)

    def test_corpus_reaches_every_branch(self):
        values = [fraction_oracle(text) for text in self.CORPUS]
        assert sum(isinstance(v, QPower) for v in values) >= 50
        assert sum(v is not None and "/" in t for v, t in zip(values, self.CORPUS)) >= 200
        assert sum(v is not None and "e" in t.lower() for v, t in zip(values, self.CORPUS)) >= 200
        assert sum(v is not None and "\u0663" in t for v, t in zip(values, self.CORPUS)) >= 200

    def test_values_agree_and_rejections_are_the_documented_ones(self):
        for text in self.CORPUS:
            expected = fraction_oracle(text)
            try:
                got = parse_eigenvalue(text)
            except ValueError as exc:
                inner = text.strip()
                if exponent_above_cap(text) and not re.search(r"[\s_]", inner):
                    assert str(exc).startswith(f"the exponent of {inner!r} must be at most"), text
                else:
                    assert str(exc) == f"cannot parse eigenvalue {text!r}", text
                    extra = "_" in inner or re.search(r"\s", inner) or exponent_above_cap(text)
                    assert expected is None or extra, text
                continue
            assert expected is not None, text
            assert got == expected, text
            if not isinstance(got, QPower):
                # a rational eigenvalue is a constant Poly over ints
                assert isinstance(got, Poly) and got.degree() <= 0, text


class TestDescriptors:
    def test_parse_eigenvalues(self):
        assert parse_eigenvalue("1/2") == F(1, 2)
        assert parse_eigenvalue(3) == F(3)
        assert parse_eigenvalue("q^-2") == QPower(-2)
        with pytest.raises(ValueError):
            parse_eigenvalue("zebra")

    def test_round_trip(self, tmp_path):
        payload = {
            "name": "twice punctured line",
            "strata": [
                {"deg": 0, "dim": 1, "eigenvalue": "1"},
                {"deg": 1, "dim": 2, "eigenvalue": "q^-1"},
            ],
        }
        path = tmp_path / "variety.json"
        path.write_text(json.dumps(payload))
        space = load_descriptor(str(path))
        assert space.name == "twice punctured line"
        assert space == (
            Stratum(0, 1, F(1)),
            Stratum(1, 2, QPower(-1)),
        )

    def test_missing_field_names_the_stratum(self):
        with pytest.raises(DescriptorError, match=r"strata\[1\].*'deg'"):
            parse_descriptor({"strata": [{"deg": 0}, {"dim": 2}]})

    def test_bad_eigenvalue_names_the_field(self):
        with pytest.raises(DescriptorError, match="eigenvalue"):
            parse_descriptor({"strata": [{"deg": 0, "eigenvalue": "??"}]})

    @pytest.mark.parametrize("field", ["deg", "dim"])
    @pytest.mark.parametrize("value", [True, False, 1.7, 1.0, "2", None])
    def test_deg_and_dim_must_be_json_integers(self, field, value):
        entry = {"deg": 1, "dim": 1, field: value}
        with pytest.raises(DescriptorError, match=rf"strata\[1\]: field '{field}' must be an integer"):
            parse_descriptor({"strata": [{"deg": 0, "dim": 1}, entry]})

    def test_degree_is_capped(self):
        parse_descriptor({"strata": [{"deg": 0}, {"deg": charmodel.MAX_DEG}]})
        message = rf"^<descriptor>: strata\[1\]: field 'deg' must be <= {charmodel.MAX_DEG}$"
        with pytest.raises(DescriptorError, match=message):
            parse_descriptor({"strata": [{"deg": 0}, {"deg": charmodel.MAX_DEG + 1}]})

    def test_eigenvalue_exponent_is_capped(self):
        cap = charmodel.MAX_DEG
        assert parse_eigenvalue(f"q^-{cap}") == QPower(-cap)
        assert parse_eigenvalue(f"q^{cap}") == QPower(cap)
        for k in (cap + 1, -cap - 1, -50000000):
            message = (
                rf"^<descriptor>: strata\[1\]: field 'eigenvalue': the exponent of "
                rf"'q\^{k}' must be at most {cap} in absolute value$"
            )
            with pytest.raises(DescriptorError, match=message):
                parse_descriptor({"strata": [{"deg": 0}, {"deg": 1, "eigenvalue": f"q^{k}"}]})

    def test_decimal_exponent_is_capped(self):
        # Fraction("1e100000000") builds 10^100000000, which took more than 20 s
        cap = charmodel.MAX_DEG
        assert parse_eigenvalue(f"1e-{cap}") == F(1, 10**cap)
        assert parse_eigenvalue(f" 2.5E+{cap} ") == F(25 * 10 ** (cap - 1))
        assert parse_eigenvalue(".5e0001") == F(5)
        for text in (f"1e{cap + 1}", "1e100000000", "-.5E-100000000", "7.e" + "9" * 5000):
            message = (
                rf"^<descriptor>: strata\[1\]: field 'eigenvalue': the exponent of "
                rf"{re.escape(repr(text))} must be at most {cap} in absolute value$"
            )
            with pytest.raises(DescriptorError, match=message):
                parse_descriptor({"strata": [{"deg": 0}, {"deg": 1, "eigenvalue": text}]})

    def test_huge_q_exponent_names_the_eigenvalue(self):
        text = "q^-" + "9" * 5000
        with pytest.raises(ValueError, match=rf"^the exponent of {re.escape(repr(text))} must be at most"):
            parse_eigenvalue(text)

    @pytest.mark.parametrize("text", ["1_000", "1_0/3", "1/1_0", "1.5_0", "1e1_0", "q^1_0"])
    def test_underscores_are_rejected_on_every_version(self, text):
        # Fraction takes PEP 515 underscores from Python 3.11 on, not on 3.10
        with pytest.raises(ValueError, match=rf"^cannot parse eigenvalue {re.escape(repr(text))}$"):
            parse_eigenvalue(text)

    def test_builtin_dimension_is_capped(self):
        cap = charmodel.MAX_DEG
        assert builtin_space("affine", dim=cap) == (Stratum(0, 1, QPower(cap - 1)),)
        assert len(builtin_space("torus", dim=cap)) == cap + 1
        for name in ("affine", "torus"):
            with pytest.raises(ValueError, match=rf"^{name} dimension must be <= {cap}$"):
                builtin_space(name, dim=cap + 1)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "strata": [\n')
        with pytest.raises(DescriptorError, match="line 3"):
            load_descriptor(str(path))

    def test_top_level_must_be_object(self):
        with pytest.raises(DescriptorError, match="top level"):
            parse_descriptor([1, 2])

    @pytest.mark.parametrize("text", EIGENVALUE_GRAMMAR)
    def test_eigenvalue_grammar(self, text):
        expected = EIGENVALUE_GRAMMAR[text]
        if expected is not None:
            assert parse_eigenvalue(text) == expected
        else:
            with pytest.raises(ValueError, match=rf"^cannot parse eigenvalue {re.escape(repr(text))}$"):
                parse_eigenvalue(text)

    @pytest.mark.parametrize("value", [True, False])
    def test_booleans_are_not_eigenvalues(self, value):
        # bool is a subclass of int; deg and dim reject it too
        message = rf"^<descriptor>: strata\[0\]: field 'eigenvalue': cannot parse eigenvalue {value}$"
        with pytest.raises(DescriptorError, match=message):
            parse_descriptor({"strata": [{"deg": 0, "eigenvalue": value}]})

    @pytest.mark.parametrize(
        "descriptor, message",
        [
            (
                {"strata": [{"deg": 0, "eigenvalues": "1/2", "dimension": 3}]},
                "strata[0]: unknown field 'eigenvalues'; expected one of ['deg', 'dim', 'eigenvalue']",
            ),
            (
                {"strata": [{"deg": 0}, {"deg": 1, "Dim": 2}]},
                "strata[1]: unknown field 'Dim'; expected one of ['deg', 'dim', 'eigenvalue']",
            ),
            (
                {"name": "x", "strata": [{"deg": 0}], "stratum": []},
                "unknown field 'stratum'; expected one of ['name', 'strata']",
            ),
        ],
        ids=["stratum", "second-stratum", "top-level"],
    )
    def test_unknown_fields_are_rejected(self, descriptor, message):
        with pytest.raises(DescriptorError, match=f"^{re.escape('<descriptor>: ' + message)}$"):
            parse_descriptor(descriptor)

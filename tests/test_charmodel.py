"""Character-level formulas: traces, enhanced characters, Poincare values."""

import json
import random
from fractions import Fraction as F

import pytest

from commvar.arith import Poly, RatFunc
from commvar.charmodel import (
    DescriptorError,
    GradedSpace,
    QPower,
    Stratum,
    enhanced_character,
    enhanced_character_series,
    flag_character,
    flag_schur_coefficient,
    graded_trace_product,
    load_descriptor,
    parse_descriptor,
    parse_eigenvalue,
    point_count,
    poincare,
)
from commvar.partitions import Partition, partitions_of
from commvar.symfunc import SymFunc, q_pochhammer

P = Partition
U = Poly.monomial(1)
ONE = Poly.constant(1)

AFFINE = GradedSpace([Stratum(0, 1)], name="affine line")
TORUS = GradedSpace([Stratum(0, 1), Stratum(1, 1)], name="torus")
PROJ = GradedSpace([Stratum(0, 1), Stratum(2, 1)], name="projective line")


def random_space(rng):
    eigs = (F(1), F(1, 2), F(1, 3), F(2))
    return GradedSpace(
        [
            Stratum(rng.randint(0, 4), rng.randint(1, 3), rng.choice(eigs))
            for _ in range(rng.randint(1, 4))
        ]
    )


class TestGradedSpace:
    def test_merges_repeated_strata(self):
        space = GradedSpace([Stratum(1, 2), Stratum(0, 1), Stratum(1, 3)])
        assert space.strata == (Stratum(0, 1), Stratum(1, 5))

    def test_betti_default_eigenvalue(self):
        space = GradedSpace.from_betti([(0, 1), (1, 2)])
        assert all(s.eig == 1 for s in space.strata)

    def test_poincare_poly_signs(self):
        assert TORUS.poincare_poly() == ONE - U
        assert PROJ.poincare_poly() == ONE + U**2

    def test_resolve_tokens(self):
        space = GradedSpace([Stratum(1, 1, QPower(-1))])
        assert space.resolve(3).strata[0].eig == F(1, 3)
        with pytest.raises(ValueError, match="q\\^k"):
            graded_trace_product(space, P((1,)))

    def test_rejects_bad_strata(self):
        with pytest.raises(ValueError):
            GradedSpace([Stratum(-1, 1)])
        with pytest.raises(ValueError):
            GradedSpace([Stratum(0, 0)])


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
            expected = RatFunc(space.poincare_poly()) ** n
            # eigenvalues do matter for the trace; reset them first
            betti_only = space.with_unit_eigenvalues()
            assert graded_trace_product(betti_only, P((1,) * n)) == expected


class TestEnhancedCharacter:
    def test_affine_line_gives_trivial_character(self):
        for n in range(6):
            expected = SymFunc.from_h(P((n,)) if n else P(()))
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
                assert got == RatFunc(space.poincare_poly()) ** n


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
        for s in space.strata:
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
            assert series[n] == SymFunc.from_h(P((n,)) if n else P(()))

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


class TestFlagCharacter:
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
        circle = GradedSpace.from_betti([(0, 1), (1, 1)])
        for n in range(1, 5):
            assert poincare(circle, n, "cn") == poincare(TORUS, n, "cn")


class TestPointCount:
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
        assert space.strata == (
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

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "strata": [\n')
        with pytest.raises(DescriptorError, match="line 3"):
            load_descriptor(str(path))

    def test_top_level_must_be_object(self):
        with pytest.raises(DescriptorError, match="top level"):
            parse_descriptor([1, 2])

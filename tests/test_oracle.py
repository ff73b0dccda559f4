"""Brute-force enumerator: exact counts, budget handling, cross-checks."""

import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from math import isqrt
from pathlib import Path

import pytest

from commvar import oracle
from commvar.charmodel import point_counts
from commvar.oracle import (
    DEFAULT_BUDGET,
    AffineSpace,
    BudgetExceededError,
    PuncturedLine,
    Torus,
    _commutator_equations,
    _grow,
    _nullspace,
    _rows_off_planes,
    _solutions,
    commute,
    count_points,
    det_mod,
    gl_order,
    is_prime,
    prime_power_base,
    search_space_size,
)
from commvar.varieties import eigendata_for_family
from commvar.verify import cross_check

SRC = Path(__file__).resolve().parent.parent / "src"


def invertible_count_by_hand(n, p):
    # independent route: enumerate and rank-check via determinant
    total = 0
    for entries in product(range(p), repeat=n * n):
        mat = tuple(entries[i * n : (i + 1) * n] for i in range(n))
        if det_mod(mat, p) != 0:
            total += 1
    return total


def count_by_exhaustion(family, n, p):
    # independent route: every tuple of n x n matrices, each checked
    # with the family's matrix_ok and pairwise commute
    matrices = [
        tuple(entries[i * n : (i + 1) * n] for i in range(n))
        for entries in product(range(p), repeat=n * n)
    ]

    def extend(chosen, depth):
        if depth == family.tuple_len:
            return 1
        total = 0
        for mat in matrices:
            if not family.matrix_ok(mat, p):
                continue
            if any(not commute(prev, mat, p) for prev in chosen):
                continue
            total += extend(chosen + (mat,), depth + 1)
        return total

    return extend((), 0)


EXHAUSTION_LIMIT = 3**8


def coset(start, vectors, p):
    # every vector of start + span(vectors) over F_p, each once if the
    # vectors are linearly independent
    if not vectors:
        yield start
        return
    head, rest = vectors[0], vectors[1:]
    for tail in coset(start, rest, p):
        for c in range(p):
            yield tuple((t + c * h) % p for t, h in zip(tail, head))


def avoiding_matrices(n, p, shifts):
    # every n x n matrix M with M - a*I invertible for each shift a, built
    # row by row: row i is forbidden if it lies in a*e_i + span(rows of
    # M - a*I so far), and every allowed row is visited, the last included
    rows = list(product(range(p), repeat=n))

    def extend(prefix):
        i = len(prefix)
        forbidden = set()
        for a in shifts:
            shifted = [
                tuple((x - a * (j == k)) % p for j, x in enumerate(row))
                for k, row in enumerate(prefix)
            ]
            start = tuple(a * (j == i) for j in range(n))
            forbidden.update(coset(start, shifted, p))
        for row in rows:
            if row not in forbidden:
                if i + 1 == n:
                    yield prefix + (row,)
                else:
                    yield from extend(prefix + (row,))

    return extend(())


def count_by_centralizer_walk(family, n, p):
    # independent of the subtree memo and of the last-row count: every
    # point is visited once, the first matrix from avoiding_matrices and
    # each later one from the common centralizer of the earlier ones
    def extend(mat, equations, depth):
        if depth == family.tuple_len:
            return 1
        for eq in _commutator_equations(mat, p):
            grown = _grow(equations, eq, p)
            if grown is not None:
                equations = grown
        total = 0
        for x in coset((0,) * (n * n), _nullspace(equations, n * n, p), p):
            nxt = tuple(x[i * n : (i + 1) * n] for i in range(n))
            if family.matrix_ok(nxt, p):
                total += extend(nxt, equations, depth + 1)
        return total

    return sum(extend(mat, (), 1) for mat in avoiding_matrices(n, p, family.shifts(p)))


def centralizer_walk_grid():
    # the cases beyond exhaustion: dim 2-3 at n = 2, dim 2 at n = 3, and
    # the punctured line at n = 3
    cases = [(family, 2, p) for dim in (2, 3) for family in (AffineSpace(dim), Torus(dim)) for p in (2, 3, 5)]
    cases += [(family, 3, 2) for family in (AffineSpace(2), Torus(2))]
    cases += [(PuncturedLine(avoided), 3, 3) for avoided in ((0,), (2,), (0, 1), (1, 2), (0, 1, 2))]
    for family, n, p in cases:
        if search_space_size(family, n, p) > EXHAUSTION_LIMIT:
            yield pytest.param(family, n, p, id=f"{family.describe()}-n{n}-p{p}")


def exhaustion_grid():
    families = [AffineSpace(d) for d in (1, 2, 3)] + [Torus(d) for d in (1, 2, 3)]
    families += [
        PuncturedLine(avoided)
        for avoided in ((0,), (3,), (0, 1), (1, 2), (2, 5), (0, 1, 2), (1, 3, 6))
    ]
    for family in families:
        for p in (2, 3, 5, 7):
            if isinstance(family, PuncturedLine):
                if len({a % p for a in family.avoided}) < len(family.avoided):
                    continue
            for n in (1, 2, 3):
                if search_space_size(family, n, p) <= EXHAUSTION_LIMIT:
                    yield pytest.param(family, n, p, id=f"{family.describe()}-n{n}-p{p}")


def budget_grid():
    # every prime q <= 13 and rank n whose nominal search q^(n^2) the
    # default budget admits
    return [
        (n, q) for n in range(1, 6) for q in (2, 3, 5, 7, 11, 13) if q ** (n * n) <= DEFAULT_BUDGET
    ]


def shift_set_grid():
    # every subset of F_p as the shift set, the empty set and all of F_p
    # included: n <= 3 for p = 2, 3 and n = 1 for p = 5, 7
    for p in (2, 3, 5, 7):
        for n in (1, 2, 3) if p <= 3 else (1,):
            for k in range(p + 1):
                for shifts in combinations(range(p), k):
                    yield pytest.param(shifts, n, p, id=f"{shifts}-n{n}-p{p}")


def rows_off_by_brute_force(planes, n, p):
    # every x in F_p^n, tested against every plane f . x = a * f[n-1]
    return sum(
        all(sum(fj * xj for fj, xj in zip(f, x)) % p != a * f[-1] % p for f, a in planes)
        for x in product(range(p), repeat=n)
    )


def random_planes(seed):
    # planes drawn from two normals, one of them 0 in its last entry, each
    # scaled and shifted at random, so that parallel, repeated and
    # inconsistent planes all turn up
    rng = random.Random(seed)
    p = rng.choice((2, 3, 5))
    n = rng.choice((2, 3, 4))

    def normal(last):
        while True:
            f = [rng.randrange(p) for _ in range(n - 1)] + [last]
            if any(f):
                return f

    pool = [normal(0), normal(rng.randrange(p))]
    planes = []
    for _ in range(rng.randrange(6)):
        c = rng.randrange(1, p)
        planes.append((tuple(c * x % p for x in rng.choice(pool)), rng.randrange(p)))
    return planes, n, p


def rank_two_affine_count(d, q):
    """Commuting d-tuples of 2 x 2 matrices over F_q.

    A tuple that is not all scalar lies in exactly one of the q^2 + q + 1
    subalgebras F_q[M], M non-scalar, each of dimension 2 and holding the
    q scalars."""
    return q**d + (q * q + q + 1) * (q ** (2 * d) - q**d)


def rank_two_torus_count(d, q):
    """Commuting d-tuples of invertible 2 x 2 matrices over F_q.

    Of the subalgebras F_q[M], q(q+1)/2 are split (F_q x F_q, (q-1)^2
    units), q(q-1)/2 are fields (F_(q^2), q^2 - 1 units) and q + 1 are
    dual numbers (q(q-1) units); each holds the q - 1 invertible scalars."""
    u = q - 1
    return (
        u**d
        + q * (q + 1) // 2 * (u ** (2 * d) - u**d)
        + q * (q - 1) // 2 * ((q * q - 1) ** d - u**d)
        + (q + 1) * ((q * (q - 1)) ** d - u**d)
    )


def rank_two_grid():
    for d in (1, 2, 3, 4):
        for q in (2, 3, 5, 7):
            for family, count in (
                (AffineSpace(d), rank_two_affine_count),
                (Torus(d), rank_two_torus_count),
            ):
                if search_space_size(family, 2, q) <= DEFAULT_BUDGET:
                    yield pytest.param(family, q, count(d, q), id=f"{family.describe()}-q{q}")


def euler_product_coefficient(n, coeff):
    """t^n coefficient of prod_{i>=1} sum_{k>=0} coeff(k) t^(ik), coeff(0) = 1."""
    series = [1] + [0] * n
    for i in range(1, n + 1):
        factor = [coeff(m // i) if m % i == 0 else 0 for m in range(n + 1)]
        series = [sum(series[a] * factor[m - a] for a in range(m + 1)) for m in range(n + 1)]
    return series[n]


def feit_fine_coefficient(n, q):
    """t^n coefficient of prod_{i>=1} prod_{j>=0} (1 - q^(1-j) t^i)^(-1), exactly.

    Uses prod_{j>=0} (1 - x q^(-j))^(-1) = sum_k x^k / prod_{m=1}^k (1 - q^(-m))
    with x = q t^i.
    """

    def coeff(k):
        out = Fraction(q) ** k
        for m in range(1, k + 1):
            out /= 1 - Fraction(1, q**m)
        return out

    return euler_product_coefficient(n, coeff)


def gl_class_number(n, q):
    """Conjugacy classes of GL_n(F_q): the t^n coefficient of
    prod_{i>=1} (1 - t^i) / (1 - q t^i) (Macdonald, "Numbers of conjugacy
    classes in some finite classical groups", Bull. Austral. Math. Soc.
    23 (1981)), where (1 - t^i) / (1 - q t^i) = 1 + sum_{k>=1} (q^k - q^(k-1)) t^(ik)."""
    return euler_product_coefficient(n, lambda k: q**k - q ** (k - 1) if k else 1)


class TestNumberTheory:
    def test_is_prime(self):
        assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
        assert is_prime(1000000007) and not is_prime(1000000007 * 3)
        assert not any(is_prime(n) for n in (-7, 0, 1, 961, 3**19))

    def test_prime_power_base(self):
        assert prime_power_base(8) == (2, 3)
        assert prime_power_base(9) == (3, 2)
        assert prime_power_base(5) == (5, 1)
        assert prime_power_base(3**19) == (3, 19)
        assert prime_power_base(1000000007) == (1000000007, 1)
        for bad in (1, 6, 12, 100, 2 * 1000000007):
            with pytest.raises(ValueError):
                prime_power_base(bad)

    def test_is_prime_matches_trial_division(self):
        def by_trial_division(n):
            return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))

        assert [n for n in range(10**5) if is_prime(n)] == [
            n for n in range(10**5) if by_trial_division(n)
        ]

    def test_perfect_powers(self):
        assert prime_power_base(2**100) == (2, 100)
        assert prime_power_base(7**11) == (7, 11)
        assert prime_power_base(65537**3) == (65537, 3)
        for bad in (6**10, 2**40 * 3, 36, 1000003 * 1000033):
            with pytest.raises(ValueError, match="not a prime power"):
                prime_power_base(bad)

    def test_large_inputs_finish(self):
        # trial division would take about 10^9 steps on each of the first
        # three; 318665857834031151167461 and 3825123056546413051 are
        # strong pseudoprimes to the prime bases up to 37 and 23, and
        # 3317044064679887385961981 to every prime base up to 41
        script = "\n".join(
            [
                "from commvar.oracle import is_prime, prime_power_base",
                "print(prime_power_base((10**9 + 7) ** 2))",
                "print(prime_power_base(10**18 + 3))",
                "print(is_prime((10**9 + 7) * (10**9 + 9)))",
                "print(is_prime(318665857834031151167461), is_prime(3825123056546413051))",
                "try:",
                "    is_prime(3317044064679887385961981)",
                "except ValueError as exc:",
                "    print(exc)",
            ]
        )
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=10
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines() == [
            "(1000000007, 2)",
            "(1000000000000000003, 1)",
            "False",
            "False False",
            "cannot decide whether 3317044064679887385961981 is prime: Miller-Rabin "
            "on the prime bases up to 41 is exact only below 3317044064679887385961981",
        ]


class TestGlOrder:
    def test_rank_one(self):
        for q in (2, 3, 4, 5):
            assert gl_order(1, q) == q - 1

    def test_rank_two_over_f2_by_enumeration(self):
        assert gl_order(2, 2) == 6
        assert invertible_count_by_hand(2, 2) == 6

    def test_rank_three_over_f2_by_enumeration(self):
        assert gl_order(3, 2) == 168
        assert invertible_count_by_hand(3, 2) == 168

    def test_rank_two_over_f3(self):
        assert gl_order(2, 3) == invertible_count_by_hand(2, 3) == 48


class TestCountPoints:
    def test_affine_line_counts_everything(self):
        assert count_points(AffineSpace(1), 2, 2) == 16
        for n, p in budget_grid():
            assert count_points(AffineSpace(1), n, p) == p ** (n * n)

    def test_torus_matches_group_order(self):
        for n, p in budget_grid():
            assert count_points(Torus(1), n, p) == gl_order(n, p)

    def test_budget_grid_reaches_the_largest_cases(self):
        grid = set(budget_grid())
        assert {(2, 13), (3, 7), (4, 3), (5, 2)} <= grid
        assert not {(3, 11), (4, 5), (5, 3), (6, 2)} & grid

    def test_punctured_line_scalars(self):
        assert count_points(PuncturedLine((0, 1)), 1, 3) == 1
        assert count_points(PuncturedLine((0, 1)), 1, 2) == 0
        assert count_points(PuncturedLine((0,)), 1, 5) == 4

    def test_commuting_pairs_regression(self):
        # frozen after first computation; matches q^6 + q^5 - q^3
        assert count_points(AffineSpace(2), 2, 2) == 88
        assert count_points(AffineSpace(2), 2, 3) == 945

    def test_monotone_in_avoided_points(self):
        base = count_points(PuncturedLine((0,)), 2, 3)
        more = count_points(PuncturedLine((0, 1)), 2, 3)
        even_more = count_points(PuncturedLine((0, 1, 2)), 2, 3)
        assert base >= more >= even_more

    def test_budget_error_states_requirement(self):
        size = search_space_size(AffineSpace(2), 2, 3)
        with pytest.raises(BudgetExceededError, match=str(size)):
            count_points(AffineSpace(2), 2, 3, budget=100)

    def test_rejects_non_prime_field(self):
        with pytest.raises(ValueError, match="prime"):
            count_points(AffineSpace(1), 1, 4)

    def test_avoided_collision_mod_p(self):
        with pytest.raises(ValueError, match="collide"):
            count_points(PuncturedLine((0, 2)), 1, 2)

    def test_env_budget(self, monkeypatch):
        monkeypatch.setenv("COMMVAR_BUDGET", "10")
        with pytest.raises(BudgetExceededError):
            count_points(AffineSpace(1), 2, 2)
        monkeypatch.setenv("COMMVAR_BUDGET", "zebra")
        with pytest.raises(ValueError):
            count_points(AffineSpace(1), 1, 2)


class TestAgainstExhaustion:
    @pytest.mark.parametrize("family, n, p", list(exhaustion_grid()))
    def test_count_equals_exhaustive_enumeration(self, family, n, p):
        assert count_points(family, n, p) == count_by_exhaustion(family, n, p)


class TestAgainstCentralizerWalk:
    @pytest.mark.parametrize("family, n, p", list(centralizer_walk_grid()))
    def test_count_equals_unmemoised_walk(self, family, n, p):
        assert count_points(family, n, p) == count_by_centralizer_walk(family, n, p)


class TestAffineLastMatrix:
    """With no unit constraint the last matrix of a tuple is counted by
    the size of its centralizer, p^(n^2 - rank), so ``matrix_ok`` runs
    only on the first matrix of a pair: p^(n^2) calls."""

    @pytest.mark.parametrize("n, p, expected", [(2, 3, 945), (3, 2, 7456)])
    def test_pairs_test_only_the_first_matrix(self, monkeypatch, n, p, expected):
        calls = []
        monkeypatch.setattr(AffineSpace, "matrix_ok", lambda self, mat, p: calls.append(mat) or True)
        assert count_points(AffineSpace(2), n, p) == expected
        assert len(calls) == p ** (n * n)


class TestRankTwoClosedForm:
    """n = 2, any number d of matrices: every non-scalar 2 x 2 matrix is
    cyclic, so its centralizer is the 2-dimensional algebra F_q[M]."""

    @pytest.mark.parametrize("family, q, expected", list(rank_two_grid()))
    def test_closed_form(self, family, q, expected):
        assert count_points(family, 2, q) == expected

    def test_large_cases_are_in_the_grid(self):
        assert rank_two_torus_count(3, 5) == 245_760
        assert rank_two_affine_count(3, 5) == 480_625
        assert rank_two_affine_count(4, 3) == 84_321
        ids = {param.id for param in rank_two_grid()}
        assert {"torus of dimension 3-q5", "affine space of dimension 3-q5"} <= ids
        assert "affine space of dimension 4-q3" in ids

    def test_small_cases_match_exhaustion(self):
        for d, q in ((1, 2), (1, 3), (2, 2)):
            assert rank_two_affine_count(d, q) == count_by_exhaustion(AffineSpace(d), 2, q)
            assert rank_two_torus_count(d, q) == count_by_exhaustion(Torus(d), 2, q)


class TestReducedBasis:
    def test_grow_is_independent_of_order(self):
        p = 5
        rng = random.Random(7)
        mats = [tuple(tuple(rng.randrange(p) for _ in range(3)) for _ in range(3)) for _ in range(2)]
        equations = [eq for mat in mats for eq in _commutator_equations(mat, p)]
        bases = []
        for _ in range(4):
            rng.shuffle(equations)
            basis = ()
            for eq in equations:
                basis = _grow(basis, eq, p) or basis
            bases.append(basis)
        assert all(basis == bases[0] for basis in bases)
        pivots = [pivot for pivot, _ in bases[0]]
        assert pivots == sorted(pivots)
        for pivot, row in bases[0]:
            assert [row[other] for other in pivots] == [int(other == pivot) for other in pivots]

    def test_nullspace_solves_the_equations(self):
        p = 3
        mat = ((1, 2, 0), (0, 1, 0), (0, 0, 2))
        basis = ()
        for eq in _commutator_equations(mat, p):
            basis = _grow(basis, eq, p) or basis
        for x in _nullspace(basis, 9, p):
            other = tuple(x[i * 3 : (i + 1) * 3] for i in range(3))
            assert commute(mat, other, p)


def random_basis(seed):
    # the reduced basis of a few random vectors, so that dependent
    # vectors, the empty basis and a full-rank one all turn up
    rng = random.Random(seed)
    p = rng.choice((2, 3, 5))
    size = rng.randrange(1, 7)
    basis = ()
    for _ in range(rng.randrange(size + 3)):
        basis = _grow(basis, [rng.randrange(p) for _ in range(size)], p) or basis
    return basis, size, p


class TestSolutions:
    """The solutions of a reduced basis, against every x in F_p^size."""

    @pytest.mark.parametrize("seed", range(80))
    def test_random_basis(self, seed):
        basis, size, p = random_basis(seed)
        expected = [
            x
            for x in product(range(p), repeat=size)
            if all(sum(r * y for r, y in zip(row, x)) % p == 0 for _, row in basis)
        ]
        solutions = list(_solutions(basis, size, p))
        assert len(solutions) == len(set(solutions)) == p ** (size - len(basis))
        assert sorted(solutions) == expected

    def test_random_bases_cover_every_rank(self):
        ranks = set()
        for seed in range(80):
            basis, size, _ = random_basis(seed)
            ranks.add("empty" if not basis else "full" if len(basis) == size else "partial")
        assert ranks == {"empty", "partial", "full"}

    def test_empty_and_full_rank(self):
        assert list(_solutions((), 2, 3)) == list(product(range(3), repeat=2))
        full = ((0, (1, 0, 0)), (1, (0, 1, 0)), (2, (0, 0, 1)))
        assert list(_solutions(full, 3, 5)) == [(0, 0, 0)]


class TestFamilyValues:
    """The families are immutable values, each equal only to its own kind."""

    def test_equality_hash_and_repr(self):
        assert Torus(2) == Torus(2) and hash(Torus(2)) == hash(Torus(2))
        assert Torus(1) != AffineSpace(1) and Torus() != Torus(2)
        assert PuncturedLine() == PuncturedLine((0, 1)) != (0, 1)
        assert len({AffineSpace(), AffineSpace(1), Torus(), PuncturedLine()}) == 3
        assert repr(AffineSpace()) == "AffineSpace(dim=1)"
        assert repr(PuncturedLine((0, 2))) == "PuncturedLine(avoided=(0, 2))"

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: AffineSpace(0), "affine dimension must be >= 1"),
            (lambda: Torus(-1), "torus dimension must be >= 1"),
            (lambda: PuncturedLine((1, 1)), "avoided values must be distinct"),
        ],
    )
    def test_validation(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("family", [AffineSpace(), Torus(), PuncturedLine()], ids=repr)
    def test_fields_cannot_be_set(self, family):
        with pytest.raises(AttributeError):
            family.dim = 2


class TestOneMatrixFamilies:
    def test_no_centralizer_is_solved(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a one-matrix family walked a centralizer")

        for name in ("_commutator_equations", "_solutions"):
            monkeypatch.setattr(oracle, name, refuse)
        assert count_points(Torus(1), 3, 2) == gl_order(3, 2)
        assert count_points(PuncturedLine((0, 1)), 3, 3) == 6291
        assert count_points(PuncturedLine((0, 1, 2)), 3, 3) == 3456

    @pytest.mark.parametrize("shifts, n, p", list(shift_set_grid()))
    def test_every_shift_set_matches_the_row_walk(self, shifts, n, p):
        expected = sum(1 for _ in avoiding_matrices(n, p, shifts))
        assert count_points(PuncturedLine(shifts), n, p) == expected


class TestRowsOffPlanes:
    """The last-row count by inclusion-exclusion, against every x in F_p^n."""

    @pytest.mark.parametrize("seed", range(60))
    def test_random_planes(self, seed):
        planes, n, p = random_planes(seed)
        assert _rows_off_planes(planes, n, p) == rows_off_by_brute_force(planes, n, p)

    def test_random_planes_cover_every_kind(self):
        kinds = set()
        for seed in range(60):
            planes, n, p = random_planes(seed)
            rows = [(f, a * f[-1] % p) for f, a in planes]
            for (f, c), (g, d) in combinations(rows, 2):
                for k in range(1, p):
                    if all(k * x % p == y for x, y in zip(f, g)):
                        kinds.add("repeated" if k * c % p == d else "inconsistent")
            kinds.update("last entry 0" for f, _ in rows if f[-1] == 0)
        assert kinds == {"repeated", "inconsistent", "last entry 0"}

    @pytest.mark.parametrize(
        "planes, n, p, expected",
        [
            ([], 3, 2, 8),
            ([((1,), 0)], 1, 7, 6),
            ([((1,), a) for a in range(5)], 1, 5, 0),
            # x1 = 0, 1, 2: parallel, pairwise inconsistent, covering F_3^2
            ([((0, 1), 0), ((0, 1), 1), ((0, 2), 2)], 2, 3, 0),
            # one plane three times, once scaled
            ([((1, 1), 1), ((1, 1), 1), ((2, 2), 1)], 2, 3, 6),
            # a normal 0 in its last entry passes through 0 whatever a is
            ([((1, 0), 0), ((1, 0), 2)], 2, 3, 6),
            ([((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1)], 3, 2, 1),
        ],
    )
    def test_special_planes(self, planes, n, p, expected):
        assert rows_off_by_brute_force(planes, n, p) == expected
        assert _rows_off_planes(planes, n, p) == expected


class TestMemory:
    def test_rank_one_torus_builds_no_row(self):
        p = 1_000_003
        tracemalloc.start()
        try:
            count = count_points(Torus(1), 1, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == p - 1
        assert peak < 1 << 20


class TestFeitFine:
    """Commuting pairs, AffineSpace(2), against Feit & Fine, "Pairs of
    commuting matrices over a finite field", Duke Math. J. 27 (1960)."""

    @pytest.mark.parametrize(
        "q, n, expected",
        [(2, 1, 4), (2, 2, 88), (2, 3, 7456), (3, 1, 9), (3, 2, 945), (5, 1, 25), (5, 2, 18625)],
    )
    def test_commuting_pairs(self, q, n, expected):
        assert feit_fine_coefficient(n, q) * gl_order(n, q) == expected
        assert count_points(AffineSpace(2), n, q) == expected


class TestCommutingInvertiblePairs:
    """Torus(2) counts commuting pairs in G = GL_n(F_q), which number
    |G| times the class number of G.  At n = 3 the centralizer solve
    needs back-substitution, which no n = 2 case does."""

    @pytest.mark.parametrize(
        "q, n, classes, expected",
        [(2, 1, 1, 1), (2, 2, 3, 18), (3, 2, 8, 384), (5, 2, 24, 11520), (2, 3, 6, 1008)],
    )
    def test_group_order_times_class_number(self, q, n, classes, expected):
        assert gl_class_number(n, q) == classes
        assert gl_order(n, q) * classes == expected
        assert count_points(Torus(2), n, q) == expected


class TestCrossCheck:
    def test_affine_line(self):
        result = cross_check(AffineSpace(1), 2, 2, eigendata_for_family(AffineSpace(1)))
        assert result.ok
        assert result.oracle_count == 16

    def test_torus_rank_three(self):
        result = cross_check(Torus(1), 3, 2, eigendata_for_family(Torus(1)))
        assert result.ok
        assert result.oracle_count == 168

    def test_punctured_over_f3(self):
        family = PuncturedLine((0, 1))
        result = cross_check(family, 2, 3, eigendata_for_family(family))
        assert result.ok

    @pytest.mark.parametrize("avoided", [(0,), (3,), (0, 1), (1, 4), (0, 1, 2), (0, 2, 4)])
    def test_punctured_rank_three_over_f5(self, avoided):
        family = PuncturedLine(avoided)
        assert cross_check(family, 3, 5, eigendata_for_family(family)).ok

    def test_rejects_non_curve(self):
        with pytest.raises(ValueError, match="curve"):
            cross_check(AffineSpace(2), 1, 2, eigendata_for_family(AffineSpace(2)))

    def test_describe_mentions_all_numbers(self):
        result = cross_check(Torus(1), 2, 2, eigendata_for_family(Torus(1)))
        text = result.describe()
        assert text.endswith(": oracle=6 formula=6 series-rhs=6 [PASS]")

    def test_left_side_recurrence_runs_once(self, monkeypatch):
        from commvar import charmodel

        calls = []
        real = charmodel._rank_recurrence

        def counted(weights, N, top=None, step=2):
            calls.append((N, top, step))
            return real(weights, N, top, step)

        monkeypatch.setattr(charmodel, "_rank_recurrence", counted)
        assert cross_check(Torus(1), 3, 2, eigendata_for_family(Torus(1))).ok
        assert calls == [(3, None, 1)]


def rank_one_grid():
    # affine and torus of dimension 1-3 and punctured lines avoiding 0-3
    # values, at every p where the avoided values stay distinct: 39 cases
    families = [cls(d) for cls in (AffineSpace, Torus) for d in (1, 2, 3)]
    families += [PuncturedLine(tuple(range(r))) for r in range(4)]
    for family in families:
        for p in (2, 3, 5, 7):
            if isinstance(family, PuncturedLine) and len(family.avoided) > p:
                continue
            yield pytest.param(family, p, id=f"{family.describe()}-p{p}")


class TestEigendataAtRankOne:
    """At rank 1 the formula count is |X(F_p)| for any X, curve or not, so
    the enumerator checks the eigendata of every family, where
    ``cross_check`` takes the curves only."""

    def test_grid_size(self):
        assert len(list(rank_one_grid())) == 39

    @pytest.mark.parametrize("family, p", list(rank_one_grid()))
    def test_formula_count_is_the_enumerated_count(self, family, p):
        assert point_counts(eigendata_for_family(family), 1, p)[1] == count_points(family, 1, p)

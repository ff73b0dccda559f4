"""Acceptance gate: every exact criterion, one test per criterion.

Each test prints its own PASS/FAIL line (visible with ``pytest -s`` or
on failure) and asserts the exact verdict; there are no tolerances,
every comparison is bit-exact.  The same checks back the ``commvar
verify`` subcommand.
"""

import inspect
import itertools

import pytest

from commvar import arith, charmodel, oracle, symfunc, verify
from commvar.arith import Poly
from commvar.oracle import AffineSpace, Torus
from commvar.partitions import partitions_of
from commvar.series import SeriesReport, StabilizationReport
from commvar.symfunc import SymFunc, mn_character
from commvar.verify import (
    CheckResult,
    CrossCheck,
    check_character_substrate,
    check_coh_product,
    check_degenerate_cases,
    check_flag_character,
    check_gl_consistency,
    check_macdonald,
    check_point_counts,
    check_series_agreement,
    check_stabilization,
)

CRITERIA = [
    pytest.param(check_flag_character, id="1-flag-character"),
    pytest.param(check_degenerate_cases, id="2-degenerate-cases"),
    pytest.param(check_gl_consistency, id="3-gl-consistency"),
    pytest.param(check_coh_product, id="4-coh-product"),
    pytest.param(check_macdonald, id="5-macdonald-zeta"),
    pytest.param(check_point_counts, id="6-point-counts"),
    pytest.param(check_series_agreement, id="7-series-agreement"),
    pytest.param(check_character_substrate, id="8-character-substrate"),
    pytest.param(check_stabilization, id="9-stabilization"),
]


@pytest.mark.parametrize("check", CRITERIA)
def test_acceptance_criterion(check):
    result = check()
    print(result.line())
    assert result.passed, result.line()


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_gl_class_numbers_are_the_closed_forms(q):
    # k(GL_n(F_q)) for n <= 4 (Macdonald, Symmetric Functions and Hall
    # Polynomials, IV.2)
    got = [verify._gl_class_number(n, q) for n in range(1, 5)]
    assert got == [q - 1, q**2 - 1, q**3 - q, q**4 - q]


ONE = Poly.constant(1)
RECORDS = [
    pytest.param(CheckResult("x", True), "passed", id="CheckResult"),
    pytest.param(CrossCheck(Torus(1), 1, 2, 1, ONE, ONE), "oracle_count", id="CrossCheck"),
    pytest.param(SeriesReport((ONE,), (ONE,)), "lhs", id="SeriesReport"),
    pytest.param(StabilizationReport(ONE, 1, ONE, ONE), "at_n", id="StabilizationReport"),
]


@pytest.mark.parametrize("record, field", RECORDS)
def test_result_records_are_immutable(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) == before


def flip_last(f: SymFunc) -> SymFunc:
    """f with the sign of one int coefficient flipped: the top one of its
    first p-coefficient."""
    terms = dict(f.terms)
    lam, c = next(iter(terms.items()))
    terms[lam] = Poly.from_ints(c.num[:-1] + (-c.num[-1],), c.den)
    return SymFunc(f.degree, terms)


def next_partition(lam):
    """The partition after lam in ``partitions_of(|lam|)``, cyclically."""
    parts = partitions_of(lam.n)
    return parts[(parts.index(lam) + 1) % len(parts)]


@pytest.fixture
def fresh_tables():
    """Empties the caches that hold character values before and after the
    test, so a corrupted table is read in place of the cached real one
    and does not outlive the test."""
    caches = (symfunc._mn, symfunc.character_table)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


class TestOneCorruptedRouteFails:
    """Each check compares two routes; corrupting exactly one of them, in
    the namespace of ``verify`` only, turns its PASS into a FAIL."""

    def test_series_agreement_direct_route(self, monkeypatch):
        real = verify.enhanced_character

        def corrupt(space, n):
            f = real(space, n)
            return flip_last(f) if n == 3 else f

        monkeypatch.setattr(verify, "enhanced_character", corrupt)
        result = check_series_agreement()
        assert not result.passed
        assert result.detail.startswith("sample 0, n=3, ")

    def test_series_agreement_exponential_route(self, monkeypatch):
        real = verify.enhanced_character_series

        def corrupt(space, order):
            return [flip_last(f) if f.degree == 3 else f for f in real(space, order)]

        monkeypatch.setattr(verify, "enhanced_character_series", corrupt)
        result = check_series_agreement()
        assert not result.passed
        assert result.detail.startswith("sample 0, n=3, ")

    def test_substrate_orthogonality(self, monkeypatch):
        real = verify.character_table

        def flipped(n):
            # chi^(2,1)(3) = -1 becomes 1
            table = real(n)
            return table if n != 3 else (table[0], (-table[1][0], *table[1][1:]), table[2])

        monkeypatch.setattr(verify, "character_table", flipped)
        result = check_character_substrate()
        assert (result.passed, result.detail) == (False, "chi^(3) . chi^(2,1) wrong")

    @pytest.mark.parametrize("shift", [(1,), (0, 0, 1)])
    def test_substrate_hook_form(self, monkeypatch, shift):
        real = SymFunc.principal_spec_numerator

        def perturbed(self, power=1):
            value = real(self, power)
            return value + Poly.from_ints(shift) if self.degree == 3 else value

        monkeypatch.setattr(SymFunc, "principal_spec_numerator", perturbed)
        result = check_character_substrate()
        assert (result.passed, result.detail) == (False, "hook form (3)")

    @pytest.mark.parametrize(
        "corrupt, detail",
        [
            pytest.param(
                lambda real, lam: tuple((mu, Poly.from_ints(c.num, 2 * c.den)) for mu, c in real(lam)),
                "hook form (1)",
                id="halved",
            ),
            pytest.param(
                lambda real, lam: tuple((mu, Poly.from_ints(map(abs, c.num), c.den)) for mu, c in real(lam)),
                "hook form (1,1)",
                id="abs",
            ),
            pytest.param(
                lambda real, lam: tuple(
                    (mu, Poly.from_ints((mn_character(lam, mu),), mu.centralizer_order() + 1))
                    if mu == (lam.n,) else (mu, c)
                    for mu, c in real(lam)
                ),
                "hook form (1)",
                id="z-plus-one-at-n",
            ),
            pytest.param(lambda real, lam: real(lam)[:-1], "hook form (1)", id="last-mu-skipped"),
            pytest.param(lambda real, lam: real(next_partition(lam)), "hook form (2)", id="next-row"),
        ],
    )
    def test_substrate_schur_in_p(self, monkeypatch, corrupt, detail):
        # s_lam halved; every chi^lam(mu) replaced by its absolute value;
        # z_(n) + 1 in place of z_(n); the term of mu = (1^n) dropped; or
        # s_lam read from the row of the next partition
        real = symfunc._schur_in_p
        monkeypatch.setattr(symfunc, "_schur_in_p", lambda lam: corrupt(real, lam))
        result = check_character_substrate()
        assert (result.passed, result.detail) == (False, detail)

    @pytest.mark.parametrize(
        "corrupt, detail",
        [
            pytest.param(lambda table: tuple(zip(*table)), "chi^(3) . chi^(2,1) wrong", id="transposed"),
            pytest.param(
                lambda table: tuple((-row[0], *row[1:]) for row in table),
                "hook form (1)",
                id="column-n-negated",
            ),
            pytest.param(
                lambda table: (table[1], table[0], *table[2:]) if len(table) > 1 else table,
                "hook form (2)",
                id="two-rows-swapped",
            ),
        ],
    )
    def test_substrate_character_table(self, monkeypatch, fresh_tables, corrupt, detail):
        # the one table both halves read: verify's and the one behind s_lam;
        # a negated column or two swapped rows keep the table orthogonal,
        # so only the hook form sees them
        real = symfunc.character_table

        def corrupted(n):
            return corrupt(real(n))

        monkeypatch.setattr(verify, "character_table", corrupted)
        monkeypatch.setattr(symfunc, "character_table", corrupted)
        result = check_character_substrate()
        assert (result.passed, result.detail) == (False, detail)

    @pytest.mark.parametrize(
        "corrupt, detail",
        [
            pytest.param(
                lambda strips, m, r: (strips[0][:-1], *strips[1:]) if (m, r) == (1, 1) else strips,
                "chi^(2) . chi^(1,1) wrong",
                id="strip-dropped",
            ),
            pytest.param(
                lambda strips, m, r: tuple(tuple((i, -sign) for i, sign in adds) for adds in strips),
                "hook form (1)",
                id="sign-parity",
            ),
        ],
    )
    def test_substrate_strips(self, monkeypatch, fresh_tables, corrupt, detail):
        # a border strip of length 1 dropped from nu = (1), or the sign of
        # every strip's height parity flipped
        real = symfunc._strips
        monkeypatch.setattr(symfunc, "_strips", lambda m, r: corrupt(real(m, r), m, r))
        result = check_character_substrate()
        assert (result.passed, result.detail) == (False, detail)

    @pytest.mark.parametrize(
        "power, mismatch",
        [
            pytest.param("(-1) ** j * v", "t^2", id="v-once"),
            pytest.param("(-abs(v)) ** j", "t^1", id="minus-abs-v"),
        ],
    )
    def test_point_counts_see_the_power_of_v(self, monkeypatch, power, mismatch):
        # (-1)^j v or (-|v|)^j for (-v)^j in the Euler rows of the
        # point-count letters: every curve of the grid has its letters
        # with |c| >= 2 at v = 1, so only the groupoid check sees it
        source = inspect.getsource(arith.euler_rows)
        assert source.count("(-v) ** j") == 1
        namespace = dict(vars(arith))
        exec(source.replace("(-v) ** j", power), namespace)
        monkeypatch.setattr(charmodel, "euler_rows", namespace["euler_rows"])
        result = check_point_counts()
        assert (result.passed, result.detail) == (
            False,
            f"groupoid series, dim-2 stratum at eigenvalue -1, q=3: mismatch at {mismatch}",
        )

    def test_point_counts_enumerate_commuting_pairs(self, monkeypatch):
        # the pairs counted without their unit constraint, as AffineSpace(2)
        # counts them; the curve checks enumerate one matrix and miss it
        real = verify.count_points
        monkeypatch.setattr(
            verify, "count_points",
            lambda family, n, p: real(AffineSpace(family.dim) if family.dim == 2 else family, n, p),
        )
        result = check_point_counts(2)
        assert (result.passed, result.detail) == (
            False,
            "torus of dimension 2, n=1, q=2: oracle=4 |G|*k(G)=1; "
            "torus of dimension 2, n=2, q=2: oracle=88 |G|*k(G)=18",
        )

    def test_point_counts_see_a_map_that_moves_the_shift_set(self, monkeypatch):
        # every map that sends the first two shifts to two shifts, whether
        # or not it fixes the set, each permuting the shifts by the rank of
        # their images: only the uncounted check with three shifts sees it
        real = oracle._shift_permutations

        def any_pair_map(shifts, p):
            if len(shifts) < 2:
                return real(shifts, p)
            inv = pow(shifts[0] - shifts[1], p - 2, p)
            perms = []
            for t0, t1 in itertools.permutations(shifts, 2):
                alpha = (t0 - t1) * inv % p
                images = [(alpha * (a - shifts[0]) + t0) % p for a in shifts]
                perms.append(tuple(sorted(images).index(image) for image in images))
            return perms

        monkeypatch.setattr(oracle, "_shift_permutations", any_pair_map)
        result = check_point_counts()
        assert (result.passed, result.detail) == (
            False,
            "affine line avoiding 0,1,2, n=2, q=5: oracle=278 formula=280 series-rhs=280 [FAIL]",
        )

    def test_point_counts_read_the_class_number(self, monkeypatch):
        # k_n read one field size too low
        real = verify._gl_class_number
        monkeypatch.setattr(verify, "_gl_class_number", lambda n, q: real(n, q - 1))
        result = check_point_counts(3)
        assert (result.passed, result.detail) == (
            False,
            "torus of dimension 2, n=1, q=3: oracle=4 |G|*k(G)=2; "
            "torus of dimension 2, n=2, q=3: oracle=384 |G|*k(G)=144",
        )

"""Brute-force ground truth over small prime fields.

Counts the F_p-points of C_n(X) for the built-in variety families
exactly and single-threaded: the tuples of commuting n x n matrices
that satisfy the family's unit constraints.  The enumeration counts
points rather than testing candidates.  The first matrix is built row
by row, and a row that would make some M - a*I singular is pruned at
once.  For a one-matrix family the number of ways to finish depends
only on the row reached and on the spans of the rows of M - a*I so
far, so it is computed once per such state, and the last row is
counted, not walked: the rows off a union of hyperplanes, by
inclusion-exclusion.  Each later matrix is drawn from the common
centralizer of the earlier ones, the solution space of [A, X] = 0 over
F_p.  As in Feit & Fine ("Pairs of commuting matrices over a finite
field", Duke Math. J. 27 (1960)), the number of ways to finish a tuple
depends only on that centralizer and on how many matrices are left to
choose, so each subtree is counted once per distinct common
centralizer.  Nothing here knows about symmetric functions; the counts
are later compared with the two character-level formula routes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

DEFAULT_BUDGET = 2**28
BUDGET_ENV_VAR = "COMMVAR_BUDGET"


class BudgetExceededError(RuntimeError):
    """The requested enumeration is larger than the configured budget."""


def default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be positive")
    return value


def _smallest_factor(n: int) -> int:
    """The least prime factor of n >= 2, by trial division up to sqrt(n)."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def is_prime(n: int) -> bool:
    return n >= 2 and _smallest_factor(n) == n


def prime_power_base(q: int) -> tuple[int, int]:
    """Decompose q = p**k with p prime; raises for non prime powers."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = _smallest_factor(q)
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, k


def gl_order(n: int, q: int) -> int:
    """Order of the general linear group of rank n over a field with q elements."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    prime_power_base(q)
    qn = q**n
    out = 1
    for i in range(n):
        out *= qn - q**i
    return out


# -- variety families ---------------------------------------------------


@dataclass(frozen=True)
class AffineSpace:
    """N-tuples of commuting matrices, no unit constraint."""

    dim: int = 1

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("affine dimension must be >= 1")

    @property
    def tuple_len(self) -> int:
        return self.dim

    def matrix_ok(self, mat, p: int) -> bool:
        return True

    def shifts(self, p: int) -> tuple[int, ...]:
        """The values a for which M - a*I must be invertible."""
        return ()

    def describe(self) -> str:
        return f"affine space of dimension {self.dim}"

    def is_curve(self) -> bool:
        return self.dim == 1


@dataclass(frozen=True)
class Torus:
    """N-tuples of commuting invertible matrices."""

    dim: int = 1

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("torus dimension must be >= 1")

    @property
    def tuple_len(self) -> int:
        return self.dim

    def matrix_ok(self, mat, p: int) -> bool:
        return det_mod(mat, p) != 0

    def shifts(self, p: int) -> tuple[int, ...]:
        return (0,)

    def describe(self) -> str:
        return f"torus of dimension {self.dim}"

    def is_curve(self) -> bool:
        return self.dim == 1


@dataclass(frozen=True)
class PuncturedLine:
    """Single matrices M with M - a*I invertible for each avoided value a."""

    avoided: tuple[int, ...] = (0, 1)

    def __post_init__(self):
        if len(set(self.avoided)) != len(self.avoided):
            raise ValueError("avoided values must be distinct")

    @property
    def tuple_len(self) -> int:
        return 1

    def matrix_ok(self, mat, p: int) -> bool:
        n = len(mat)
        for a in self.avoided:
            shifted = tuple(
                tuple((mat[i][j] - (a if i == j else 0)) % p for j in range(n))
                for i in range(n)
            )
            if det_mod(shifted, p) == 0:
                return False
        return True

    def reduced_avoided(self, p: int) -> tuple[int, ...]:
        reduced = tuple(a % p for a in self.avoided)
        if len(set(reduced)) != len(reduced):
            raise ValueError(
                f"avoided values {self.avoided} collide modulo {p}"
            )
        return reduced

    def shifts(self, p: int) -> tuple[int, ...]:
        return self.reduced_avoided(p)

    def describe(self) -> str:
        return "affine line avoiding " + ",".join(str(a) for a in self.avoided)

    def is_curve(self) -> bool:
        return True


VarietyFamily = AffineSpace | Torus | PuncturedLine


# -- matrix arithmetic mod p ----------------------------------------------


def det_mod(mat: Sequence[Sequence[int]], p: int) -> int:
    """Determinant over the prime field, by Gaussian elimination."""
    n = len(mat)
    m = [list(row) for row in mat]
    det = 1
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col] % p:
                pivot = r
                break
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        inv = pow(m[col][col], p - 2, p)
        det = det * m[col][col] % p
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv % p
                m[r] = [(m[r][j] - f * m[col][j]) % p for j in range(n)]
    return det % p


def mat_mul(a, b, p: int):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n))
        for i in range(n)
    )


def commute(a, b, p: int) -> bool:
    return mat_mul(a, b, p) == mat_mul(b, a, p)


# -- linear algebra mod p -------------------------------------------------------
#
# A reduced basis is a tuple of (pivot, row) pairs sorted by pivot, in
# reduced row echelon form: each row is 1 at its pivot and 0 at the
# pivots of the other rows.  A subspace has exactly one reduced basis,
# so the basis itself serves as a dict key for the subspace.


def _grow(basis: tuple, vec, p: int) -> tuple | None:
    """The reduced basis of span(``basis``, ``vec``), or None if ``vec``
    lies in the span of ``basis``."""
    vec = list(vec)
    for pivot, row in basis:
        f = vec[pivot]
        if f:
            vec = [(x - f * y) % p for x, y in zip(vec, row)]
    for pivot, f in enumerate(vec):
        if f:
            inv = pow(f, p - 2, p)
            new = tuple(x * inv % p for x in vec)
            out = []
            for old_pivot, row in basis:
                g = row[pivot]
                if g:
                    row = tuple((x - g * y) % p for x, y in zip(row, new))
                out.append((old_pivot, row))
            out.append((pivot, new))
            out.sort()
            return tuple(out)
    return None


def _nullspace(basis: tuple, size: int, p: int) -> list[tuple]:
    """A basis of {x in F_p^size : row . x = 0 for every row of ``basis``}.

    One vector per free coordinate f, 1 at f and 0 at the other free
    coordinates.  Each row of a reduced basis is 1 at its pivot and 0 at
    the other rows' pivots, so the coordinate at its pivot is minus the
    row's entry at f.
    """
    pivots = {pivot for pivot, _ in basis}
    out = []
    for free in range(size):
        if free in pivots:
            continue
        x = [0] * size
        x[free] = 1
        for pivot, row in basis:
            x[pivot] = -row[free] % p
        out.append(tuple(x))
    return out


def _coset(start: tuple, vectors: list[tuple], p: int) -> Iterator[tuple]:
    """Every vector of ``start`` + span(``vectors``) over F_p, each once if
    ``vectors`` are linearly independent."""
    if not vectors:
        yield start
        return
    head, rest = vectors[0], vectors[1:]
    for tail in _coset(start, rest, p):
        for c in range(p):
            yield tuple((t + c * h) % p for t, h in zip(tail, head))


def _commutator_equations(a, p: int) -> Iterator[tuple]:
    """The n^2 linear forms (aX - Xa)_ij in the row-major entries of X."""
    n = len(a)
    for i in range(n):
        for j in range(n):
            eq = [0] * (n * n)
            for k in range(n):
                eq[k * n + j] += a[i][k]
                eq[i * n + k] -= a[k][j]
            yield tuple(e % p for e in eq)


def _first_rows(n: int, p: int, shifts: tuple[int, ...]) -> Iterator[tuple[tuple, set]]:
    """Each allowed choice of the first n - 1 rows of M, with the set of
    last rows it forbids.

    M runs over the n x n matrices over F_p with M - a*I invertible for
    each shift a, built row by row.  The rows of M - a*I chosen so far
    are linearly independent, so row i of M is allowed unless it lies in
    the coset a*e_i + span(those rows), for some shift a; a forbidden row
    prunes its whole subtree.  The walk stops before the last row and
    hands back the prefix and the forbidden last rows.  Candidate rows
    are generated lazily, so memory does not grow with p^n.
    """

    def extend(prefix: tuple) -> Iterator[tuple[tuple, set]]:
        i = len(prefix)
        forbidden = set()
        for a in shifts:
            shifted = [
                tuple((x - a * (j == k)) % p for j, x in enumerate(row))
                for k, row in enumerate(prefix)
            ]
            start = tuple(a * (j == i) for j in range(n))
            forbidden.update(_coset(start, shifted, p))
        if i + 1 == n:
            yield prefix, forbidden
            return
        for row in product(range(p), repeat=n):
            if row not in forbidden:
                yield from extend(prefix + (row,))

    return extend(())


def _rows_off_planes(planes: Sequence[tuple[tuple, int]], n: int, p: int) -> int:
    """How many x in F_p^n have f . x != a * f[n-1] for every (f, a) in ``planes``.

    Inclusion-exclusion over the subsets of ``planes``, in recursive
    form: the points of a flat that lie on none of planes[k:] are those
    on none of planes[k+1:], minus those of its meet with plane k.  A
    flat is the reduced basis of its planes' augmented rows
    (f | -a * f[n-1]).  A pivot in that last column means the planes do
    not meet; a plane whose row is already in the span holds the whole
    flat; otherwise the flat has p^(n - rank) points.
    """
    rows = [f + (-a * f[-1] % p,) for f, a in planes]

    def off(k: int, flat: tuple) -> int:
        if flat and flat[-1][0] == n:
            return 0
        if k == len(rows):
            return p ** (n - len(flat))
        grown = _grow(flat, rows[k], p)
        if grown is None:
            return 0
        return off(k + 1, flat) - off(k + 1, grown)

    return off(0, ())


def _count_one_matrix(n: int, p: int, shifts: tuple[int, ...]) -> int:
    """The n x n matrices M over F_p with M - a*I invertible for each shift a.

    M is built row by row.  After i rows, W_a is the reduced basis of
    the rows of M - a*I so far, and the number of ways to finish depends
    only on (i, (W_a)_a), so it is computed once per such state.  Row i
    is allowed when each W_a grows by row - a*e_i.  At the last row each
    W_a is a hyperplane with normal f_a, and the allowed rows are those
    off every plane f_a . x = a * f_a[n-1].
    """
    finish: dict[tuple, int] = {}

    def walk(i: int, spaces: tuple) -> int:
        key = (i, spaces)
        total = finish.get(key)
        if total is not None:
            return total
        if i == n - 1:
            planes = [(_nullspace(w, n, p)[0], a) for w, a in zip(spaces, shifts)]
            total = _rows_off_planes(planes, n, p)
        else:
            total = 0
            for row in product(range(p), repeat=n):
                grown = []
                for w, a in zip(spaces, shifts):
                    g = _grow(w, row[:i] + ((row[i] - a) % p,) + row[i + 1 :], p)
                    if g is None:
                        break
                    grown.append(g)
                else:
                    total += walk(i + 1, tuple(grown))
        finish[key] = total
        return total

    return walk(0, ((),) * len(shifts))


# -- counting ----------------------------------------------------------------


def search_space_size(family: VarietyFamily, n: int, p: int) -> int:
    return p ** (family.tuple_len * n * n)


def count_points(family: VarietyFamily, n: int, p: int, budget: int | None = None) -> int:
    """Exact number of F_p points.

    The first matrix runs over the n x n matrices M with M - a*I
    invertible for each of the family's shifts a, built row by row.  A
    one-matrix family is counted by ``_count_one_matrix``, memoised on
    the shifted row spaces, and visits no leaf.  Otherwise each allowed
    first matrix is completed: each later matrix runs over the common
    centralizer of the earlier ones, solved from [A, X] = 0 by Gaussian
    elimination mod p, and is kept if it passes ``family.matrix_ok``.
    The number of ways to finish a tuple depends only on that
    centralizer and the depth reached, so it is computed once per
    distinct (reduced basis of the commutator equations, depth) and
    then looked up.  The only candidates built and rejected are
    centralizer elements that fail ``matrix_ok``.  Single-threaded.

    The budget bounds the nominal search p^(dim*n^2), not the work
    done, and is checked before any work.
    """
    if not is_prime(p):
        raise ValueError(f"the enumerator works over prime fields only, got {p}")
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    shifts = family.shifts(p)
    if budget is None:
        budget = default_budget()
    size = search_space_size(family, n, p)
    if size > budget:
        raise BudgetExceededError(
            f"search space {size} exceeds budget {budget}; "
            f"raise the budget to at least {size} to run this count"
        )
    if family.tuple_len == 1:
        return _count_one_matrix(n, p, shifts)
    subtree: dict[tuple, int] = {}

    def extend(mat, equations: tuple, depth: int) -> int:
        # ``equations``: the reduced basis of the commutator equations of
        # the matrices chosen before ``mat``; ``depth`` counts ``mat``.
        if depth == family.tuple_len:
            return 1
        for eq in _commutator_equations(mat, p):
            grown = _grow(equations, eq, p)
            if grown is not None:
                equations = grown
        key = (equations, depth)
        total = subtree.get(key)
        if total is None:
            total = 0
            for x in _coset((0,) * (n * n), _nullspace(equations, n * n, p), p):
                nxt = tuple(x[i * n : (i + 1) * n] for i in range(n))
                if family.matrix_ok(nxt, p):
                    total += extend(nxt, equations, depth + 1)
            subtree[key] = total
        return total

    total = 0
    for prefix, forbidden in _first_rows(n, p, shifts):
        for row in product(range(p), repeat=n):
            if row not in forbidden:
                total += extend(prefix + (row,), (), 1)
    return total


# -- cross checking -----------------------------------------------------------


@dataclass(frozen=True)
class CrossCheck:
    """A brute-force count compared over three routes: oracle, formula, series."""

    family: VarietyFamily
    n: int
    q: int
    oracle_count: int
    formula_count: object
    series_rhs_count: object

    @property
    def ok(self) -> bool:
        return self.oracle_count == self.formula_count == self.series_rhs_count

    def describe(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"{self.family.describe()}, n={self.n}, q={self.q}: "
            f"oracle={self.oracle_count} formula={self.formula_count} "
            f"series-rhs={self.series_rhs_count} [{status}]"
        )


def cross_check(family: VarietyFamily, n: int, q: int, space, budget=None) -> CrossCheck:
    """Compare the enumerated count with the formula and series routes.

    ``space`` is the graded eigenvalue data of the same variety.  The
    formula route is the left side of ``groupoid_series`` (the point
    count over the group order), the series route its product side;
    both are multiplied back by the group order, so all three numbers
    count matrix tuples.
    """
    from .series import groupoid_series

    if not family.is_curve():
        raise ValueError("cross_check applies to the curve families only")
    oracle_count = count_points(family, n, q, budget=budget)
    report = groupoid_series(space, q, n)
    order = gl_order(n, q)
    formula = report.lhs.coeff(n).evaluate(0) * order
    rhs = report.rhs.coeff(n).evaluate(0) * order
    return CrossCheck(family, n, q, oracle_count, formula, rhs)

"""Brute-force ground truth over small prime fields.

Counts the F_p-points of C_n(X) for the built-in variety families
exactly and single-threaded: the tuples of commuting n x n matrices
that satisfy the family's unit constraints.  The enumeration counts
points rather than testing candidates.  A one-matrix family is built
row by row; the number of ways to finish depends only on the row
reached and on the spans of the rows of M - a*I so far, so it is
computed once per such state, and the last row is counted, not walked:
the rows off a union of hyperplanes, by inclusion-exclusion.  In a
tuple of several matrices, each matrix is drawn from the common
centralizer of the earlier ones, the solution space of [A, X] = 0 over
F_p; for the first matrix that is all of M_n(F_p).  As in Feit & Fine
("Pairs of commuting matrices over a finite field", Duke Math. J. 27
(1960)), the number of ways to finish a tuple depends only on that
centralizer and on how many matrices are left to choose, so each
subtree is counted once per distinct common centralizer.  Nothing here
knows about symmetric functions, and no other commvar module is
imported; ``verify.cross_check`` compares the counts with the formula
routes.
"""

from __future__ import annotations

import os
from itertools import product
from collections.abc import Iterator, Sequence

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


# Miller-Rabin on the prime bases up to 41 decides primality exactly
# below this bound, the least strong pseudoprime to all of those bases
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises for a probable prime at or above
    ``PRIMALITY_BOUND``, where the test no longer decides."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= PRIMALITY_BOUND:
        raise ValueError(
            f"cannot decide whether {n} is prime: Miller-Rabin on the prime "
            f"bases up to 41 is exact only below {PRIMALITY_BOUND}"
        )
    return True


def _iroot(q: int, k: int) -> int:
    """floor(q ** (1/k)) for q >= 1, by Newton's method from above."""
    x = 1 << -(-q.bit_length() // k)
    while True:
        y = ((k - 1) * x + q // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power_base(q: int) -> tuple[int, int]:
    """Decompose q = p**k with p prime; raises for non prime powers.

    k is the largest exponent, at most log2(q), for which q is a perfect
    k-th power; q is a prime power exactly when that root is prime.
    """
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    for k in range(q.bit_length() - 1, 0, -1):
        root = _iroot(q, k)
        if root**k == q:
            break
    if not is_prime(root):
        raise ValueError(f"{q} is not a prime power")
    return root, k


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


class Frozen:
    """Base of a small immutable value with its fields in ``__slots__``.

    ``==``, ``hash`` and ``repr`` run over the fields in slot order, and
    an instance equals only an instance of its own class.  The default
    ``__init__`` takes the fields in slot order; a subclass's own sets
    them with ``object.__setattr__``.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class VarietyFamily(Frozen):
    """C_n(X) for X = (A^1 minus S)^d: d-tuples of commuting matrices
    none of which has an eigenvalue in S.

    A family states d as ``dim`` and S as ``avoided``, each a field or a
    class attribute, and its builtin variety ``name``; every rule below
    reads only d and S.  The concrete classes bind ``matrix_ok`` in
    their own bodies because the benchmark's tracer
    (``perfbench/tracer.py``) wraps it in each class's own ``__dict__``.
    """

    __slots__ = ()

    @property
    def tuple_len(self) -> int:
        return self.dim

    def is_curve(self) -> bool:
        return self.dim == 1

    def shifts(self, p: int) -> tuple[int, ...]:
        """The values a in S mod p, for which M - a*I must be invertible."""
        reduced = tuple(a % p for a in self.avoided)
        if len(set(reduced)) != len(reduced):
            raise ValueError(f"avoided values {self.avoided} collide modulo {p}")
        return reduced

    def matrix_ok(self, mat, p: int) -> bool:
        """Whether M - a*I is invertible over F_p for every a in S.

        ``det_mod`` reduces mod p itself, so M is passed as it is for
        a = 0 and shifted without reduction otherwise.
        """
        for a in self.avoided:
            shifted = mat if not a else tuple(
                tuple(x - a if i == j else x for j, x in enumerate(row))
                for i, row in enumerate(mat)
            )
            if det_mod(shifted, p) == 0:
                return False
        return True


class AffineSpace(VarietyFamily):
    """d-tuples of commuting matrices: S is empty."""

    __slots__ = ("dim",)
    name = "affine"
    avoided = ()
    matrix_ok = VarietyFamily.matrix_ok

    def __init__(self, dim: int = 1):
        if dim < 1:
            raise ValueError("affine dimension must be >= 1")
        object.__setattr__(self, "dim", dim)

    def describe(self) -> str:
        return f"affine space of dimension {self.dim}"


class Torus(VarietyFamily):
    """d-tuples of commuting invertible matrices: S = {0}."""

    __slots__ = ("dim",)
    name = "torus"
    avoided = (0,)
    matrix_ok = VarietyFamily.matrix_ok

    def __init__(self, dim: int = 1):
        if dim < 1:
            raise ValueError("torus dimension must be >= 1")
        object.__setattr__(self, "dim", dim)

    def describe(self) -> str:
        return f"torus of dimension {self.dim}"


class PuncturedLine(VarietyFamily):
    """Single matrices with no eigenvalue among the avoided values: d = 1."""

    __slots__ = ("avoided",)
    name = "punctured"
    dim = 1
    matrix_ok = VarietyFamily.matrix_ok

    def __init__(self, avoided: tuple[int, ...] = (0, 1)):
        if len(set(avoided)) != len(avoided):
            raise ValueError("avoided values must be distinct")
        object.__setattr__(self, "avoided", avoided)

    def describe(self) -> str:
        return "affine line avoiding " + ",".join(str(a) for a in self.avoided)


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


def commute(a, b, p: int) -> bool:
    """Whether ab = ba over Z/p, compared entry by entry."""
    n = range(len(a))
    return all(
        sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in n) % p == 0 for i in n for j in n
    )


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


def _solutions(basis: tuple, size: int, p: int) -> Iterator[tuple]:
    """Every x in F_p^size with row . x = 0 for each row of ``basis``, once.

    The free coordinates, those that are no row's pivot, run over F_p.
    Each row of a reduced basis is 1 at its pivot and 0 at the other
    rows' pivots, so the coordinate at its pivot is minus the row's
    linear form in the free coordinates.  An empty basis gives F_p^size.
    """
    pivots = {pivot for pivot, _ in basis}
    free = [j for j in range(size) if j not in pivots]
    forms = [
        (pivot, [(k, row[j]) for k, j in enumerate(free) if row[j]]) for pivot, row in basis
    ]
    x = [0] * size
    for values in product(range(p), repeat=len(free)):
        for j, v in zip(free, values):
            x[j] = v
        for pivot, form in forms:
            x[pivot] = -sum(c * values[k] for k, c in form) % p
        yield tuple(x)


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

    A one-matrix family is counted by ``_count_one_matrix``, memoised on
    the shifted row spaces, and visits no leaf.  Otherwise each matrix
    of the tuple runs over the common centralizer of the earlier ones,
    solved from [A, X] = 0 by Gaussian elimination mod p (all of
    M_n(F_p) for the first), and is kept if it passes
    ``family.matrix_ok``.  The number of ways to finish a tuple depends
    only on that centralizer and the depth reached, so it is computed
    once per distinct (reduced basis of the commutator equations, depth)
    and then looked up; the last matrix is counted without solving its
    own equations, and without visiting the centralizer when the family
    has no unit constraint (no ``shifts``): it has p^(n^2 - rank)
    elements.  The only candidates built and rejected are centralizer
    elements that fail ``matrix_ok``.  Single-threaded.

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

    def finish(equations: tuple, depth: int) -> int:
        # The ways to choose the matrices from index ``depth`` on, each in
        # the common centralizer of the earlier ones, whose commutator
        # equations have the reduced basis ``equations``.
        key = (equations, depth)
        total = subtree.get(key)
        if total is not None:
            return total
        last = depth + 1 == family.tuple_len
        if last and not shifts:
            # no unit constraint: every centralizer element counts
            subtree[key] = total = p ** (n * n - len(equations))
            return total
        total = 0
        for x in _solutions(equations, n * n, p):
            mat = tuple(x[i * n : (i + 1) * n] for i in range(n))
            if not family.matrix_ok(mat, p):
                continue
            if last:
                total += 1
                continue
            grown = equations
            for eq in _commutator_equations(mat, p):
                grown = _grow(grown, eq, p) or grown
            total += finish(grown, depth + 1)
        subtree[key] = total
        return total

    return finish((), 0)

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
subtree is counted once per distinct common centralizer.

Both walks memoise one representative of each orbit of a symmetry
that keeps the number of ways to finish; the counts stay exact, and
the centralizer walk still tests every matrix it reaches.  In the row
walk it is an affine map phi(a) = alpha*a + beta of F_p with
phi(S) = S: M -> (M - beta*I)/alpha sends the state (W_a)_a to
(W_phi(a))_a.  In the centralizer walk,
x and alpha*x + beta*I (alpha != 0) have one centralizer, and at the
first matrix, whose centralizer is all of M_n(F_p), transposing every
later matrix matches the tuples that finish x with those that finish
x^T.  ``_count_one_matrix`` and ``count_points`` say why each is exact.

Within one count, two pure kernels are memoised where their inputs
recur often enough to pay for the hashing: ``_grow`` on (basis, row)
only in the row walk of a one-matrix family with two or more shifts,
and ``family.matrix_ok`` on the matrix, in a tuple of several; the
centralizer walk calls ``_grow`` directly.  These memos and the
subtree counts are each a ``functools.lru_cache`` with no size bound,
made inside the count: each holds one entry per distinct input it sees
and is freed when the count returns, so no cache outlives a count.  The two recursive walks, ``walk`` and ``finish``,
refer to themselves through their closure cells, so each is deleted
on return: that breaks the cycle, and reference counting frees the
memos at once rather than at the next garbage collection.
Nothing here knows about symmetric functions; from commvar it imports
only ``Frozen`` and ``is_prime`` (``arith``), and ``verify.cross_check``
compares the counts with the formula routes.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import permutations, product
from collections.abc import Callable, Iterator, Sequence

from .arith import Frozen, is_prime

DEFAULT_BUDGET = 2**28
BUDGET_ENV_VAR = "COMMVAR_BUDGET"


class BudgetExceededError(RuntimeError):
    """The requested enumeration is larger than the configured budget."""


def default_budget() -> int:
    """The budget from the environment: decimal digits with an optional
    '-', as the CLI's int options read them; unlike int(), no '_', '+'
    or blanks."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    if not raw.removeprefix("-").isdecimal():
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}")
    value = int(raw)
    if value <= 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be positive")
    return value


# -- variety families ---------------------------------------------------


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
        super().__init__(dim)

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
        super().__init__(dim)

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
        super().__init__(avoided)

    def describe(self) -> str:
        return "affine line avoiding " + ",".join(str(a) for a in self.avoided)


def family_for(name: str, dim: int = 1, avoided: tuple[int, ...] = (0, 1)) -> VarietyFamily:
    if name == "affine":
        return AffineSpace(dim)
    if name == "torus":
        return Torus(dim)
    if name == "punctured":
        return PuncturedLine(tuple(avoided))
    raise ValueError(f"no enumerable family for {name!r}")


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


def _as_matrix(x: tuple, n: int) -> tuple:
    """The n x n matrix whose row-major entries are ``x``."""
    return tuple(x[i * n : (i + 1) * n] for i in range(n))


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


def _rows_off_planes(planes: Sequence[tuple[tuple, int]], n: int, p: int, grow: Callable) -> int:
    """How many x in F_p^n have f . x != a * f[n-1] for every (f, a) in ``planes``.

    Inclusion-exclusion over the subsets of ``planes``, one plane at a
    time: each term is the flat where a subset meets, signed (-1)^size.
    A flat is the reduced basis of its planes' augmented rows
    (f | -a * f[n-1]).  A plane that holds a flat cancels that term, so
    it is dropped; a grown flat with a pivot in the last column is empty
    (the plane misses the flat), so it is not added.  The answer is the
    sum of sign * p^(n - rank).  ``grow`` is ``_grow`` or a memoised
    one, so that a caller can share its memo.
    """
    terms = [((), 1)]
    for f, a in planes:
        row = f + (-a * f[-1] % p,)
        kept = []
        for flat, sign in terms:
            grown = grow(flat, row, p)
            if grown is None:
                continue
            kept.append((flat, sign))
            if grown[-1][0] != n:
                kept.append((grown, -sign))
        terms = kept
    return sum(sign * p ** (n - len(flat)) for flat, sign in terms)


def _shift_permutations(shifts: tuple[int, ...], p: int) -> list[tuple[int, ...]]:
    """The affine maps a -> alpha*a + beta of F_p (alpha != 0) that map
    the set of ``shifts`` onto itself, each as the permutation whose
    entry k is the index of the image of shifts[k].

    An affine map is fixed by the images of two distinct points, so the
    maps tried are the at most k(k-1) that send the first two shifts to
    an ordered pair of shifts; F_p itself is never looped over.  With
    fewer than two shifts every such map permutes nothing, and the
    identity alone is returned.
    """
    k = len(shifts)
    if k < 2:
        return [tuple(range(k))]
    index = {a: j for j, a in enumerate(shifts)}
    s0, s1 = shifts[:2]
    inv = pow(s0 - s1, p - 2, p)
    perms = []
    for t0, t1 in permutations(shifts, 2):
        alpha = (t0 - t1) * inv % p
        beta = (t0 - alpha * s0) % p
        perm = tuple(index.get((alpha * a + beta) % p) for a in shifts)
        if None not in perm:
            perms.append(perm)
    return perms


def _count_one_matrix(n: int, p: int, shifts: tuple[int, ...]) -> int:
    """The n x n matrices M over F_p with M - a*I invertible for each shift a.

    M is built row by row.  After i rows, W_a is the reduced basis of
    the rows of M - a*I so far, and the number of ways to finish depends
    only on (i, (W_a)_a), so ``walk`` is an ``lru_cache`` on that state.
    Row i is allowed when each W_a grows by row - a*e_i.  At the last
    row each W_a is a hyperplane with normal f_a, and the allowed rows
    are those off every plane f_a . x = a * f_a[n-1].

    The state is first put in a canonical form.  Let phi(a) = alpha*a +
    beta, alpha != 0, map the shift set S onto itself.  Then M -> M' =
    (M - beta*I) / alpha gives M' - a*I = (M - phi(a)*I) / alpha, so
    the state (W_a)_a becomes (W_phi(a))_a, and each later row changes
    by r -> (r - beta*e_j) / alpha, a bijection between the ways to
    finish the two states.  So the two states have the same count, and
    ``walk`` is called on the least of the states that these maps
    (``_shift_permutations``) give.  The maps are built only with n >= 2
    and two or more shifts: otherwise they permute nothing.

    With two or more shifts, one W_a recurs beside different others, so
    ``_grow`` is an ``lru_cache`` on (basis, row) for the count, shared
    with the last-row inclusion-exclusion.  With one shift no pair
    recurs: the dimension of W fixes i, each state is walked once, and
    distinct last spaces give distinct planes; ``_grow`` is called
    directly.
    """
    grow = lru_cache(maxsize=None)(_grow) if len(shifts) > 1 else _grow
    identity = tuple(range(len(shifts)))
    moves = [perm for perm in _shift_permutations(shifts, p) if perm != identity] if n > 1 else []

    @lru_cache(maxsize=None)
    def walk(i: int, spaces: tuple) -> int:
        if i == n - 1:
            planes = [(_nullspace(w, n, p)[0], a) for w, a in zip(spaces, shifts)]
            return _rows_off_planes(planes, n, p, grow)
        total = 0
        for row in product(range(p), repeat=n):
            grown = []
            for w, a in zip(spaces, shifts):
                g = grow(w, row[:i] + ((row[i] - a) % p,) + row[i + 1 :], p)
                if g is None:
                    break
                grown.append(g)
            else:
                state = tuple(grown)
                if moves:
                    state = min(state, *(tuple(state[j] for j in perm) for perm in moves))
                total += walk(i + 1, state)
        return total

    try:
        return walk(0, ((),) * len(shifts))
    finally:
        del walk  # breaks its self-reference; see the module docstring


def _orbit_key(x: tuple, n: int, p: int) -> tuple:
    """x - x_00*I scaled so that its first nonzero entry is 1.

    Every alpha*x + beta*I with alpha != 0 has this key, and all of them
    have the centralizer of x.  A scalar x has the zero key.
    """
    c = x[0]
    y = [(v - c) % p if k % (n + 1) == 0 else v for k, v in enumerate(x)]
    for v in y:
        if v:
            inv = pow(v, p - 2, p)
            return tuple(w * inv % p for w in y)
    return tuple(y)


def _transpose(x: tuple, n: int) -> tuple:
    """The row-major entries of the transpose of the matrix ``x``."""
    return tuple(x[j * n + i] for i in range(n) for j in range(n))


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
    only on that centralizer and the depth reached, so ``finish`` is an
    ``lru_cache`` on (reduced basis of the commutator equations, depth);
    the last matrix is counted without solving its
    own equations, and without visiting the centralizer when the family
    has no unit constraint (no ``shifts``): it has p^(n^2 - rank)
    elements.  The only candidates built and rejected are centralizer
    elements that fail ``matrix_ok``.  Single-threaded.

    A matrix recurs in many centralizers, so ``family.matrix_ok`` is an
    ``lru_cache`` on the matrix, made for the count and freed on return.
    ``_grow`` on (basis, equation) is called directly: only a quarter
    of those calls repeat an earlier input (Torus(2) at (3, 2) makes
    747, 564 of them distinct), and a memo spends on hashing its keys
    about what it saves.

    Within one ``finish`` call, x shares its subtree count with its
    orbit under x -> alpha*x + beta*I (alpha != 0).  These matrices lie
    in the common centralizer with x, as it holds I, and have the
    centralizer of x, so they give the same next centralizer.  The key
    is ``_orbit_key``: x - x_00*I scaled so its first nonzero entry is
    1.  ``accepted`` is still read on x itself, since for the torus
    x + beta*I can be singular where x is not.  At depth 0 only, the
    centralizer is all of M_n(F_p), and transposing the later matrices
    is a bijection between the ways to finish x and those to finish
    x^T: [A, B] = 0 iff [A^T, B^T] = 0, and det(B^T - a*I) =
    det(B - a*I).  So there the key is the smaller of those of x and
    x^T.  A deeper common centralizer need not be closed under
    transposition, and x keeps its own key.

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
    @lru_cache(maxsize=None)
    def accepted(x: tuple) -> bool:
        # family.matrix_ok is looked up on each call, as a tracer may wrap it
        return family.matrix_ok(_as_matrix(x, n), p)

    @lru_cache(maxsize=None)
    def finish(equations: tuple, depth: int) -> int:
        # The ways to choose the matrices from index ``depth`` on, each in
        # the common centralizer of the earlier ones, whose commutator
        # equations have the reduced basis ``equations``.
        last = depth + 1 == family.tuple_len
        if last and not shifts:
            # no unit constraint: every centralizer element counts
            return p ** (n * n - len(equations))
        total = 0
        orbits = {}
        for x in _solutions(equations, n * n, p):
            if not accepted(x):
                continue
            if last:
                total += 1
                continue
            key = _orbit_key(x, n, p)
            if depth == 0:
                key = min(key, _orbit_key(_transpose(x, n), n, p))
            ways = orbits.get(key)
            if ways is None:
                grown = equations
                for eq in _commutator_equations(_as_matrix(x, n), p):
                    grown = _grow(grown, eq, p) or grown
                ways = orbits[key] = finish(grown, depth + 1)
            total += ways
        return total

    try:
        return finish((), 0)
    finally:
        del finish  # breaks its self-reference; see the module docstring

"""Brute-force ground truth over small prime fields.

Exhaustively enumerates tuples of commuting matrices for the built-in
variety families and counts the points that satisfy the family's unit
constraints.  Nothing here knows about symmetric functions; the counts
are later compared four ways against the character-level formulas.
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


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_power_base(q: int) -> tuple[int, int]:
    """Decompose q = p**k with p prime; raises for non prime powers."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, k
    raise ValueError(f"{q} is not a prime power")


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


def _iter_matrices(n: int, p: int) -> Iterator[tuple]:
    """All n x n matrices over F_p in row-major lexicographic entry order."""
    for entries in product(range(p), repeat=n * n):
        yield tuple(entries[i * n : (i + 1) * n] for i in range(n))


# -- counting ----------------------------------------------------------------


def search_space_size(family: VarietyFamily, n: int, p: int) -> int:
    return p ** (family.tuple_len * n * n)


def count_points(family: VarietyFamily, n: int, p: int, budget: int | None = None) -> int:
    """Exact number of F_p points by exhaustive enumeration.

    Enumerates matrices in row-major lexicographic order, checking the
    family constraint per matrix and commutativity incrementally so a
    failing pair prunes the remaining inner loops.  Single-threaded.
    """
    if not is_prime(p):
        raise ValueError(f"the enumerator works over prime fields only, got {p}")
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    if isinstance(family, PuncturedLine):
        family.reduced_avoided(p)
    if budget is None:
        budget = default_budget()
    size = search_space_size(family, n, p)
    if size > budget:
        raise BudgetExceededError(
            f"search space {size} exceeds budget {budget}; "
            f"raise the budget to at least {size} to run this count"
        )

    def extend(chosen: tuple, depth: int) -> int:
        if depth == family.tuple_len:
            return 1
        total = 0
        for mat in _iter_matrices(n, p):
            if not family.matrix_ok(mat, p):
                continue
            if any(not commute(prev, mat, p) for prev in chosen):
                continue
            total += extend(chosen + (mat,), depth + 1)
        return total

    return extend((), 0)


# -- cross checking -----------------------------------------------------------


@dataclass(frozen=True)
class CrossCheck:
    """Four-way comparison of a brute-force count with the formula routes."""

    family: VarietyFamily
    n: int
    q: int
    oracle_count: int
    formula_count: object
    series_lhs_count: object
    series_rhs_count: object

    @property
    def ok(self) -> bool:
        return (
            self.oracle_count == self.formula_count
            and self.oracle_count == self.series_lhs_count
            and self.oracle_count == self.series_rhs_count
        )

    def describe(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"{self.family.describe()}, n={self.n}, q={self.q}: "
            f"oracle={self.oracle_count} formula={self.formula_count} "
            f"series-lhs={self.series_lhs_count} series-rhs={self.series_rhs_count} "
            f"[{status}]"
        )


def cross_check(family: VarietyFamily, n: int, q: int, space, budget=None) -> CrossCheck:
    """Compare the enumerated count against the three formula routes.

    ``space`` is the graded eigenvalue data of the same variety.  The
    comparison multiplies the normalized series coefficients back by
    the group order so all four numbers count matrix tuples.
    """
    from .charmodel import point_count
    from .series import groupoid_series

    if not family.is_curve():
        raise ValueError("cross_check applies to the curve families only")
    oracle_count = count_points(family, n, q, budget=budget)
    formula = point_count(space, n, q)
    report = groupoid_series(space, q, n)
    order = gl_order(n, q)
    lhs = report.lhs.coeff(n).evaluate(0) * order
    rhs = report.rhs.coeff(n).evaluate(0) * order
    return CrossCheck(family, n, q, oracle_count, formula, lhs, rhs)

"""Integer partitions and the combinatorial statistics attached to them.

Partitions index conjugacy classes and irreducible characters of the
symmetric group, so every symmetric-function computation in this
package is driven by the enumeration order fixed here:
reverse-lexicographic, (n) first and (1, ..., 1) last.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import factorial, prod
from typing import Iterator


class Partition:
    """A weakly decreasing tuple of positive integers.

    The exponential form (part -> multiplicity, cached at construction)
    feeds the centralizer order and the cycle-indexed trace products.
    """

    __slots__ = ("parts", "n", "exp")

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        if any(p < 1 for p in parts):
            raise ValueError(f"partition parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition parts must be weakly decreasing: {parts}")
        exp: dict[int, int] = {}
        for p in parts:
            exp[p] = exp.get(p, 0) + 1
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "n", sum(parts))
        object.__setattr__(self, "exp", tuple(sorted(exp.items())))

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({self.parts})"

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"

    # -- statistics ----------------------------------------------------

    def centralizer_order(self) -> int:
        """z = prod over parts i with multiplicity a of i**a * a!.

        The order of the centralizer of a permutation with this cycle
        type; n!/z is the size of the conjugacy class.
        """
        return prod(i**a * factorial(a) for i, a in self.exp)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return self
        cols = []
        for j in range(self.parts[0]):
            cols.append(sum(1 for p in self.parts if p > j))
        return Partition(cols)

    def hook_lengths(self) -> list[int]:
        """Hook lengths of all cells, row by row."""
        conj = self.conjugate().parts
        hooks = []
        for i, row in enumerate(self.parts):
            for j in range(row):
                hooks.append((row - j) + (conj[j] - i) - 1)
        return hooks

    def weighted_row_sum(self) -> int:
        """The statistic sum of (i-1)*parts[i] over rows i = 1, 2, ...

        Exponent of the leading monomial in the principal specialization
        of the corresponding Schur function.
        """
        return sum(i * p for i, p in enumerate(self.parts))

    def dimension(self) -> int:
        """Number of standard Young tableaux, by the hook length formula."""
        return factorial(self.n) // prod(self.hook_lengths())

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Accepts ``(3,2,1)``, ``3,2,1``, or exponential form ``1^1 2^1 3^1``."""
        text = text.strip()
        if not text or text in ("()", "[]"):
            return cls()
        if "^" in text:
            parts: list[int] = []
            for token in text.replace(",", " ").split():
                m = re.fullmatch(r"(\d+)\^(\d+)", token)
                if not m:
                    raise ValueError(f"bad exponential-form token {token!r}")
                parts.extend([int(m.group(1))] * int(m.group(2)))
            return cls(sorted(parts, reverse=True))
        body = text.strip("()[]")
        if not body:
            return cls()
        return cls(tuple(int(tok) for tok in body.replace(" ", "").split(",")))


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order."""
    if n < 0:
        raise ValueError("partitions of a negative integer")
    return tuple(Partition(p) for p in _gen_partitions(n, n))


def _gen_partitions(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _gen_partitions(n - first, first):
            yield (first,) + rest


def partition_count(n: int) -> int:
    return len(partitions_of(n))

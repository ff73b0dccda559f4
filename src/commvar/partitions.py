"""Integer partitions and the combinatorial statistics attached to them.

Partitions index conjugacy classes and irreducible characters of the
symmetric group, so every symmetric-function computation in this
package is driven by the enumeration order fixed here:
reverse-lexicographic, (n) first and (1, ..., 1) last.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from math import factorial, prod


class Partition(tuple):
    """A weakly decreasing tuple of positive integers.

    A partition is the tuple of its parts, so it compares and hashes as
    that tuple, and its slices are plain tuples.  Its size ``n`` and
    exponential form ``exp`` (part -> multiplicity pairs) are fixed at
    construction; ``exp`` feeds the centralizer order and the
    cycle-indexed trace products.
    """

    def __new__(cls, parts=()):
        parts = tuple(int(p) for p in parts)
        if any(p < 1 for p in parts):
            raise ValueError(f"partition parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition parts must be weakly decreasing: {parts}")
        exp: dict[int, int] = {}
        for p in parts:
            exp[p] = exp.get(p, 0) + 1
        self = super().__new__(cls, parts)
        object.__setattr__(self, "n", sum(parts))
        object.__setattr__(self, "exp", tuple(sorted(exp.items())))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def __repr__(self):
        return f"Partition({tuple(self)})"

    def __str__(self):
        return "(" + ",".join(str(p) for p in self) + ")"

    # -- statistics ----------------------------------------------------

    def centralizer_order(self) -> int:
        """z = prod over parts i with multiplicity a of i**a * a!.

        The order of the centralizer of a permutation with this cycle
        type; n!/z is the size of the conjugacy class.
        """
        return prod(i**a * factorial(a) for i, a in self.exp)

    def conjugate(self) -> "Partition":
        if not self:
            return self
        cols = []
        for j in range(self[0]):
            cols.append(sum(1 for p in self if p > j))
        return Partition(cols)

    def hook_lengths(self) -> list[int]:
        """Hook lengths of all cells, row by row."""
        conj = self.conjugate()
        hooks = []
        for i, row in enumerate(self):
            for j in range(row):
                hooks.append((row - j) + (conj[j] - i) - 1)
        return hooks

    def weighted_row_sum(self) -> int:
        """The statistic sum of (i-1)*parts[i] over rows i = 1, 2, ...

        Exponent of the leading monomial in the principal specialization
        of the corresponding Schur function.
        """
        return sum(i * p for i, p in enumerate(self))

    def dimension(self) -> int:
        """Number of standard Young tableaux, by the hook length formula."""
        return factorial(self.n) // prod(self.hook_lengths())

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Accepts ``(3,2,1)``, ``[3,2,1]`` or ``3,2,1`` (decimal parts, one
        matching bracket pair or none), or exponential form ``1^1 2^1 3^1``."""
        text = text.strip()
        if "^" in text:
            parts: list[int] = []
            for token in text.replace(",", " ").split():
                part, caret, count = token.partition("^")
                # isdecimal takes the Unicode decimal digits, as the pattern \d did
                if not (caret and part.isdecimal() and count.isdecimal()):
                    raise ValueError(f"bad exponential-form token {token!r}")
                parts.extend([int(part)] * int(count))
            return cls(sorted(parts, reverse=True))
        if text[:1] + text[-1:] in ("()", "[]"):
            text = text[1:-1].strip()
        if not text:
            return cls()
        tokens = [tok.strip() for tok in text.split(",")]
        if not all(tok.isdecimal() for tok in tokens):
            raise ValueError(f"bad partition {text!r}")
        return cls(tuple(int(tok) for tok in tokens))


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

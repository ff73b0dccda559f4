"""Integer partitions and the combinatorial statistics attached to them.

Partitions index conjugacy classes and irreducible characters of the
symmetric group, so every symmetric-function computation in this
package is driven by the enumeration order fixed here:
reverse-lexicographic, (n) first and (1, ..., 1) last.
"""

from __future__ import annotations

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


def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order, from the list
    ``_partitions`` caches.

    Each is (first,) + rest for first = n, ..., 1 and rest, in order,
    each partition of n - first with rest[0] <= first, read from the
    cached list of n - first.  These are valid by construction, so they
    are built by ``_extend`` without ``Partition``'s checks.
    """
    if n < 0:
        raise ValueError("partitions of a negative integer")
    return _partitions(n)


@lru_cache(maxsize=None)
def _partitions(n: int) -> tuple[Partition, ...]:
    # recursion through this private name, so that a wrapper of the
    # public ``partitions_of`` sees one call per list asked for
    if n == 0:
        return (Partition(),)
    out = []
    for first in range(n, 0, -1):
        out.extend(_extend(first, rest) for rest in _partitions(n - first) if rest[:1] <= (first,))
    return tuple(out)


def _extend(first: int, rest: Partition) -> Partition:
    """The partition (first,) + rest, for first >= rest[0]; unchecked."""
    exp = rest.exp
    if rest and rest[0] == first:
        exp = exp[:-1] + ((first, exp[-1][1] + 1),)
    else:
        exp = exp + ((first, 1),)
    self = tuple.__new__(Partition, (first, *rest))
    object.__setattr__(self, "n", first + rest.n)
    object.__setattr__(self, "exp", exp)
    return self

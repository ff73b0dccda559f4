"""Power sums, scalings and sums of symmetric functions that only the tests
build, and the border-strip lists of the character table by beta tuples.

The package builds its symmetric functions from terms directly; the
oracles and the examples in the tests write them as p_lam, c * f and
f + g.
"""

from commvar.arith import to_poly
from commvar.partitions import Partition, partitions_of
from commvar.symfunc import SymFunc, _positions


def power_sum(lam: Partition) -> SymFunc:
    """p_lam."""
    return SymFunc(lam.n, {lam: 1})


def scale(f: SymFunc, c) -> SymFunc:
    """c * f for a polynomial (or scalar) c."""
    c = to_poly(c)
    if not c:
        return SymFunc(f.degree)
    return SymFunc(f.degree, {key: value * c for key, value in f.terms.items()})


def add(f: SymFunc, g: SymFunc) -> SymFunc:
    """f + g for symmetric functions of one degree."""
    terms = dict(f.terms)
    for key, value in g.terms.items():
        terms[key] = terms.get(key, 0) + value
    return SymFunc(f.degree, terms)


def strips_by_beta_tuples(m: int, r: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """``symfunc._strips(m, r)`` from beta tuples, in the same order; oracle only.

    For each nu of m, the beta set of nu padded to len(nu) + r beads is
    walked from its highest bead down.  A strip moves a bead from b to a
    free position b + r, which takes its row i up to row k: rows k + 1
    to i gain one box each, row k gets the rest, and the strip's height
    is i - k.
    """
    where = _positions(m + r)
    table = []
    for nu in partitions_of(m):
        size = len(nu) + r
        parts = nu + (0,) * r
        betas = [p + size - 1 - i for i, p in enumerate(parts)]
        adds = []
        for i, b in enumerate(betas):
            if b + r in betas:
                continue
            k = i - sum(1 for x in betas[:i] if x < b + r)
            moved = tuple(p + 1 for p in parts[k:i])
            lam = parts[:k] + (parts[i] + r - i + k,) + moved + parts[i + 1 :]
            adds.append((where[tuple(p for p in lam if p)], -1 if (i - k) % 2 else 1))
        table.append(tuple(adds))
    return tuple(table)

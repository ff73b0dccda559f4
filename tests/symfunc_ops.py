"""Power sums, scalings and sums of symmetric functions that only the tests build.

The package builds its symmetric functions from terms directly; the
oracles and the examples in the tests write them as p_lam, c * f and
f + g.
"""

from commvar.arith import to_poly
from commvar.partitions import Partition
from commvar.symfunc import SymFunc


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

"""Polynomial-product routes for the series layer, kept as test oracles.

Each factor (1 - c t)^e is expanded as a ``TSeries`` of ``Poly``
coefficients and the factors are multiplied by ``TSeries.__mul__``; at
t = 1, (1 - u^a)^e is a ``Poly`` multiplied by ``Poly.__mul__`` and
cut modulo u^(M+1) (``cut``).
The production routes run on int rows and vectors instead
(``arith.euler_rows``, ``arith.euler_factor``).
"""

from math import comb

from commvar.arith import Poly, TSeries, euler_factor, to_poly


def one_minus_x_coeffs(e, order):
    """Integer coefficients of (1 - x)**e up to x**order, for any integer e.

    Nonnegative e is the finite binomial (-1)^k C(e, k); negative e is
    the series C(k - e - 1, k).
    """
    if e >= 0:
        return [(-1) ** k * comb(e, k) for k in range(order + 1)]
    return [comb(k - e - 1, k) for k in range(order + 1)]


def binomial_factor(c, e, order):
    """The expansion of (1 - c*t)**e to the given order."""
    c = to_poly(c)
    return TSeries(c**k * b for k, b in enumerate(one_minus_x_coeffs(e, order)))


def scale_t(series, factor):
    """Substitute t -> factor*t, coefficientwise multiplication by factor**n."""
    factor = to_poly(factor)
    return TSeries(c * factor**i for i, c in enumerate(series.coeffs))


def cut(p, M):
    """The polynomial p modulo x^(M+1)."""
    return Poly.from_ints(p.num[: M + 1], p.den)


def one_minus_power(a, e, order):
    """(1 - u^a)^e as a polynomial modulo u^(order+1); a >= 1."""
    return Poly.from_ints(one_minus_x_coeffs(e, order // a)).subst_power(a)


def stable_factors(space, M):
    """The pairs (a, e) of the residue-route product of (1 - u^a)^e."""
    betti = space.betti()
    factors = [(deg, b if deg % 2 else -b) for deg, b in sorted(betti.items()) if deg]
    for i in range(1, M // 2 + 1):
        factors += [(deg + 2 * i, b if deg % 2 else -b) for deg, b in sorted(betti.items())]
        factors.append((2 * i, 1))
    return factors


def stable_betti(space, M):
    """The residue-route limit as a product of ``one_minus_power`` factors."""
    acc = Poly.constant(1)
    for a, e in stable_factors(space, M):
        acc = cut(acc * one_minus_power(a, e, M), M)
    return acc


def stable_betti_by_repeated_passes(space, M):
    """The residue-route limit with each factor (1 - u^a)^e applied as
    |e| passes of ``euler_factor`` at e = 1 or e = -1, none of which
    takes the binomial loop."""
    v = [1]
    for a, e in stable_factors(space, M):
        for _ in range(abs(e)):
            v = euler_factor(v, a, 1 if e > 0 else -1, M)
    return Poly.from_ints(v)

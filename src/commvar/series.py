"""Zeta-type generating series and product-formula verification.

Three generating series are computed by two independent routes each and
compared coefficient by coefficient, exactly:

* the Betti zeta series of symmetric powers (finite product of
  geometric factors, one per Betti number);
* the sheaf-counting series whose coefficients are the stack Poincare
  values, against the doubly-indexed product of Betti zeta factors;
* the groupoid point-count series over a finite field, against the
  product of Weil zeta factors at geometrically shrinking arguments.

Every factor of the first two products is (1 - u^a t)^e, and the
products run on integer rows, one per power of t (``arith.euler_rows``);
no polynomial is multiplied.  The last product has infinitely many
non-unit factors, so its coefficients are evaluated in closed form: the
logarithm of the product is a geometric series in the field size,
summed exactly.  The point counts on the other side come from one
pass of the rank recurrence (``charmodel.point_counts``) and share no
code with it.

A series is a tuple of its t-coefficients, t^0 first, each a ``Poly``
in u (a constant for the groupoid series); ``SeriesReport`` holds the
two sides of a product formula as two such tuples.

The stabilization report compares the residue-route limit of the
commuting-space Betti numbers, the same factors at t = 1 applied to
one int vector by ``arith.mul_one_minus`` and ``arith.div_one_minus``,
with two finite ranks, read from one pass of the rank recurrence
``charmodel.rank_numerators`` cut modulo u^(u_order+1):
n N_n = sum_k w_k E_(n,k) N_(n-k), whose division by n is checked for a
remainder at every rank.
"""

from __future__ import annotations

from math import comb, lcm

from .arith import Poly, RatFunc, div_one_minus, euler_rows, mul_one_minus, ratio
from .charmodel import GradedSpace, point_counts, rank_numerators
from .oracle import Frozen, gl_order, prime_power_base


class SeriesReport(Frozen):
    """Two series compared coefficientwise, with an exact verdict.

    ``lhs`` and ``rhs`` hold the t-coefficients, t^0 first, as tuples of
    ``Poly`` of one length.  Each builder has already cut its columns to
    the orders it compares, so the verdict is exact equality, pair by
    pair.
    """

    __slots__ = ("lhs", "rhs")

    @property
    def first_mismatch(self) -> int | None:
        return next((n for n, (a, b) in enumerate(zip(self.lhs, self.rhs)) if a != b), None)

    @property
    def equal(self) -> bool:
        return self.first_mismatch is None

    def rows(self):
        for n, (a, b) in enumerate(zip(self.lhs, self.rhs)):
            yield n, a.render(), b.render()

    def verdict(self) -> str:
        if self.equal:
            return "equal"
        return f"mismatch at t^{self.first_mismatch}"


# -- Betti zeta ------------------------------------------------------------


def _zeta_factors(betti: dict[int, int], shift: int = 0) -> list[tuple[int, int]]:
    """The pairs (i + shift, -(-1)^i b_i): the Betti zeta at u^shift t."""
    return [(deg + shift, b if deg % 2 else -b) for deg, b in sorted(betti.items())]


def betti_zeta(space: GradedSpace, order: int) -> tuple[Poly, ...]:
    """Generating series of signed Poincare polynomials of symmetric powers.

    Computed as the finite product over cohomological degrees i of
    (1 - u^i t)^(-(-1)^i b_i); the t-coefficients t^0 .. t^order are
    polynomials in u.
    """
    if order < 0:
        raise ValueError("series order must be >= 0")
    return tuple(Poly.from_ints(row) for row in euler_rows(_zeta_factors(space.betti()), order))


# -- sheaf-counting product formula ------------------------------------------


def coh_series(space: GradedSpace, t_order: int, u_order: int) -> SeriesReport:
    """Stack Poincare series against the product of Betti zeta factors.

    The left side holds the stack Poincare series N_n / (u^2; u^2)_n
    modulo u^(u_order+1) for every n <= t_order: all N_n come from one
    ``rank_numerators`` pass cut at ``top = u_order``, and each is
    divided by 1 - u^(2j) for j = 1..n as a power series
    (``arith.div_one_minus``).  The right side is the product of the
    Betti zeta factors at t, u^2 t, u^4 t, ..., whose factors
    (1 - u^(i+2j) t)^(-(-1)^i b_i) run on integer rows cut modulo
    u^(u_order+1) (``arith.euler_rows``); it stops once an omitted
    factor would be congruent to 1 modulo u^(u_order+1).  Both sides are
    compared modulo (t^(t_order+1), u^(u_order+1)).
    """
    if t_order < 0 or u_order < 0:
        raise ValueError("orders must be >= 0")
    lhs = []
    for n, v in enumerate(rank_numerators(space, t_order, top=u_order)):
        for j in range(1, n + 1):
            v = div_one_minus(v, 2 * j, u_order)
        lhs.append(Poly.from_ints(v))
    betti = space.betti()
    factors = [f for j in range(u_order // 2 + 1) for f in _zeta_factors(betti, 2 * j)]
    rhs = tuple(Poly.from_ints(row) for row in euler_rows(factors, t_order, u_order))
    return SeriesReport(tuple(lhs), rhs)


# -- Weil zeta and the groupoid series -----------------------------------------


def weil_zeta_from_eigendata(space: GradedSpace, q: int) -> RatFunc:
    """Weil zeta function as a rational function in t.

    One factor (1 - eig*q*t) per eigenvalue, with multiplicity the
    signed dimension of its stratum: odd-degree strata contribute to
    the numerator, even-degree strata to the denominator.  Eigenvalue
    data is the arithmetic-Frobenius eigenvalue; an affine line is
    (deg 0, eig 1) -> 1/(1 - q t), while a torus adds (deg 1, eig 1/q)
    -> (1 - t)/(1 - q t).  The exponents are merged per eigenvalue, so
    numerator and denominator share no linear factor: lowest terms.
    """
    num = Poly.constant(1)
    den = Poly.constant(1)
    for (n, d), e in _zeta_exponents(space, q).items():
        # 1 - (n/d) q t = (d - n q t) / d
        factor = Poly.from_ints((d, -n * q), d) ** abs(e)
        if e > 0:
            den = den * factor
        else:
            num = num * factor
    return RatFunc(num, den)


def _zeta_exponents(space: GradedSpace, q: int) -> dict[tuple[int, int], int]:
    """Each eigenvalue n/d, as the pair (n, d), to its nonzero signed
    multiplicity e: the Weil zeta is the product of (1 - n/d q t)^(-e)."""
    prime_power_base(q)
    exponents: dict[tuple[int, int], int] = {}
    for s in space.resolve(q):
        key = ratio(s.eig)
        exponents[key] = exponents.get(key, 0) + (-s.dim if s.deg % 2 else s.dim)
    return {key: e for key, e in exponents.items() if e}


def weil_zeta_digits(space: GradedSpace, q: int) -> int:
    """A bound on the decimal digits of every int that the rendered
    ``weil_zeta_from_eigendata(space, q)`` holds, found without building it.

    The coefficients of (1 - c t)^|e|, c = n q / d, have numerators and
    denominators below (|n q| + d)^|e|, and those of a product below the
    product of the bounds.  Each printed int belongs to one side, the
    numerator (e < 0) or the denominator (e > 0), and both sides have
    constant term 1, so ``render`` rescales neither: the larger side's
    bound bounds them all.
    """
    bits = {True: 0, False: 0}
    for (n, d), e in _zeta_exponents(space, q).items():
        bits[e > 0] += abs(e) * (abs(n * q) + d).bit_length()
    return max(bits.values()) * 30103 // 100000 + 1


def groupoid_digits(space: GradedSpace, q: int, order: int) -> int:
    """A bound on the decimal digits of every int that the rendered rows
    of ``groupoid_series(space, q, order)`` hold, found without building
    them.

    Both sides print c_n = [t^n] exp sum_k w_k t^k / (k (1 - q^(-k))),
    n <= order, for the eigenvalue power sums w_k.  With e_v the signed
    multiplicity of the eigenvalue v (``_zeta_exponents``), E the sum of
    the |e_v| and V the largest |v|, |w_k| <= E V^k and
    1 / (1 - q^(-k)) <= 2, so |c_n| is at most the t^n coefficient
    binom(2E + n - 1, n) V^n of (1 - V t)^(-2E).  The denominator of c_n
    divides D^n |GL_n(F_q)|, D the lcm of the eigenvalue denominators
    (``charmodel.point_counts``), so with V = A / D its numerator is at
    most binom(2E + n - 1, n) A^n |GL_n(F_q)|.  Both grow with n.
    """
    if order < 1:
        return 1
    exponents = _zeta_exponents(space, q)
    D = lcm(*[d for _, d in exponents])
    A = max((abs(a) * (D // d) for a, d in exponents), default=0)
    E = sum(abs(e) for e in exponents.values())
    num = order * A.bit_length() + comb(2 * E + order - 1, order).bit_length()
    bits = max(num, order * D.bit_length()) + gl_order(order, q).bit_length()
    return bits * 30103 // 100000 + 1


def _series_log(coeffs: list[Poly]) -> list[Poly]:
    """a_n with log(sum z_n t^n) = sum a_n t^n / n; requires z_0 = 1."""
    if not coeffs or coeffs[0] != 1:
        raise ValueError("series logarithm needs constant term 1")
    a = [Poly()]
    for n in range(1, len(coeffs)):
        acc = coeffs[n] * n
        for m in range(1, n):
            acc = acc - a[m] * coeffs[n - m]
        a.append(acc)
    return a


def groupoid_series(space: GradedSpace, q: int, order: int) -> SeriesReport:
    """Point-count series against the infinite product of shrunk zeta factors.

    Left side: the formula point counts over the group order, from one
    ``charmodel.point_counts`` pass.  Right side: the product over
    i >= 1 of the Weil zeta at t/q^i.  The factors never become trivial
    at any finite cutoff, so the product is evaluated in closed form
    instead: its logarithm turns the i-sum into geometric series
    1/(q^m - 1), which is exact.  Both sides are one identity,
    log prod_(i>=1) Z(t/q^i) = sum_k w_k t^k / (k (1 - q^(-k))) for the
    eigenvalue power sums w_k, but share no code.  The enumerator is
    the independent check of a point count.
    """
    prime_power_base(q)
    if order < 0:
        raise ValueError("series order must be >= 0")
    counts = point_counts(space, order, q)
    lhs = [Poly.constant(1)] + [counts[n] / gl_order(n, q) for n in range(1, order + 1)]

    a = _series_log(weil_zeta_from_eigendata(space, q).series(order))
    rhs = [Poly.constant(1)]
    for n in range(1, order + 1):
        acc = Poly()
        for m in range(1, n + 1):
            acc = acc + a[m] * rhs[n - m] / (q**m - 1)
        rhs.append(acc / n)
    return SeriesReport(tuple(lhs), tuple(rhs))


# -- stabilization -------------------------------------------------------------


def stable_betti(space: GradedSpace, u_order: int) -> Poly:
    """Limit of the commuting-space Poincare polynomials, mod u^(u_order+1).

    Requires connected input (b_0 = 1).  Computed from the residue of
    the sheaf-counting product at t = 1: the simple pole of the i = 0
    factor is cancelled by (1 - t), every remaining factor is evaluated
    at t = 1, and the whole product is multiplied by the infinite
    Pochhammer at u^2.  Each factor (1 - u^a)^e is |e| calls of
    ``arith.mul_one_minus`` or ``arith.div_one_minus`` cut at u_order.
    """
    betti = space.betti()
    if betti.get(0, 0) != 1:
        raise ValueError(
            f"stabilization needs connected input (b_0 = 1), got b_0 = {betti.get(0, 0)}"
        )
    if u_order < 0:
        raise ValueError("u order must be >= 0")
    M = u_order
    # residue of the i = 0 factor: drop the b_0 pole, keep degrees >= 1;
    # then the factors at u^2, u^4, ... evaluated at t = 1
    factors = [f for f in _zeta_factors(betti) if f[0]]
    factors += [f for j in range(1, M // 2 + 1) for f in _zeta_factors(betti, 2 * j)]
    # infinite Pochhammer at u^2, truncated
    factors += [(2 * j, 1) for j in range(1, M // 2 + 1)]
    v = [1]
    for a, e in factors:
        for _ in range(abs(e)):
            v = mul_one_minus(v, a, M) if e > 0 else div_one_minus(v, a, M)
    return Poly.from_ints(v)


class StabilizationReport(Frozen):
    """Residue-route limit ``stable`` against the Poincare polynomials
    ``at_n`` and ``at_next`` of the ranks n and n + 1."""

    __slots__ = ("stable", "n", "at_n", "at_next")

    @property
    def ok(self) -> bool:
        return self.stable == self.at_n and self.stable == self.at_next


def stable_betti_verified(space: GradedSpace, u_order: int) -> StabilizationReport:
    """Certify the residue-route limit against finite ranks n and n+1.

    Stabilization is detected, never assumed: the Poincare polynomials
    at n = u_order and n = u_order + 1, modulo u^(u_order+1), must both
    equal the residue value.  Both come from one ``rank_numerators``
    pass cut at ``top = u_order``: the rank recurrence
    n N_n = sum_k w_k E_(n,k) N_(n-k), whose division by n is still
    checked for a remainder at every rank.
    """
    n = max(u_order, 1)
    stable = stable_betti(space, u_order)
    ranks = rank_numerators(space, n + 1, top=u_order)
    return StabilizationReport(stable, n, Poly.from_ints(ranks[n]), Poly.from_ints(ranks[n + 1]))

"""Polynomial-product routes for the series layer, kept as test oracles.

Each factor (1 - c t)^e is expanded as a ``TSeries`` of ``Poly``
coefficients and the factors are multiplied by ``TSeries.__mul__``; at
t = 1, (1 - u^a)^e is a ``Poly`` multiplied by ``Poly.__mul__`` and
cut modulo u^(M+1) (``cut``).
The production routes run on int rows and vectors instead
(``arith.euler_rows``, ``arith.euler_factor``).

The rank numerators have a second route here too: the log-derivative
recurrence ``rank_recurrence_by_log_derivative``, which divides by
1 - u^(2k) and by n and checks both divisions for a remainder, against
the division-free q-difference recurrence ``charmodel._rank_recurrence``.

So does the groupoid product prod_(i>=1) Z(t/q^i): its log/exp closed
form ``groupoid_product_by_log``, from the power series of the Weil zeta
Z (``power_series``) and its logarithm (``series_log``), against the
q-difference recurrence of ``series.groupoid_series``.

The Betti numbers and the unit-eigenvalue view of a space are read off
its strata here (``betti_numbers``, ``with_unit_eigenvalues``), so the
oracles apply the sign (-1)^deg themselves instead of reading the
letters of ``GradedSpace.betti_letters``.
"""

from math import comb

from commvar.arith import Poly, TSeries, add_product, euler_factor, to_poly
from commvar.charmodel import GradedSpace, Stratum


def betti_numbers(space):
    """{deg: b_deg}, the dimensions of the strata summed per degree."""
    out = {}
    for s in space:
        out[s.deg] = out.get(s.deg, 0) + s.dim
    return out


def with_unit_eigenvalues(space):
    """The space with every eigenvalue set to 1: its Betti data only."""
    return GradedSpace([Stratum(s.deg, s.dim) for s in space], name=space.name)


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
    betti = betti_numbers(space)
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


def power_series(f, order):
    """The t^0 .. t^order coefficients of the rational function f as
    constant Polys, by long division; f.den must not vanish at 0."""

    def coeff(p, k):
        return Poly.from_ints(p.num[k : k + 1], p.den)

    out = []
    for k in range(order + 1):
        acc = coeff(f.num, k)
        for j in range(1, k + 1):
            acc = acc - coeff(f.den, j) * out[k - j]
        out.append(acc / coeff(f.den, 0))
    return out


def series_log(coeffs):
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


def groupoid_product_by_log(zeta, q, order):
    """prod_(i>=1) Z(t/q^i) to t^order, for the Weil zeta Z, by its logarithm.

    With log Z = sum_n a_n t^n / n the i-sum of each term is geometric,
    log prod_(i>=1) Z(t/q^i) = sum_n a_n t^n / (n (q^n - 1)), so the
    coefficients g_n of the product satisfy
    n g_n = sum_(m=1..n) a_m g_(n-m) / (q^m - 1), g_0 = 1.
    """
    a = series_log(power_series(zeta, order))
    g = [Poly.constant(1)]
    for n in range(1, order + 1):
        acc = Poly()
        for m in range(1, n + 1):
            acc = acc + a[m] * g[n - m] / (q**m - 1)
        g.append(acc / n)
    return tuple(g)


def letter_weights(letters, N):
    """``weights[k - 1]``, the int terms (k d, c v^k) of w_k = sum c (v u^d)^k
    over the letters (d, v, c), for k = 1..N."""
    return [[(k * d, c * v**k) for d, v, c in letters if c * v] for k in range(1, N + 1)]


def rank_recurrence_by_log_derivative(weights, N, top=None):
    """Integer coefficients in u of N_0 .. N_N for int weights w_1 .. w_N.

    ``weights[k - 1]`` lists the int terms (d, c) of w_k = sum c u^d.
    With x = u^2, the numerators of sum_n N_n / (x; x)_n t^n =
    exp sum_k w_k t^k / (k (1 - x^k)) satisfy the log-derivative
    recurrence

        n N_n = sum_(k=1..n) w_k E_(n,k) N_(n-k),  N_0 = 1,
        E_(n,k) = prod_(j=n-k+1..n) (1 - x^j) / (1 - x^k).

    E_(n,k) N_(n-k) is R_(n-k) / (1 - x^k) for the running products
    R_m = N_m prod_(j=m+1..n) (1 - x^j): at each n every R_m takes one
    more factor and each term is one division, ``euler_factor`` at e = 1
    and at e = -1, then one ``add_product`` of w_k's terms.  Both
    divisions raise ValueError on a remainder.  With ``top = M`` every
    vector is cut modulo u^(M+1), so the first division is a
    power-series quotient; the division by n is still checked.
    Trailing zeros are stripped, so a zero polynomial is the empty list.
    """
    # factors 1 - u^(2j) with 2j > top are 1 modulo u^(top+1)
    jmax = N if top is None else top // 2
    ranks = [[1]]
    runs = [[1]]  # runs[m] = R_m at the current n; empty when N_m = 0
    for n in range(1, N + 1):
        if n <= jmax:
            runs = [euler_factor(v, 2 * n, 1, top) if v else v for v in runs]
        acc = []
        for k in range(1, n + 1):
            v = runs[n - k]
            if v:
                add_product(acc, weights[k - 1], euler_factor(v, 2 * k, -1, top), 1, top)
        if any(a % n for a in acc):
            raise ValueError(f"rank {n}: division by {n} left a remainder")
        acc = [a // n for a in acc]
        while acc and not acc[-1]:
            acc.pop()
        ranks.append(acc)
        runs.append(acc)
    return ranks

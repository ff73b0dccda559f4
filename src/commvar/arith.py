"""Exact univariate arithmetic.

Dense polynomials with rational coefficients, stored as one vector of
Python ints over one positive int denominator, and a rational scalar
(an eigenvalue, a point count, 1/z_lam) as a constant one, so rationals
run on ints everywhere and ``fractions`` is imported only by
``Poly.coeffs``, the Fraction view the tests read; rational functions
as a plain pair num / den, built in lowest terms by the code that makes
them and compared by cross-multiplication; and ``TSeries``, a truncated
power series in a counting variable whose coefficients are polynomials
in a second, grading variable.  A rational function appears only where
a denominator is printed or compared; the series layer carries neither,
only tuples of ``Poly``.  ``TSeries`` is the tests' product oracle; no
production path calls it.  There is no floating point anywhere; every
operation is exact, so equality of values is decidable: polynomials by
their normal form, rational functions by a * d == c * b.

The integer-vector kernel of the layers above lives here too: an int
list times one Euler factor (1 - x^a)^e for any int e
(``euler_factor``), exact with a remainder check or cut modulo
x^(M+1); the one accumulate step acc += scale * sum c x^d v, cut at
x^M (``add_product``), of the rank recurrence, the character sums and
``euler_rows``: the rows in x of a product of factors (1 - v x^a t)^e,
one per power of t, each factor one pass of its binomial terms, on
which the Betti zeta, the coh product and the rank recurrence run; the
cached Pochhammer (x^p; x^p)_n and its exact cofactors
(``pochhammer_ints``); the cyclotomic polynomials; and the one integer
long division, ``pseudo_divmod``, of ``Poly.__divmod__``, ``poly_gcd``,
the cyclotomic polynomials and the coh cancellation in ``charmodel``.
No production path calls ``poly_gcd`` or ``Poly.__divmod__``: they are
test oracles.  This bottom layer imports no other commvar module, and it
holds what the formula side and the enumerator (``oracle``) share:
``Frozen``, the base of every immutable value, and ``is_prime``,
``prime_power_base`` and ``gl_order``.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from math import comb, gcd as _igcd, lcm as _ilcm


class Frozen:
    """Base of a small immutable value with its fields in ``__slots__``.

    ``==``, ``hash`` and ``repr`` run over the fields in slot order, and
    an instance equals only an instance of its own class; a subclass may
    define its own.  ``__init__`` takes the fields in slot order and a
    subclass's own passes them on (``Poly``'s hot path sets its slots
    directly).  Assigning to a field raises "<Class> is immutable".
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


def ratio(c) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational scalar.

    An int, a constant ``Poly`` (the package's rational scalar), or any
    value with int ``numerator`` and ``denominator`` attributes, such as
    a ``fractions.Fraction``; the denominator of the result is positive
    and the pair is in lowest terms when the input is.
    """
    if isinstance(c, int):
        return int(c), 1  # a bool as 0 or 1
    if isinstance(c, Poly):
        if len(c.num) > 1:
            raise TypeError(f"expected a rational scalar, got the polynomial {c.render()}")
        return (c.num[0] if c.num else 0), c.den
    n, d = getattr(c, "numerator", None), getattr(c, "denominator", None)
    if type(n) is not int or type(d) is not int or d < 1:
        raise TypeError(f"expected an exact rational, got {type(c).__name__}")
    return n, d


class Poly(Frozen):
    """Dense univariate polynomial with rational coefficients.

    The coefficient of x^k is ``num[k] / den``: ``num`` is a tuple of
    ints by ascending exponent and ``den`` a positive int, kept in one
    normal form -- no trailing zeros, gcd(den, every entry of num) = 1,
    and the zero polynomial is ``num == ()``, ``den == 1`` with
    ``degree() == -1``.  Equal values therefore have equal (num, den),
    so ``==`` and ``hash`` compare tuples, and every ring operation runs
    on ints, printing included.  A rational scalar is a constant Poly:
    coefficients and operands may be ints, constant Polys or any value
    with int ``numerator`` and ``denominator`` (``ratio``), and ``/``
    divides by a nonzero scalar.  ``coeffs`` hands out the coefficients
    as ``fractions.Fraction`` values for the tests and imports
    ``fractions`` only when called.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable = ()):
        pairs = [ratio(c) for c in coeffs]
        den = _ilcm(*[d for _, d in pairs])
        num = [n * (den // d) for n, d in pairs] if den != 1 else [n for n, _ in pairs]
        num, den = _normal(num, den)
        _set_num(self, num)
        _set_den(self, den)

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c) -> "Poly":
        if type(c) is int:
            return _make((c,), 1) if c else _ZERO
        return cls((c,))

    @classmethod
    def monomial(cls, k: int, c=1) -> "Poly":
        if k < 0:
            raise ValueError("monomial exponent must be >= 0")
        return cls((0,) * k + (c,))

    @classmethod
    def from_ints(cls, num: Iterable[int], den: int = 1) -> "Poly":
        """The polynomial sum num[k] / den * x^k; den must be nonzero."""
        if den == 0:
            raise ZeroDivisionError("polynomial with zero denominator")
        num = list(num)
        if den < 0:
            num = [-c for c in num]
            den = -den
        return _make(*_normal(num, den))

    # -- basic queries -------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, by ascending exponent."""
        from fractions import Fraction

        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    def degree(self) -> int:
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == (1,) and self.den == 1

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("Poly", self.num, self.den))

    def __repr__(self):
        return f"Poly({self.render()})"

    def __str__(self):
        return self.render()

    # -- ring operations -----------------------------------------------

    @staticmethod
    def _coerce(other) -> "Poly":
        """other as a Poly when it is one or a rational scalar that
        ``ratio`` accepts, NotImplemented otherwise."""
        if isinstance(other, Poly):
            return other
        if type(other) is int:
            return Poly.constant(other)
        try:
            n, d = ratio(other)
        except TypeError:
            return NotImplemented
        return Poly.from_ints((n,), d)

    def __add__(self, other):
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _add(self, other.num, other.den)

    __radd__ = __add__

    def __neg__(self):
        return _make(tuple([-c for c in self.num]), self.den)

    def __sub__(self, other):
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _add(self, [-c for c in other.num], other.den)

    def __rsub__(self, other):
        return Poly._coerce(other) + (-self)

    def __mul__(self, other):
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.num, other.num
        if not a or not b:
            return _ZERO
        return _make(*_normal(_convolve(a, b), self.den * other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """The quotient by a nonzero rational scalar."""
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if len(other.num) != 1:
            if not other.num:
                raise ZeroDivisionError("polynomial division by zero")
            raise TypeError("division by a nonconstant polynomial; use RatFunc or divmod")
        return self * Poly.from_ints((other.den,), other.num[0])

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial; use RatFunc")
        result = Poly.constant(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __divmod__(self, other):
        """Quotient and remainder over the rationals, by ``pseudo_divmod``."""
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        q, rem, scale = pseudo_divmod(self.num, other.num)
        den = self.den * scale
        return (
            _make(*_normal([x * other.den for x in q], den)),
            _make(*_normal(rem, den)),
        )

    # -- substitution --------------------------------------------------

    def subst_power(self, k: int) -> "Poly":
        """The polynomial p(x**k)."""
        if k <= 0:
            raise ValueError("subst_power needs a positive exponent")
        if not self.num:
            return self
        out = [0] * ((len(self.num) - 1) * k + 1)
        out[::k] = self.num
        return _make(tuple(out), self.den)

    # -- rendering -----------------------------------------------------

    def render(self, var: str = "u") -> str:
        """Canonical text form, ascending degree: ``1 - u + 2*u^2``.

        A coefficient c / den prints as ``str(Fraction(c, den))`` would,
        from ints: c when den is 1 or divides c, otherwise a/b in lowest
        terms by one gcd.
        """
        if not self.num:
            return "0"
        den = self.den
        pieces = []
        for k, c in enumerate(self.num):
            if not c:
                continue
            mag = -c if c < 0 else c
            if den == 1:
                text = str(mag)
            else:
                g = _igcd(mag, den)
                text = str(mag // g) if g == den else f"{mag // g}/{den // g}"
            if k == 0:
                body = text
            else:
                varpart = var if k == 1 else f"{var}^{k}"
                body = varpart if text == "1" else f"{text}*{varpart}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)


_set_num = Poly.num.__set__
_set_den = Poly.den.__set__


def _make(num: tuple[int, ...], den: int) -> Poly:
    """A Poly from a pair already in normal form."""
    p = object.__new__(Poly)
    _set_num(p, num)
    _set_den(p, den)
    return p


def _normal(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """num / den in normal form; den must be positive."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return (), 1
    if den != 1:
        g = _igcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return tuple(num), den


_ZERO = _make((), 1)


def _add(p: Poly, b, db: int) -> Poly:
    """p + b / db for an int vector b."""
    a, da = p.num, p.den
    if da != db:
        g = _igcd(da, db)
        ma, mb = db // g, da // g
        a = [c * ma for c in a]
        b = [c * mb for c in b]
        da *= ma
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _make(*_normal(out, da))


def _convolve(a, b) -> list[int]:
    """The product of nonempty int vectors a, b."""
    out = [0] * (len(a) + len(b) - 1)
    terms = [(j, c) for j, c in enumerate(b) if c]
    for i, ca in enumerate(a):
        if ca:
            for j, cb in terms:
                out[i + j] += ca * cb
    return out


# -- integer long division and the gcd over the rationals -----------------

def pseudo_divmod(a, b) -> tuple[list[int], list[int], int]:
    """Integer pseudo-division of int vectors: s*a = q*b + r, len(r) < len(b).

    Coefficients ascend and b[-1] must be nonzero; r may end in zeros.
    The quotient q and remainder r are kept as ints over a common scale
    s > 0 (Knuth, TAOCP vol. 2, sec. 4.6.1).  s grows by lb / gcd(lb, top)
    only when the divisor's leading coefficient lb does not divide the
    top coefficient of r, so a monic divisor never scales: s = 1.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    lb = b[-1]
    rem = list(a)
    q = [0] * max(len(rem) - db, 0)
    scale = 1
    terms = [(j, c) for j, c in enumerate(b[:-1]) if c]
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if not c:
            continue
        g = _igcd(c, lb)
        m = lb // g
        if m < 0:
            m, g = -m, -g
        if m != 1:
            rem = [m * x for x in rem]
            q = [m * x for x in q]
            scale *= m
        f = c // g
        k = i - db
        q[k] = f
        rem[i] = 0
        for j, bc in terms:
            rem[k + j] -= f * bc
    return q, rem[:db], scale


def _primitive(ints: list[int]) -> list[int]:
    """ints without trailing zeros, divided by their content, leading entry > 0."""
    while ints and not ints[-1]:
        ints.pop()
    g = 0
    for c in ints:
        g = _igcd(g, abs(c))
        if g == 1:
            break
    if g == 0:
        return []
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd of two rational polynomials (zero if both are zero).

    Euclid's algorithm on primitive int vectors: content is stripped
    from every pseudo-remainder, which keeps the coefficient growth of
    the chain under control without subresultant bookkeeping.
    """
    A, B = _primitive(list(a.num)), _primitive(list(b.num))
    if len(A) < len(B):
        A, B = B, A
    while B:
        A, B = B, _primitive(pseudo_divmod(A, B)[1])
    if not A:
        return Poly()
    return Poly.from_ints(A, A[-1])


class RatFunc(Frozen):
    """Rational function in one variable: a pair ``num / den`` of Polys.

    The only invariant is a nonzero ``den``; the pair is not reduced.
    Every producer builds its value in lowest terms (see ``poincare``
    and ``weil_zeta_from_eigendata``), so no gcd runs here.  ``==``
    cross-multiplies, which is exact for any representatives; ``+`` and
    ``*`` return the cross-multiplied pair as it stands.  A RatFunc has
    no truth value of its own (every one is true): test zero with
    ``num.is_zero()``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        num = to_poly(num)
        den = to_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        super().__init__(num, den)

    # -- queries --------------------------------------------------------

    def as_poly(self) -> Poly:
        """num / den when den is a constant; ValueError naming den otherwise."""
        den = self.den
        if den.degree() > 0:
            monic = Poly.from_ints(den.num, den.num[-1])
            raise ValueError(f"not a polynomial: denominator {monic.render()} remains")
        return self.num if den.is_one() else self.num / den

    def __eq__(self, other) -> bool:
        if isinstance(other, RatFunc):
            return self.num * other.den == other.num * self.den
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == self.den * other

    def __repr__(self):
        return f"RatFunc({self.render()})"

    # -- exact arithmetic, not reduced -------------------------------------

    def __add__(self, other):
        if not isinstance(other, RatFunc):
            other = RatFunc(other)
        return RatFunc(self.num * other.den + self.den * other.num, self.den * other.den)

    def __mul__(self, other):
        if not isinstance(other, RatFunc):
            other = RatFunc(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    # -- rendering ---------------------------------------------------------

    def render(self, var: str = "u") -> str:
        """``num/den`` with den scaled to constant term 1 where it has
        one, so a pair in lowest terms prints the same whatever scalar
        it was built with."""
        num, den = self.num, self.den
        c0 = Poly.from_ints(den.num[:1], den.den)
        if c0 and not c0.is_one():
            num, den = num / c0, den / c0
        if den.is_one():
            return num.render(var)
        num_s = num.render(var)
        den_s = den.render(var)
        if sum(1 for c in num.num if c) > 1 or num_s.startswith("-"):
            num_s = f"({num_s})"
        if sum(1 for c in den.num if c) > 1:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"


def to_poly(value) -> Poly:
    """Coerce an int, a rational (``ratio``) or a Poly to Poly.

    A RatFunc is accepted only when its denominator is 1; otherwise
    ``as_poly`` raises ValueError.
    """
    if isinstance(value, Poly):
        return value
    if isinstance(value, RatFunc):
        return value.as_poly()
    return Poly.constant(value)


# -- integer coefficient vectors ------------------------------------------

def euler_factor(v, a: int, e: int, top: int | None = None) -> list[int]:
    """v * (1 - x^a)^e for an int vector v and any int e.

    With top = M the result is cut modulo x^(M+1), M + 1 entries long,
    so a division is the power-series quotient.  With top = None a
    product is the cut at M = len(v) - 1 + a e, which drops nothing, and
    a division must be exact: it raises ValueError on a remainder, which
    is there exactly when the top a |e| entries of the running quotient
    are nonzero.  1 - x^0 = 0.

    e = 1 is one vector difference and e = -1 the running sums
    q[k] += q[k - a].  Any other e is one pass of the binomial terms
    c_j x^(a j), c_j = (-1)^j C(|e|, j): multiplying adds c_j q[k - a j]
    to q[k] from the top entry down, dividing subtracts it from the
    bottom up, so q[k - a j] is already divided.  Cost: entry k of the
    result takes min(|e|, k // a) updates.
    """
    if a < 1:
        if a < 0:
            raise ValueError(f"a must be >= 0, got {a}")
        if e < 0:
            raise ZeroDivisionError("division by 1 - x^0 = 0")
        e = min(e, 1)  # (1 - x^0)^e is 0 for e >= 1
    if top is None and e > 0:
        top = len(v) - 1 + a * e
    if e == 1:
        v = list(v[: top + 1]) + [0] * (top + 1 - len(v))
        return v[:a] + [x - y for x, y in zip(v[a:], v)]
    q = list(v) if top is None else list(v[: top + 1]) + [0] * (top + 1 - len(v))
    if e == -1:
        for k in range(a, len(q)):
            q[k] += q[k - a]
    elif e:
        m = abs(e)
        coeffs = []  # a comprehension would make e and m closure cells before Python 3.12
        for j in range(1, min(m, (len(q) - 1) // a) + 1):
            coeffs.append((-1) ** (j + (e < 0)) * comb(m, j))
        for k in range(len(q) - 1, a - 1, -1) if e > 0 else range(a, len(q)):
            x = q[k]
            for j, c in enumerate(coeffs[: k // a], 1):
                x += c * q[k - a * j]
            q[k] = x
    if top is None and e < 0:
        if any(q[a * e :]):
            raise ValueError(f"division by (1 - x^{a})^{-e} left a remainder")
        del q[a * e :]
    return q


@lru_cache(maxsize=None)
def pochhammer_ints(n: int, power: int, parts: tuple[int, ...] = ()) -> tuple[int, ...]:
    """Integer coefficients of (x^p; x^p)_n / prod_i (1 - x^(p*parts_i)), p = power.

    With no parts this is the Pochhammer prod_(i=1..n) (1 - x^(p*i))
    itself; with parts it is divided, exactly and remainder-checked, by
    one factor per part.  For a partition of n no division leaves a
    remainder (Macdonald, Symmetric Functions and Hall Polynomials, I.3).
    """
    if parts:
        v = pochhammer_ints(n, power)
        for part in parts:
            v = euler_factor(v, power * part, -1)
        return tuple(v)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if power < 0:
        raise ValueError(f"power must be >= 0, got {power}")
    v = [1]
    for i in range(1, n + 1):
        v = euler_factor(v, power * i, 1)
    return tuple(v)


def add_product(acc: list[int], terms, v, scale: int = 1, top: int | None = None) -> None:
    """acc += scale * sum c x^d v over the int terms (d, c), in any order.

    A dense vector a is ``enumerate(a)``; c == 0 is skipped, acc is
    lengthened as needed, and with top = M entries past x^M are dropped.
    ``Poly.__mul__``, ``_add``, the e = 1 product of ``euler_factor`` and
    the subtraction of ``pseudo_divmod`` keep their own loops: each of them
    measured slower when routed through this one.
    """
    width = len(v)
    for d, c in terms:
        end = d + width if top is None else min(d + width, top + 1)
        if c and end > d:
            if len(acc) < end:
                acc.extend([0] * (end - len(acc)))
            f = c * scale
            acc[d:end] = [s + f * y for s, y in zip(acc[d:end], v)]


def euler_rows(factors, t_order: int, top: int | None = None) -> list[list[int]]:
    """The product of (1 - v x^a t)^e over the int triples (a, v, e) in
    ``factors``.

    Returns the rows 0..t_order: row k holds the int coefficients in x
    of t^k.  Each factor is the binomial pass of ``euler_factor`` with
    rows for entries: its term c_j v^j x^(a j) t^j adds (e > 0, top row
    down) or subtracts (e < 0, bottom row up) c_j v^j times row k - j,
    shifted by a j, to row k, one ``add_product`` term, so row k takes
    min(k, |e|) of them.  With top = M every row is cut modulo x^(M+1),
    so a factor with a > M is 1 and is skipped.
    """
    if t_order < 0:
        raise ValueError(f"t order must be >= 0, got {t_order}")
    rows: list[list[int]] = [[1]] + [[] for _ in range(t_order)]
    for a, v, e in factors:
        if a < 0:
            raise ValueError(f"a must be >= 0, got {a}")
        if top is not None and a > top:
            continue
        sign = 1 if e > 0 else -1
        coeffs = [sign * (-v) ** j * comb(abs(e), j) for j in range(1, min(abs(e), t_order) + 1)]
        for k in range(t_order, 0, -1) if e > 0 else range(1, t_order + 1):
            for j, c in enumerate(coeffs[:k], 1):
                add_product(rows[k], ((a * j, c),), rows[k - j], 1, top)
    return rows


@lru_cache(maxsize=None)
def cyclotomic_coeffs(d: int) -> tuple[int, ...]:
    """Integer coefficients of the cyclotomic polynomial Phi_d, ascending.

    u^d - 1 is the product of Phi_e over the divisors e of d.
    """
    if d < 1:
        raise ValueError("cyclotomic index must be >= 1")
    q = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            q, rem, _ = pseudo_divmod(q, cyclotomic_coeffs(e))
            if any(rem):
                raise ValueError(f"cyclotomic_coeffs({d}): division by Phi_{e} left a remainder")
    return tuple(q)


class TSeries(Frozen):
    """Power series in the counting variable t, truncated at a fixed order.

    Coefficients are polynomials in the grading variable, coerced by
    ``to_poly``.  The product of two series truncates to the smaller order.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = tuple(to_poly(c) for c in coeffs)
        if not cs:
            raise ValueError("a truncated series needs at least the t^0 term")
        super().__init__(cs)

    def __eq__(self, other):
        if isinstance(other, TSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        n = min(len(a), len(b))
        return TSeries(sum((a[i] * b[k - i] for i in range(k + 1)), Poly()) for k in range(n))


# -- prime fields ----------------------------------------------------------

# Miller-Rabin on the prime bases up to 41 decides primality exactly
# below this bound, the least strong pseudoprime to all of those bases
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises for a probable prime at or above
    ``PRIMALITY_BOUND``, where the test no longer decides."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= PRIMALITY_BOUND:
        raise ValueError(
            f"cannot decide whether {n} is prime: Miller-Rabin on the prime "
            f"bases up to 41 is exact only below {PRIMALITY_BOUND}"
        )
    return True


def _iroot(q: int, k: int) -> int:
    """floor(q ** (1/k)) for q >= 1, by Newton's method from above."""
    x = 1 << -(-q.bit_length() // k)
    while True:
        y = ((k - 1) * x + q // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power_root(q: int) -> tuple[int, int] | None:
    """(p, k) with q = p**k and p prime, or None if q is not a prime power.

    k is the largest exponent, at most log2(q), for which q is a perfect
    k-th power; q is a prime power exactly when that root is prime.
    """
    if q < 2:
        return None
    for k in range(q.bit_length() - 1, 0, -1):
        root = _iroot(q, k)
        if root**k == q:
            break
    return (root, k) if is_prime(root) else None


def prime_power_base(q: int) -> tuple[int, int]:
    """``prime_power_root``, raising for a q that is not a prime power."""
    base = prime_power_root(q)
    if base is None:
        raise ValueError(f"{q} is not a prime power")
    return base


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

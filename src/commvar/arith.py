"""Exact univariate arithmetic.

Dense polynomials over the rationals, rational functions kept in a
canonical form (coprime, monic denominator), and truncated power series
in a counting variable whose coefficients are rational functions in a
second, grading variable.  There is no floating point anywhere; every
operation is exact, so equality of values is decidable by comparing
canonical forms.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd as _igcd
from typing import Iterable, Union

#: The coefficient field.  fractions.Fraction already maintains the
#: invariants we need: gcd(|num|, den) = 1, den > 0, zero is 0/1.
Rational = Fraction

Scalar = Union[int, Fraction]


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function at a zero of its denominator."""


def _as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected an exact rational, got {type(c).__name__}")


class Poly:
    """Dense univariate polynomial with Fraction coefficients.

    Coefficients are stored by ascending exponent with no trailing
    zeros, so the zero polynomial has an empty coefficient tuple and
    ``degree() == -1``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c: Scalar) -> "Poly":
        return cls((c,))

    @classmethod
    def monomial(cls, k: int, c: Scalar = 1) -> "Poly":
        if k < 0:
            raise ValueError("monomial exponent must be >= 0")
        return cls((0,) * k + (c,))

    # -- basic queries -------------------------------------------------

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (Fraction(1),)

    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def constant_term(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def __repr__(self):
        return f"Poly({self.render()})"

    # -- ring operations -----------------------------------------------

    @staticmethod
    def _coerce(other) -> "Poly":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(other)
        return NotImplemented

    def __add__(self, other):
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return Poly._coerce(other) + (-self)

    def __mul__(self, other):
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

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
        other = Poly._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db = other.degree()
        lb = other.leading()
        q = [Fraction(0)] * max(len(rem) - db, 0)
        while len(rem) - 1 >= db and rem:
            k = len(rem) - 1 - db
            f = rem[-1] / lb
            q[k] = f
            for j, c in enumerate(other.coeffs):
                if c:
                    rem[j + k] -= f * c
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(q), Poly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("exact_div: division left a remainder")
        return q

    # -- analysis ------------------------------------------------------

    def evaluate(self, x: Scalar) -> Fraction:
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def subst_power(self, k: int) -> "Poly":
        """The polynomial p(x**k)."""
        if k <= 0:
            raise ValueError("subst_power needs a positive exponent")
        if not self.coeffs:
            return self
        out = [Fraction(0)] * ((len(self.coeffs) - 1) * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return Poly(out)

    def truncate(self, order: int) -> "Poly":
        """Drop all terms of exponent > order."""
        return Poly(self.coeffs[: order + 1])

    def mul_trunc(self, other: "Poly", order: int) -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [Fraction(0)] * (min(order, len(a) + len(b) - 2) + 1)
        for i, ca in enumerate(a):
            if ca == 0 or i > order:
                continue
            for j, cb in enumerate(b):
                if i + j > order:
                    break
                if cb:
                    out[i + j] += ca * cb
        return Poly(out)

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lc = self.leading()
        if lc == 1:
            return self
        return Poly(tuple(c / lc for c in self.coeffs))

    # -- rendering -----------------------------------------------------

    def render(self, var: str = "u") -> str:
        """Canonical text form, ascending degree: ``1 - u + 2*u^2``."""
        if not self.coeffs:
            return "0"
        pieces = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = -c if c < 0 else c
            if k == 0:
                body = str(mag)
            else:
                varpart = var if k == 1 else f"{var}^{k}"
                body = varpart if mag == 1 else f"{mag}*{varpart}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)


# -- polynomial gcd over the rationals --------------------------------

def _int_coeffs(p: Poly) -> list[int]:
    """Scale a rational polynomial to a primitive integer one."""
    if p.is_zero():
        return []
    den_lcm = 1
    for c in p.coeffs:
        den_lcm = den_lcm * c.denominator // _igcd(den_lcm, c.denominator)
    ints = [int(c * den_lcm) for c in p.coeffs]
    return _primitive(ints)


def _primitive(ints: list[int]) -> list[int]:
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
    """Monic gcd of two rational polynomials (zero if both are zero)."""
    A, B = _int_coeffs(a), _int_coeffs(b)
    if len(A) < len(B):
        A, B = B, A
    while B:
        A, B = B, _primitive_rem(A, B)
    if not A:
        return Poly()
    return Poly(A).monic()


def _primitive_rem(a: list[int], b: list[int]) -> list[int]:
    """Primitive scaled remainder of a by b over the integers.

    Content is stripped at every elimination step, which keeps the
    coefficient growth of the Euclidean chain under control without
    subresultant bookkeeping.
    """
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    while r and len(r) - 1 >= db:
        k = len(r) - 1 - db
        if lb == 1 or lb == -1:
            factor = r[-1] * lb
        else:
            factor = r[-1]
            r = [lb * c for c in r]
        for j, bc in enumerate(b):
            r[j + k] -= factor * bc
        while r and r[-1] == 0:
            r.pop()
        r = _primitive(r)
    return r


class RatFunc:
    """Rational function in one variable, in canonical form.

    Invariants: the denominator is nonzero and monic, and numerator and
    denominator are coprime.  Canonical form makes ``==`` a decision
    procedure for equality of values.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        num = _to_poly(num)
        den = _to_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = Poly.constant(1)
        else:
            g = poly_gcd(num, den)
            if g.degree() > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            lc = den.leading()
            if lc != 1:
                num = num * (1 / lc)
                den = den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def _make(cls, num: Poly, den: Poly) -> "RatFunc":
        """Build from an already canonical pair, skipping normalization."""
        self = object.__new__(cls)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    @classmethod
    def of(cls, value) -> "RatFunc":
        if isinstance(value, RatFunc):
            return value
        return cls(value)

    # -- queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def as_poly(self) -> Poly:
        if not self.den.is_one():
            raise ValueError(
                f"not a polynomial: denominator {self.den.render()} remains"
            )
        return self.num

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (RatFunc, Poly, int, Fraction)):
            other = RatFunc.of(other)
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash(("RatFunc", self.num.coeffs, self.den.coeffs))

    def __repr__(self):
        return f"RatFunc({self.render()})"

    # -- field operations ------------------------------------------------

    def __add__(self, other):
        other = RatFunc.of(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        g = poly_gcd(b, d)
        if g.degree() <= 0:
            return RatFunc._canonical_pair(a * d + b * c, b * d)
        b1 = b.exact_div(g)
        d1 = d.exact_div(g)
        t = a * d1 + c * b1
        g2 = poly_gcd(t, g)
        if g2.degree() > 0:
            t = t.exact_div(g2)
            g = g.exact_div(g2)
        return RatFunc._canonical_pair(t, b1 * d1 * g, coprime=True)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._make(-self.num, self.den)

    def __sub__(self, other):
        return self + (-RatFunc.of(other))

    def __rsub__(self, other):
        return RatFunc.of(other) + (-self)

    def __mul__(self, other):
        other = RatFunc.of(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        g1 = poly_gcd(a, d)
        if g1.degree() > 0:
            a = a.exact_div(g1)
            d = d.exact_div(g1)
        g2 = poly_gcd(c, b)
        if g2.degree() > 0:
            c = c.exact_div(g2)
            b = b.exact_div(g2)
        return RatFunc._canonical_pair(a * c, b * d, coprime=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RatFunc.of(other)
        if other.is_zero():
            raise ZeroDivisionError("division of rational functions by zero")
        return self * RatFunc._canonical_pair(other.den, other.num, coprime=True)

    def __rtruediv__(self, other):
        return RatFunc.of(other) / self

    def __pow__(self, e: int):
        if e == 0:
            return RatFunc(1)
        if e < 0:
            return (RatFunc(1) / self) ** (-e)
        return RatFunc._make(self.num**e, self.den**e)

    @classmethod
    def _canonical_pair(cls, num: Poly, den: Poly, coprime: bool = False) -> "RatFunc":
        if num.is_zero():
            return cls._make(Poly(), Poly.constant(1))
        if not coprime:
            g = poly_gcd(num, den)
            if g.degree() > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
        lc = den.leading()
        if lc != 1:
            num = num * (1 / lc)
            den = den.monic()
        return cls._make(num, den)

    # -- evaluation and expansion -----------------------------------------

    def evaluate(self, x: Scalar) -> Fraction:
        x = _as_fraction(x)
        d = self.den.evaluate(x)
        if d == 0:
            raise PoleError(f"pole at {x}")
        return self.num.evaluate(x) / d

    def series(self, order: int) -> list[Fraction]:
        """Power series coefficients up to the given order.

        Requires the denominator to be invertible as a power series,
        i.e. nonzero constant term.
        """
        d0 = self.den.constant_term()
        if d0 == 0:
            raise PoleError("series expansion at a pole (denominator vanishes at 0)")
        num, den = self.num.coeffs, self.den.coeffs
        out: list[Fraction] = []
        for k in range(order + 1):
            acc = num[k] if k < len(num) else Fraction(0)
            for j in range(1, min(k, len(den) - 1) + 1):
                acc -= den[j] * out[k - j]
            out.append(acc / d0)
        return out

    def subst_power(self, k: int) -> "RatFunc":
        """The rational function f(x**k); canonical form is preserved."""
        return RatFunc._make(self.num.subst_power(k), self.den.subst_power(k))

    # -- rendering ---------------------------------------------------------

    def render(self, var: str = "u") -> str:
        if self.den.is_one():
            return self.num.render(var)
        num, den = self.num, self.den
        # display with denominator constant term 1 where possible; the
        # stored form stays monic for decidable equality
        c0 = den.constant_term()
        if c0 != 0 and c0 != 1:
            num = num * (1 / c0)
            den = den * (1 / c0)
        num_s = num.render(var)
        den_s = den.render(var)
        if sum(1 for c in num.coeffs if c) > 1 or num_s.startswith("-"):
            num_s = f"({num_s})"
        if sum(1 for c in den.coeffs if c) > 1:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"


def _to_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.constant(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a polynomial")


def binomial_series(c: RatFunc, e: int, order: int) -> list[RatFunc]:
    """Coefficients of (1 - c*t)**e in t, up to t**order, exact.

    Negative e expands as a geometric-type series; nonnegative e is a
    finite binomial.
    """
    out = [RatFunc(1)]
    if e >= 0:
        ck = RatFunc(1)
        for k in range(1, order + 1):
            if k > e:
                out.append(RatFunc(0))
                continue
            ck = ck * c
            sign = -1 if k % 2 else 1
            out.append(ck * (sign * comb(e, k)))
    else:
        ck = RatFunc(1)
        for k in range(1, order + 1):
            ck = ck * c
            out.append(ck * comb(k - e - 1, k))
    return out


class TSeries:
    """Power series in the counting variable t, truncated at a fixed order.

    Coefficients are rational functions in the grading variable.
    Arithmetic on two series truncates to the smaller order.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = tuple(RatFunc.of(c) for c in coeffs)
        if not cs:
            raise ValueError("a truncated series needs at least the t^0 term")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("TSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> RatFunc:
        return self.coeffs[n]

    @classmethod
    def one(cls, order: int) -> "TSeries":
        return cls([RatFunc(1)] + [RatFunc(0)] * order)

    @classmethod
    def binomial_factor(cls, c, e: int, order: int) -> "TSeries":
        """The expansion of (1 - c*t)**e to the given order."""
        return cls(binomial_series(RatFunc.of(c), e, order))

    def __eq__(self, other):
        if isinstance(other, TSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(("TSeries", self.coeffs))

    def __add__(self, other):
        n = min(self.order, other.order)
        return TSeries([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])

    def __sub__(self, other):
        n = min(self.order, other.order)
        return TSeries([self.coeffs[i] - other.coeffs[i] for i in range(n + 1)])

    def __mul__(self, other):
        n = min(self.order, other.order)
        out = []
        for k in range(n + 1):
            acc = RatFunc(0)
            for i in range(k + 1):
                a = self.coeffs[i]
                b = other.coeffs[k - i]
                if a and b:
                    acc = acc + a * b
            out.append(acc)
        return TSeries(out)

    def scale_t(self, factor) -> "TSeries":
        """Substitute t -> factor*t, coefficientwise multiplication by factor**n."""
        factor = RatFunc.of(factor)
        out = []
        fk = RatFunc(1)
        for i, c in enumerate(self.coeffs):
            if i:
                fk = fk * factor
            out.append(c * fk)
        return TSeries(out)

    def truncate(self, order: int) -> "TSeries":
        if order >= self.order:
            return self
        return TSeries(self.coeffs[: order + 1])

    def __repr__(self):
        return f"TSeries(order={self.order})"

    def render(self, var: str = "u", tvar: str = "t") -> str:
        lines = []
        for n, c in enumerate(self.coeffs):
            lines.append(f"{tvar}^{n}: {c.render(var)}")
        return "\n".join(lines)

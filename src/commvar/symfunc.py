"""Symmetric functions with polynomial coefficients.

Everything is stored in the power-sum basis, where the two pairings we
need are diagonal: the Hall inner product satisfies
``<p_lam, p_mu> = delta * z_lam`` and the principal specialization acts
by ``p_k -> 1/(1 - x^k)``.  The complete homogeneous and Schur bases
exist as conversion views; the change of basis to Schur functions goes
through symmetric-group character values computed by the
Murnaghan-Nakayama border-strip recursion.

Coefficients are polynomials in the grading variable.  The principal
specialization is the only operation that leaves the polynomial ring:
it is computed over the common denominator (x; x)_n, whose exact
quotient by every ``prod (1 - x^lam_i)`` is a polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .arith import Poly, RatFunc
from .partitions import Partition, partitions_of


def mn_character(lam: Partition, mu: Partition) -> int:
    """Irreducible character value chi^lam at cycle type mu.

    Both partitions must have the same size.  Values are computed by
    peeling border strips of length mu_1, with the sign given by the
    strip height; results are memoized on (lam, mu).
    """
    if lam.n != mu.n:
        raise ValueError(f"size mismatch: |{lam}| = {lam.n} but |{mu}| = {mu.n}")
    return _mn(lam.parts, mu.parts)


@lru_cache(maxsize=None)
def _mn(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    m = len(lam)
    betas = [lam[i] + (m - 1 - i) for i in range(m)]
    bset = set(betas)
    total = 0
    for b in betas:
        nb = b - r
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in betas if nb < x < b)
        newbetas = sorted((bset - {b}) | {nb}, reverse=True)
        newparts = tuple(
            p for p in (newbetas[i] - (m - 1 - i) for i in range(m)) if p > 0
        )
        value = _mn(newparts, rest)
        total += -value if height % 2 else value
    return total


@lru_cache(maxsize=None)
def _h_in_p(n: int) -> tuple[tuple[Partition, Fraction], ...]:
    # h_n = sum over mu of p_mu / z_mu
    return tuple(
        (mu, Fraction(1, mu.centralizer_order())) for mu in partitions_of(n)
    )


@lru_cache(maxsize=None)
def _schur_in_p(lam: Partition) -> tuple[tuple[Partition, Fraction], ...]:
    # s_lam = sum over mu of chi^lam(mu) p_mu / z_mu
    out = []
    for mu in partitions_of(lam.n):
        chi = mn_character(lam, mu)
        if chi:
            out.append((mu, Fraction(chi, mu.centralizer_order())))
    return tuple(out)


def _as_coeff(value) -> Poly:
    """Coerce a scalar or polynomial coefficient to Poly.

    A RatFunc is accepted only when its denominator is 1.
    """
    if isinstance(value, Poly):
        return value
    if isinstance(value, RatFunc):
        return value.as_poly()
    return Poly.constant(value)


def _concat(a: Partition, b: Partition) -> Partition:
    return Partition(sorted(a.parts + b.parts, reverse=True))


class SymFunc:
    """Homogeneous symmetric function of a fixed degree, in the p-basis.

    ``terms`` maps partitions of ``degree`` to polynomial (Poly)
    coefficients; zero coefficients are never stored.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms=None):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean: dict[Partition, Poly] = {}
        for key, value in (terms or {}).items():
            if not isinstance(key, Partition):
                key = Partition(key)
            if key.n != degree:
                raise ValueError(f"key {key} is not a partition of {degree}")
            value = _as_coeff(value)
            if value:
                clean[key] = value
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SymFunc is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def unit(cls) -> "SymFunc":
        return cls(0, {Partition(): 1})

    @classmethod
    def zero(cls, degree: int) -> "SymFunc":
        return cls(degree)

    @classmethod
    def from_p(cls, lam: Partition) -> "SymFunc":
        return cls(lam.n, {lam: 1})

    @classmethod
    def from_h(cls, lam: Partition) -> "SymFunc":
        result = cls.unit()
        for part in lam.parts:
            result = result * cls(part, dict(_h_in_p(part)))
        return result

    @classmethod
    def schur(cls, lam: Partition) -> "SymFunc":
        return cls(lam.n, dict(_schur_in_p(lam)))

    # -- basic algebra ----------------------------------------------------

    def coeff(self, lam: Partition) -> Poly:
        return self.terms.get(lam, Poly())

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, SymFunc):
            return self.degree == other.degree and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.degree, tuple(sorted(self.terms.items(), key=lambda kv: kv[0].parts))))

    def __add__(self, other: "SymFunc") -> "SymFunc":
        if self.degree != other.degree:
            raise ValueError("cannot add symmetric functions of different degrees")
        out = dict(self.terms)
        for key, value in other.terms.items():
            out[key] = out.get(key, Poly()) + value
        return SymFunc(self.degree, out)

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        return self + other.scale(-1)

    def scale(self, c) -> "SymFunc":
        c = _as_coeff(c)
        if not c:
            return SymFunc(self.degree)
        return SymFunc(
            self.degree, {key: value * c for key, value in self.terms.items()}
        )

    def __mul__(self, other: "SymFunc") -> "SymFunc":
        """Product in the ring of symmetric functions; degrees add."""
        out: dict[Partition, Poly] = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                key = _concat(ka, kb)
                prod = va * vb
                out[key] = out.get(key, Poly()) + prod
        return SymFunc(self.degree + other.degree, out)

    # -- pairings and specializations --------------------------------------

    def hall(self, other: "SymFunc") -> Poly:
        """Hall inner product, bilinear over the coefficient field.

        Components of different degrees pair to zero by convention, so
        graded characters can be paired degreewise.
        """
        if self.degree != other.degree:
            return Poly()
        acc = Poly()
        for lam in partitions_of(self.degree):
            a = self.terms.get(lam)
            if a is None:
                continue
            b = other.terms.get(lam)
            if b is None:
                continue
            acc = acc + a * b * lam.centralizer_order()
        return acc

    def to_schur(self) -> dict[Partition, Poly]:
        """Schur expansion coefficients c_lam with f = sum c_lam s_lam."""
        out: dict[Partition, Poly] = {}
        for lam in partitions_of(self.degree):
            acc = Poly()
            for mu, coeff in self.terms.items():
                chi = mn_character(lam, mu)
                if chi:
                    acc = acc + coeff * chi
            if acc:
                out[lam] = acc
        return out

    def principal_spec_numerator(self, power: int = 1) -> Poly:
        """Numerator of the principal specialization over (x^p; x^p)_n.

        Here p = power and n = degree.  The result N satisfies
        ``principal_spec(power) == N / q_pochhammer(n, power)``; it is
        the sum of c_lam * (x^p; x^p)_n / prod (1 - x^(p*lam_i)).  Every
        such quotient is exact because prod (1 - x^lam_i) divides
        (x; x)_n for each partition lam of n (Macdonald, Symmetric
        Functions and Hall Polynomials, I.3); a remainder raises.
        """
        pochhammer = q_pochhammer(self.degree, power)
        acc = Poly()
        for lam, coeff in self.terms.items():
            den = Poly.constant(1)
            for part in lam.parts:
                den = den * (Poly.constant(1) - Poly.monomial(power * part))
            acc = acc + coeff * pochhammer.exact_div(den)
        return acc

    def principal_spec(self, power: int = 1) -> RatFunc:
        """Principal specialization, p_k -> 1/(1 - x^(power*k)).

        With power=1 the ambient variable is read as the specialization
        variable itself; power=2 realizes the square-variable
        specialization used for Poincare polynomials, where the
        coefficients already live in the same variable.
        """
        return RatFunc(
            self.principal_spec_numerator(power), q_pochhammer(self.degree, power)
        )

    # -- rendering -----------------------------------------------------------

    def render(self, var: str = "u") -> str:
        return _render_basis(
            ((lam, self.terms[lam]) for lam in partitions_of(self.degree) if lam in self.terms),
            "p",
            var,
        )

    def render_schur(self, var: str = "u") -> str:
        schur = self.to_schur()
        return _render_basis(
            ((lam, schur[lam]) for lam in partitions_of(self.degree) if lam in schur),
            "s",
            var,
        )

    def __repr__(self):
        return f"SymFunc({self.render()})"


def _render_basis(items, symbol: str, var: str) -> str:
    pieces = []
    for lam, coeff in items:
        label = f"{symbol}[{','.join(str(p) for p in lam.parts)}]"
        rendered = coeff.render(var)
        if rendered == "1":
            sign, body = "+", label
        elif rendered == "-1":
            sign, body = "-", label
        elif " " in rendered or "/" in rendered:
            sign, body = "+", f"({rendered})*{label}"
        elif rendered.startswith("-"):
            sign, body = "-", f"{rendered[1:]}*{label}"
        else:
            sign, body = "+", f"{rendered}*{label}"
        if not pieces:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f"{sign} {body}")
    if not pieces:
        return "0"
    return " ".join(pieces)


def q_pochhammer(n: int, power: int = 1) -> Poly:
    """The product (1 - x^power)(1 - x^(2*power)) ... (1 - x^(n*power))."""
    acc = Poly.constant(1)
    for i in range(1, n + 1):
        acc = acc * (Poly.constant(1) - Poly.monomial(power * i))
    return acc

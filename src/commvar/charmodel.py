"""Character-level formulas built on graded Betti/Frobenius input data.

A variety enters the calculator only through its graded cohomology
data: a list of strata (degree, dimension, Frobenius eigenvalue).  From
that we assemble graded symmetric-group characters of tensor powers,
the graded character of the flag variety, signed Poincare polynomials
of the commuting-matrix spaces, and exact point-count values over a
chosen prime power.

Sign convention used throughout: the Poincare polynomial of a space is
``sum_i dim H^i * (-u)^i``, so odd cohomology enters negatively.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .arith import Poly, RatFunc
from .oracle import gl_order, prime_power_base
from .partitions import Partition, partitions_of
from .symfunc import SymFunc, q_pochhammer


class DescriptorError(ValueError):
    """A variety descriptor file is malformed; message names the field."""


@dataclass(frozen=True)
class QPower:
    """Symbolic eigenvalue q**k, resolved once a prime power is chosen."""

    k: int

    def resolve(self, q: int) -> Fraction:
        return Fraction(q) ** self.k

    def __str__(self):
        return f"q^{self.k}"


Eigenvalue = Union[Fraction, QPower]


def parse_eigenvalue(raw) -> Eigenvalue:
    """Exact rational like ``1/2`` or a deferred power like ``q^-1``."""
    if isinstance(raw, (int, Fraction)):
        return Fraction(raw)
    if isinstance(raw, str):
        text = raw.strip()
        m = re.fullmatch(r"q\^(-?\d+)", text)
        if m:
            return QPower(int(m.group(1)))
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse eigenvalue {raw!r}") from exc
    raise ValueError(f"cannot parse eigenvalue {raw!r}")


@dataclass(frozen=True)
class Stratum:
    deg: int
    dim: int
    eig: Eigenvalue = Fraction(1)


def _eig_sort_key(eig: Eigenvalue):
    if isinstance(eig, QPower):
        return (1, eig.k, 1)
    return (0, eig.numerator, eig.denominator)


class GradedSpace:
    """Graded cohomology data of a variety: (degree, dim, eigenvalue) strata.

    Canonical form merges strata with equal (degree, eigenvalue) by
    adding dimensions and sorts deterministically.  Eigenvalues default
    to 1 when only Betti data is supplied.
    """

    __slots__ = ("strata", "name")

    def __init__(self, strata, name: str | None = None):
        merged: dict[tuple, int] = {}
        for s in strata:
            if not isinstance(s, Stratum):
                s = Stratum(*s)
            if s.deg < 0:
                raise ValueError(f"cohomological degree must be >= 0, got {s.deg}")
            if s.dim < 1:
                raise ValueError(f"stratum dimension must be >= 1, got {s.dim}")
            key = (s.deg, s.eig)
            merged[key] = merged.get(key, 0) + s.dim
        canon = tuple(
            Stratum(deg, dim, eig)
            for (deg, eig), dim in sorted(
                merged.items(), key=lambda kv: (kv[0][0], _eig_sort_key(kv[0][1]))
            )
        )
        object.__setattr__(self, "strata", canon)
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError("GradedSpace is immutable")

    def __eq__(self, other):
        if isinstance(other, GradedSpace):
            return self.strata == other.strata
        return NotImplemented

    def __hash__(self):
        return hash(self.strata)

    def __repr__(self):
        label = self.name or "GradedSpace"
        body = ", ".join(f"(deg {s.deg}, dim {s.dim}, eig {s.eig})" for s in self.strata)
        return f"{label}[{body}]"

    # -- views ----------------------------------------------------------

    @classmethod
    def from_betti(cls, betti, name: str | None = None) -> "GradedSpace":
        """Build from (degree, dimension) pairs, eigenvalues set to 1."""
        return cls([Stratum(d, b) for d, b in betti if b], name=name)

    def betti(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for s in self.strata:
            out[s.deg] = out.get(s.deg, 0) + s.dim
        return out

    def poincare_poly(self) -> Poly:
        """Signed Poincare polynomial sum dim * (-u)^deg."""
        if not self.strata:
            return Poly()
        out = [Fraction(0)] * (max(s.deg for s in self.strata) + 1)
        for s in self.strata:
            out[s.deg] += (-1) ** s.deg * s.dim
        return Poly(out)

    def with_unit_eigenvalues(self) -> "GradedSpace":
        return GradedSpace(
            [Stratum(s.deg, s.dim, Fraction(1)) for s in self.strata], name=self.name
        )

    def resolve(self, q: int) -> "GradedSpace":
        """Substitute the chosen prime power into symbolic eigenvalues."""
        return GradedSpace(
            [
                Stratum(s.deg, s.dim, s.eig.resolve(q) if isinstance(s.eig, QPower) else s.eig)
                for s in self.strata
            ],
            name=self.name,
        )

    def has_symbolic_eigenvalues(self) -> bool:
        return any(isinstance(s.eig, QPower) for s in self.strata)

    def require_exact(self) -> None:
        if self.has_symbolic_eigenvalues():
            raise ValueError(
                "eigenvalues contain unresolved q^k tokens; supply -q to resolve them"
            )


def _int_field(entry: dict, field: str, where: str) -> int:
    # JSON integers only: true, 1.7, "2" and null are rejected, not coerced
    value = entry[field]
    if isinstance(value, bool) or not isinstance(value, int):
        raise DescriptorError(
            f"{where}: field '{field}' must be an integer, got {json.dumps(value)}"
        )
    return value


def parse_descriptor(obj, source: str = "<descriptor>") -> GradedSpace:
    if not isinstance(obj, dict):
        raise DescriptorError(f"{source}: top level must be an object")
    strata_raw = obj.get("strata")
    if not isinstance(strata_raw, list) or not strata_raw:
        raise DescriptorError(f"{source}: field 'strata' must be a nonempty list")
    strata = []
    for i, entry in enumerate(strata_raw):
        where = f"{source}: strata[{i}]"
        if not isinstance(entry, dict):
            raise DescriptorError(f"{where} must be an object")
        if "deg" not in entry:
            raise DescriptorError(f"{where}: missing field 'deg'")
        deg = _int_field(entry, "deg", where)
        dim = _int_field(entry, "dim", where) if "dim" in entry else 1
        eig_raw = entry.get("eigenvalue", 1)
        try:
            eig = parse_eigenvalue(eig_raw)
        except ValueError as exc:
            raise DescriptorError(f"{where}: field 'eigenvalue': {exc}") from None
        if deg < 0:
            raise DescriptorError(f"{where}: field 'deg' must be >= 0")
        if dim < 1:
            raise DescriptorError(f"{where}: field 'dim' must be >= 1")
        strata.append(Stratum(deg, dim, eig))
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise DescriptorError(f"{source}: field 'name' must be a string")
    return GradedSpace(strata, name=name)


def load_descriptor(path: str) -> GradedSpace:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DescriptorError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    return parse_descriptor(obj, source=path)


# -- trace products and enhanced characters ------------------------------


def eigen_power_sum(space: GradedSpace, i: int) -> Poly:
    """sum over strata of dim * (-1)^deg * u^(i*deg) * eig^i.

    The cycle-length-i weight of the space; the full trace of a twisted
    permutation is the product of these over the cycles.
    """
    space.require_exact()
    if not space.strata:
        return Poly()
    out = [Fraction(0)] * (max(s.deg for s in space.strata) * i + 1)
    for s in space.strata:
        out[s.deg * i] += s.dim * (-1) ** s.deg * s.eig**i
    return Poly(out)


def graded_trace_product(space: GradedSpace, lam: Partition) -> Poly:
    """Graded trace of (twist x permutation) on the tensor power.

    For a cycle type with a_i cycles of length i this is the product of
    the length-i weights raised to a_i; the identity cycle type gives
    the |lam|-th power of the signed Poincare polynomial.
    """
    acc = Poly.constant(1)
    for i, a in lam.exp:
        acc = acc * eigen_power_sum(space, i) ** a
    return acc


def enhanced_character(space: GradedSpace, n: int) -> SymFunc:
    """Graded, twist-aware symmetric-group character of the n-th tensor power.

    The p_lam coefficient is the graded trace product divided by the
    centralizer order z_lam.
    """
    if n < 0:
        raise ValueError("tensor power must be >= 0")
    terms = {}
    for lam in partitions_of(n):
        tr = graded_trace_product(space, lam)
        if tr:
            terms[lam] = tr * Fraction(1, lam.centralizer_order())
    return SymFunc(n, terms)


def enhanced_character_series(space: GradedSpace, order: int) -> list[SymFunc]:
    """Characters of all tensor powers 0..order via the exponential route.

    Expands exp(sum_i p_i/i * w_i * t^i) with the derivative recurrence
    n*C_n = sum_i w_i * (p_i * C_(n-i)); coefficientwise this must agree
    exactly with enhanced_character, which is the module's self-check.
    """
    if order < 0:
        raise ValueError("series order must be >= 0")
    weights = {i: eigen_power_sum(space, i) for i in range(1, order + 1)}
    coeffs = [SymFunc.unit()]
    for n in range(1, order + 1):
        acc = SymFunc.zero(n)
        for i in range(1, n + 1):
            w = weights[i]
            if not w:
                continue
            bump = SymFunc.from_p(Partition((i,))) * coeffs[n - i]
            acc = acc + bump.scale(w)
        coeffs.append(acc.scale(Fraction(1, n)))
    return coeffs


# -- flag variety --------------------------------------------------------


def flag_schur_coefficient(n: int, lam: Partition) -> Poly:
    """Graded multiplicity of the Schur piece in the flag character.

    Equals the q-Pochhammer (q;q)_n times the principal specialization
    of the Schur function, i.e. the specialization numerator; an exact
    polynomial (the q-analog of the standard tableaux count, with value
    dim at q = 1).
    """
    if lam.n != n:
        raise ValueError(f"{lam} is not a partition of {n}")
    return SymFunc.schur(lam).principal_spec_numerator()


def flag_character(n: int) -> SymFunc:
    """Graded character of the complete flag variety of rank n.

    Schur coefficients are the graded multiplicities evaluated at the
    square of the grading variable; at u = 1 this degenerates to the
    regular representation.
    """
    if n < 1:
        raise ValueError("flag rank must be >= 1")
    acc = SymFunc.zero(n)
    for lam in partitions_of(n):
        coeff = flag_schur_coefficient(n, lam).subst_power(2)
        acc = acc + SymFunc.schur(lam).scale(coeff)
    return acc


# -- Poincare polynomials --------------------------------------------------

SPACES = ("cn", "sn", "coh", "flag", "bgln")


def poincare(space_data: GradedSpace | None, n: int, space: str = "cn") -> RatFunc:
    """Signed Poincare polynomial (or series) of the chosen moduli space.

    cn / sn: (q;q)_n at u^2 times the squared-variable principal
    specialization of the graded character of the n-th power, i.e. its
    specialization numerator; an exact polynomial by construction.
    coh: the same without the Pochhammer factor (a rational function).
    flag: the q-factorial at u^2.  bgln: the inverse Pochhammer.
    Frobenius eigenvalues are ignored here.
    """
    kind = space.lower()
    if kind not in SPACES:
        raise ValueError(f"unknown space {space!r}; expected one of {SPACES}")
    if kind == "flag":
        if n < 1:
            raise ValueError("flag rank must be >= 1")
        acc = Poly.constant(1)
        for i in range(1, n + 1):
            acc = acc * Poly([1] * i).subst_power(2)
        return RatFunc(acc)
    if kind == "bgln":
        if n < 1:
            raise ValueError("rank must be >= 1")
        return RatFunc(1, q_pochhammer(n, power=2))
    if space_data is None:
        raise ValueError(f"space {space!r} needs variety data")
    if n < 0:
        raise ValueError("n must be >= 0")
    ch = enhanced_character(space_data.with_unit_eigenvalues(), n)
    if kind == "coh":
        return ch.principal_spec(power=2)
    return RatFunc(ch.principal_spec_numerator(power=2))


# -- point counts ------------------------------------------------------------


def point_count(space_data: GradedSpace, n: int, q: int) -> Fraction:
    """Formula value for the number of F_q points of the rank-n space.

    Group order times the principal specialization at 1/q of the
    twist-aware character with the grading variable set to 1.  This is
    an honest point count for smooth-curve data; for other inputs it is
    a well-defined formula value only.
    """
    prime_power_base(q)
    if n < 1:
        raise ValueError("n must be >= 1")
    resolved = space_data.resolve(q)
    qinv = Fraction(1, q)
    total = Fraction(0)
    for lam in partitions_of(n):
        tr = Fraction(1)
        for i, a in lam.exp:
            w = eigen_power_sum(resolved, i).evaluate(1)
            if w == 0:
                tr = Fraction(0)
                break
            tr *= w**a
        if tr == 0:
            continue
        weight = Fraction(1)
        for part in lam.parts:
            weight /= 1 - qinv**part
        total += tr / lam.centralizer_order() * weight
    return gl_order(n, q) * total

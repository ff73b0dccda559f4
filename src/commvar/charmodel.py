"""Character-level formulas built on graded Betti/Frobenius input data.

A variety enters the calculator only through its graded cohomology
data: a list of strata (degree, dimension, Frobenius eigenvalue).  From
that we assemble graded symmetric-group characters of tensor powers,
the graded character of the flag variety, signed Poincare polynomials
of the commuting-matrix spaces, and exact point-count values over a
chosen prime power.

The Poincare polynomials and the point counts need no partition sums:
for weights w_k, the numerators N_n of sum_n N_n / (u^2; u^2)_n t^n =
exp sum_k w_k t^k / (k (1 - u^(2k))) satisfy the integer recurrence
n N_n = sum_k w_k E_(n,k) N_(n-k), where E_(n,k) is k consecutive
factors 1 - u^(2j) over 1 - u^(2k).  Its two divisions, by 1 - u^(2k)
and by n, are exact and are checked for a remainder.  ``rank_numerators``
runs it on the signed Betti power sums, ``point_counts`` on the
eigenvalue power sums at u = 1.  The character-sum route, (u^2; u^2)_n
times the principal specialization of ``enhanced_character``, is the
test oracle of both; the enumerator is the independent check of a
point count.

Sign convention used throughout: the Poincare polynomial of a space is
``sum_i dim H^i * (-u)^i``, so odd cohomology enters negatively.
"""

from __future__ import annotations

from math import factorial, lcm

from .arith import (
    Poly,
    RatFunc,
    cofactor_ints,
    cyclotomic_coeffs,
    div_one_minus,
    mul_one_minus,
    pochhammer_ints,
    pseudo_divmod,
    ratio,
)
from .oracle import Frozen, prime_power_base
from .partitions import Partition, partitions_of
from .symfunc import SymFunc, q_pochhammer


class DescriptorError(ValueError):
    """A variety descriptor file is malformed; message names the field."""


# The largest cohomological degree a descriptor stratum may have, and
# the largest |k| of an eigenvalue q^k or a decimal eigenvalue d*10^k.
# The formulas build polynomials of degree about n * deg and numbers of
# about n * |k| digits of q, so a larger value is rejected while parsing,
# before anything is allocated.
MAX_DEG = 1000


class QPower(Frozen):
    """Symbolic eigenvalue q**k, resolved once a prime power is chosen."""

    __slots__ = ("k",)

    def resolve(self, q: int) -> Poly:
        k = self.k
        return Poly.constant(q**k) if k >= 0 else Poly.from_ints((1,), q**-k)

    def __str__(self):
        return f"q^{self.k}"


def _exponent(k: str, text: str, bad: ValueError) -> int:
    """The exponent k of ``text``, checked against ``MAX_DEG`` by its
    length before it is read; ``bad`` if int() cannot read it."""
    too_big = ValueError(f"the exponent of {text!r} must be at most {MAX_DEG} in absolute value")
    if len(k.lstrip("+-0")) > len(str(MAX_DEG)):
        raise too_big
    try:
        value = int(k)
    except ValueError:  # more digits, leading zeros included, than int() reads
        raise bad from None
    if abs(value) > MAX_DEG:
        raise too_big
    return value


def _signed_digits(text: str, signs: str) -> bool:
    """Whether text is decimal digits after at most one of ``signs``."""
    return (text[1:] if text[:1] and text[0] in signs else text).isdecimal()


def parse_eigenvalue(raw) -> Poly | QPower:
    """An exact rational, as a constant Poly, or a deferred power q^k.

    A string is stripped of surrounding whitespace and must then be
    ``q^k`` with k decimal digits after an optional ``-``, or a number:
    an optional sign, then either ``a/b`` (b nonzero) or a decimal
    ``a.b``, where either side of the point, or the point itself, may be
    left out, with an optional exponent: ``e`` or ``E``, an optional
    sign and digits.  Digits are the Unicode decimal digits, those that
    ``str.isdecimal`` and ``int`` take.  Whitespace or ``_`` inside is
    rejected, and so is an exponent above ``MAX_DEG`` in absolute value,
    before any number is built.  An int, or a value with int
    ``numerator`` and ``denominator``, is taken as it is; a bool is not.
    """
    bad = ValueError(f"cannot parse eigenvalue {raw!r}")
    if not isinstance(raw, str):
        if isinstance(raw, bool):
            raise bad
        try:
            n, d = ratio(raw)
        except TypeError:
            raise bad from None
        return Poly.from_ints((n,), d)
    text = raw.strip()
    if any(c == "_" or c.isspace() for c in text):
        raise bad
    if text.startswith("q^"):
        if not _signed_digits(text[2:], "-"):
            raise bad
        return QPower(_exponent(text[2:], text, bad))
    body = text[1:] if text[:1] in ("+", "-") else text
    whole, slash, rest = body.partition("/")
    frac, k = "", 0
    if slash:
        if not (whole.isdecimal() and rest.isdecimal()):
            raise bad
    else:
        mantissa, e, exp = body.replace("E", "e").partition("e")
        whole, _, frac = mantissa.partition(".")
        if not (whole or frac) or not all(p.isdecimal() for p in (whole, frac) if p):
            raise bad
        if e:
            if not _signed_digits(exp, "+-"):
                raise bad
            k = _exponent(exp, text, bad)
    try:
        n = int(whole or "0") * 10 ** len(frac) + int(frac or "0")
        d = int(rest) if slash else 10 ** len(frac)
    except ValueError:  # more digits than int() reads
        raise bad from None
    if not d:
        raise bad
    n, d = (n * 10**k, d) if k >= 0 else (n, d * 10**-k)
    return Poly.from_ints((-n if text[0] == "-" else n,), d)


class Stratum(Frozen):
    __slots__ = ("deg", "dim", "eig")

    def __init__(self, deg: int, dim: int, eig: Poly | QPower = 1):
        # an int or a Fraction-like eigenvalue becomes a constant Poly
        if not isinstance(eig, (Poly, QPower)):
            eig = Poly.constant(eig)
        object.__setattr__(self, "deg", deg)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "eig", eig)


def _eig_sort_key(eig: Poly | QPower):
    if isinstance(eig, QPower):
        return (1, eig.k, 1)
    return (0, *ratio(eig))


class GradedSpace(tuple):
    """Graded cohomology data of a variety: a tuple of (degree, dim,
    eigenvalue) strata.

    The tuple is the canonical form: strata with equal (degree,
    eigenvalue) are merged by adding dimensions and sorted
    deterministically, so two spaces are equal exactly when their strata
    are, whatever their ``name``.  ``GradedSpace(a + b)`` is the disjoint
    union.  Eigenvalues default to 1 when only Betti data is supplied.
    """

    def __new__(cls, strata, name: str | None = None):
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
        canon = sorted(merged.items(), key=lambda kv: (kv[0][0], _eig_sort_key(kv[0][1])))
        self = super().__new__(cls, (Stratum(deg, dim, eig) for (deg, eig), dim in canon))
        object.__setattr__(self, "name", name)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("GradedSpace is immutable")

    def __repr__(self):
        label = self.name or "GradedSpace"
        body = ", ".join(f"(deg {s.deg}, dim {s.dim}, eig {s.eig})" for s in self)
        return f"{label}[{body}]"

    # -- views ----------------------------------------------------------

    def betti(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for s in self:
            out[s.deg] = out.get(s.deg, 0) + s.dim
        return out

    def poincare_poly(self) -> Poly:
        """Signed Poincare polynomial sum dim * (-u)^deg."""
        return eigen_power_sum(self.with_unit_eigenvalues(), 1)

    def with_unit_eigenvalues(self) -> "GradedSpace":
        return GradedSpace([Stratum(s.deg, s.dim) for s in self], name=self.name)

    def resolve(self, q: int) -> "GradedSpace":
        """Substitute the chosen prime power into symbolic eigenvalues."""
        return GradedSpace(
            [
                Stratum(s.deg, s.dim, s.eig.resolve(q) if isinstance(s.eig, QPower) else s.eig)
                for s in self
            ],
            name=self.name,
        )

    def has_symbolic_eigenvalues(self) -> bool:
        return any(isinstance(s.eig, QPower) for s in self)

    def require_exact(self) -> None:
        if self.has_symbolic_eigenvalues():
            raise ValueError(
                "eigenvalues contain unresolved q^k tokens; supply -q to resolve them"
            )


def _int_field(entry: dict, field: str, where: str) -> int:
    # JSON integers only: true, 1.7, "2" and null are rejected, not coerced
    value = entry[field]
    if isinstance(value, bool) or not isinstance(value, int):
        import json

        raise DescriptorError(
            f"{where}: field '{field}' must be an integer, got {json.dumps(value)}"
        )
    return value


_DESCRIPTOR_FIELDS = frozenset(("name", "strata"))
_STRATUM_FIELDS = frozenset(("deg", "dim", "eigenvalue"))


def _check_fields(obj: dict, fields: frozenset, where: str) -> None:
    # a misspelt key would otherwise leave its field at the default
    if not obj.keys() <= fields:
        key = next(k for k in obj if k not in fields)
        raise DescriptorError(f"{where}: unknown field {key!r}; expected one of {sorted(fields)}")


def parse_descriptor(obj, source: str = "<descriptor>") -> GradedSpace:
    if not isinstance(obj, dict):
        raise DescriptorError(f"{source}: top level must be an object")
    _check_fields(obj, _DESCRIPTOR_FIELDS, source)
    strata_raw = obj.get("strata")
    if not isinstance(strata_raw, list) or not strata_raw:
        raise DescriptorError(f"{source}: field 'strata' must be a nonempty list")
    strata = []
    for i, entry in enumerate(strata_raw):
        where = f"{source}: strata[{i}]"
        if not isinstance(entry, dict):
            raise DescriptorError(f"{where} must be an object")
        _check_fields(entry, _STRATUM_FIELDS, where)
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
        if deg > MAX_DEG:
            raise DescriptorError(f"{where}: field 'deg' must be <= {MAX_DEG}")
        if dim < 1:
            raise DescriptorError(f"{where}: field 'dim' must be >= 1")
        strata.append(Stratum(deg, dim, eig))
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise DescriptorError(f"{source}: field 'name' must be a string")
    return GradedSpace(strata, name=name)


def load_descriptor(path: str) -> GradedSpace:
    import json  # only a descriptor file needs it, not a builtin variety

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
    if not space:
        return Poly()
    den = lcm(*[s.eig.den for s in space]) ** i
    out = [0] * (max(s.deg for s in space) * i + 1)
    for s in space:
        n, d = ratio(s.eig)
        term = s.dim * n**i * (den // d**i)
        out[s.deg * i] += -term if s.deg % 2 else term
    return Poly.from_ints(out, den)


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
    centralizer order z_lam: the product over the cycle lengths i of
    w_i^(a_i), with w_i = ``eigen_power_sum(space, i)``.  Each power
    w_i^a is built once per call and shared by every lam.
    """
    if n < 0:
        raise ValueError("tensor power must be >= 0")
    # powers[i][a] = w_i^a, each built once as w_i^(a-1) * w_i
    powers = {}
    for i in range(1, n + 1):
        w = eigen_power_sum(space, i)
        row = [Poly.constant(1), w]
        for _ in range(n // i - 1):
            row.append(row[-1] * w)
        powers[i] = row
    terms = {}
    for lam in partitions_of(n):
        tr = Poly.from_ints((1,), lam.centralizer_order())
        for i, a in lam.exp:
            tr = tr * powers[i][a]
        if tr:
            terms[lam] = tr
    return SymFunc(n, terms)


def character_digits(space: GradedSpace, n: int) -> int:
    """A bound on the decimal digits of every int in the rendered
    ``enhanced_character(space, n)``, in either basis, and in
    ``graded_trace_product(space, lam)`` for lam of n, found without
    building them.

    For D the lcm of the eigenvalue denominators, D^i w_i has integer
    coefficients of absolute sum at most S^i, S = sum dim |eig| D, so a
    product of the w_i of weight n is P / D^n with ints |P| <= S^n.  A
    p-coefficient is such a product over z_lam, which divides n!, and an
    s-coefficient sum_mu chi^lam(mu) times them, over D^n n! with a
    numerator at most S^n n!: sum_mu |chi^lam(mu)| n! / z_mu <= n! by
    Cauchy-Schwarz and the orthogonality of the characters.
    """
    space.require_exact()
    if n < 1:
        return 1
    D = lcm(*[s.eig.den for s in space])
    S = 0
    for s in space:
        a, d = ratio(s.eig)
        S += s.dim * abs(a) * (D // d)
    bits = n * max(S, D).bit_length() + factorial(n).bit_length()
    return bits * 30103 // 100000 + 1


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
        coeffs.append(acc.scale(Poly.from_ints((1,), n)))
    return coeffs


# -- flag variety --------------------------------------------------------


def flag_schur_coefficient(n: int, lam: Partition) -> Poly:
    """Graded multiplicity of the Schur piece s_lam in the flag character.

    The fake degree q^(n(lam)) (q; q)_n / prod_h (1 - q^h), h over the
    hook lengths of lam and n(lam) = ``weighted_row_sum`` (Stanley, EC2
    7.21; Macdonald, Symmetric Functions and Hall Polynomials, I.3
    Ex. 2): (q; q)_n times the principal specialization of s_lam, an
    integer polynomial with value dim lam at q = 1.  The quotient is
    ``arith.cofactor_ints`` over the hook lengths, so no character value
    is used.
    """
    if lam.n != n:
        raise ValueError(f"{lam} is not a partition of {n}")
    # sorted, so lam and its conjugate share one cached cofactor
    hooks = tuple(sorted(lam.hook_lengths(), reverse=True))
    return Poly.from_ints((0,) * lam.weighted_row_sum() + cofactor_ints(n, 1, hooks))


def flag_character(n: int) -> SymFunc:
    """Graded character of the complete flag variety of rank n.

    The cohomology of GL_n/T_n is the coinvariant algebra of S_n with
    degrees doubled.  By the Chevalley-Molien form (Stanley, "Invariants
    of finite groups and their applications to combinatorics", Bull.
    AMS 1, 1979) a permutation of cycle type mu has graded trace
    (q;q)_n / prod (1 - q^mu_i) on it, so in the power-sum basis

        flag_character(n) = sum_mu (q;q)_n / prod (1 - q^mu_i) * p_mu / z_mu

    at q = u^2.  The numerators are the integer cofactors
    ``arith.cofactor_ints`` of the principal specialization.  The Schur
    coefficients are the graded multiplicities ``flag_schur_coefficient``
    at u^2, which ``char --flag`` prints from the hook formula; its
    Schur view ``to_schur``, read off the character table, is their
    test oracle.  At u = 1 this degenerates to the regular
    representation.
    """
    if n < 1:
        raise ValueError("flag rank must be >= 1")
    return SymFunc(
        n,
        {
            mu: Poly.from_ints(cofactor_ints(n, 2, mu), mu.centralizer_order())
            for mu in partitions_of(n)
        },
    )


# -- Poincare polynomials --------------------------------------------------

SPACES = ("cn", "sn", "coh", "flag", "bgln")


def _rank_recurrence(
    weights: list, N: int, top: int | None = None, step: int = 2
) -> list[list[int]]:
    """Integer coefficients in u of N_0 .. N_N for int weights w_1 .. w_N.

    ``weights[k - 1]`` lists the nonzero terms (d, c) of w_k = sum c u^d.
    With x = u^step, the numerators of sum_n N_n / (x; x)_n t^n =
    exp sum_k w_k t^k / (k (1 - x^k)) (Macdonald, Symmetric Functions
    and Hall Polynomials, I.2-3) satisfy the log-derivative recurrence

        n N_n = sum_(k=1..n) w_k E_(n,k) N_(n-k),  N_0 = 1,
        E_(n,k) = prod_(j=n-k+1..n) (1 - x^j) / (1 - x^k).

    E_(n,k) N_(n-k) is R_(n-k) / (1 - x^k) for the running products
    R_m = N_m prod_(j=m+1..n) (1 - x^j): at each n every R_m takes
    one more factor by ``arith.mul_one_minus``, and each term is one
    ``arith.div_one_minus``, so a pass makes O(N^2) vector passes and
    no partition is enumerated.  Both divisions raise ValueError on a
    remainder.  With ``top = M`` every vector is cut modulo u^(M+1), so the
    first division is a power-series quotient; the division by n is
    still checked.  Trailing zeros are stripped, so a zero polynomial is
    the empty list.  ``rank_numerators`` runs at step 2 (x = u^2);
    ``point_counts``, whose weights are constants, at step 1 (x = u), so
    its vectors carry no zero at the odd degrees.
    """
    # factors 1 - u^(step j) with step j > top are 1 modulo u^(top+1)
    jmax = N if top is None else top // step
    ranks = [[1]]
    runs = [[1]]  # runs[m] = R_m at the current n; empty when N_m = 0
    for n in range(1, N + 1):
        if n <= jmax:
            runs = [mul_one_minus(v, step * n, top) if v else v for v in runs]
        acc: list[int] = []
        for k in range(1, n + 1):
            v = runs[n - k]
            if not v:
                continue
            v = div_one_minus(v, step * k, top)
            for d, c in weights[k - 1]:
                end = d + len(v) if top is None else min(d + len(v), top + 1)
                if end <= d:
                    break
                if len(acc) < end:
                    acc.extend([0] * (end - len(acc)))
                acc[d:end] = [s + c * b for s, b in zip(acc[d:end], v)]
        if any(a % n for a in acc):
            raise ValueError(f"rank {n}: division by {n} left a remainder")
        acc = [a // n for a in acc]
        while acc and not acc[-1]:
            acc.pop()
        ranks.append(acc)
        runs.append(acc)
    return ranks


def rank_numerators(space: GradedSpace, N: int, top: int | None = None) -> list[list[int]]:
    """Integer coefficients of the Poincare polynomials N_0 .. N_N of C_n.

    The rank recurrence with w_k = ``eigen_power_sum`` at unit
    eigenvalues, read off the Betti numbers b_i as the terms
    (-1)^i b_i u^(k i): Frobenius eigenvalues are ignored.
    """
    if N < 0:
        raise ValueError("n must be >= 0")
    if top is not None and top < 0:
        raise ValueError("u order must be >= 0")
    signed = [(i, -b if i % 2 else b) for i, b in sorted(space.betti().items())]
    weights = [[(k * i, c) for i, c in signed] for k in range(1, N + 1)]
    return _rank_recurrence(weights, N, top)


def _coh_value(num: list[int], n: int) -> RatFunc:
    """N / (u^2; u^2)_n in lowest terms, from the integer numerator N.

    1 - u^(2j) = -prod_(d | 2j) Phi_d(u), so the only factors N and the
    Pochhammer can share are cyclotomic: Phi_d occurs in the Pochhammer
    once per j <= n with d | 2j, i.e. n // d times for odd d and
    2n // d times for even d.  Each Phi_d is cancelled from N by
    ``pseudo_divmod``, which never scales by a monic divisor, as often
    as it leaves no remainder, up to that multiplicity.  The pair left
    is coprime, so ``RatFunc`` needs no gcd.
    """
    if not num:
        return RatFunc(0)
    den = list(pochhammer_ints(n, 2))
    for d in range(1, 2 * n + 1):
        phi = cyclotomic_coeffs(d)
        for _ in range(n // d if d % 2 else 2 * n // d):
            quotient, rem, _ = pseudo_divmod(num, phi)
            if any(rem):
                break
            num = quotient
            den = pseudo_divmod(den, phi)[0]
    return RatFunc(Poly.from_ints(num), Poly.from_ints(den))


def poincare(space_data: GradedSpace | None, n: int, space: str = "cn") -> RatFunc:
    """Signed Poincare polynomial (or series) of the chosen moduli space.

    cn / sn: the numerator N_n of ``rank_numerators``, an integer
    polynomial; by the main theorem the two spaces agree.  It equals
    (q;q)_n at u^2 times the squared-variable principal specialization
    of the graded character of the n-th power.  coh: N_n over
    (u^2; u^2)_n in lowest terms (a rational function), reduced by
    cancelling cyclotomic factors.  flag: the q-factorial at u^2.
    bgln: the inverse Pochhammer.  Frobenius eigenvalues are ignored.
    """
    kind = space.lower()
    if kind not in SPACES:
        raise ValueError(f"unknown space {space!r}; expected one of {SPACES}")
    if kind == "flag":
        if n < 1:
            raise ValueError("flag rank must be >= 1")
        # (u^2; u^2)_n / (1 - u^2)^n = prod_(i<=n) [i]_(u^2)
        return RatFunc(Poly.from_ints(cofactor_ints(n, 2, (1,) * n)))
    if kind == "bgln":
        if n < 1:
            raise ValueError("rank must be >= 1")
        return RatFunc(1, q_pochhammer(n, power=2))
    if space_data is None:
        raise ValueError(f"space {space!r} needs variety data")
    if n < 0:
        raise ValueError("n must be >= 0")
    num = rank_numerators(space_data, n)[n]
    if kind == "coh":
        return _coh_value(num, n)
    return RatFunc(Poly.from_ints(num))


# -- point counts ------------------------------------------------------------


def point_counts(space_data: GradedSpace, N: int, q: int) -> list[Poly]:
    """Formula values for the numbers of F_q points of the ranks 0 .. N.

    One pass of the rank recurrence with w_k = ``eigen_power_sum`` of
    the resolved data at u = 1.  For D the lcm of the eigenvalue
    denominators, D^k w_k is checked to be an integer and put at degree
    0; the pass at step 1 (x = u) then gives D^n N_n(x), and the count,
    a constant Poly, is q^(n^2) N_n(1/q), read off the int coefficients
    of N_n by Horner's rule, as |GL_n(F_q)| = q^(n^2) (1/q; 1/q)_n and
    log prod_(i>=1) Z(t/q^i) = sum_k w_k t^k / (k (1 - q^(-k))) for the
    Weil zeta Z.  The enumerator ``oracle.count_points`` is the
    independent check.  This is an honest point count for smooth-curve
    data; for other inputs it is a well-defined formula value only.
    """
    prime_power_base(q)
    if N < 0:
        raise ValueError("n must be >= 0")
    resolved = space_data.resolve(q)
    D = lcm(*[s.eig.den for s in resolved])
    weights = []
    for k in range(1, N + 1):
        w = eigen_power_sum(resolved, k)
        scaled, rem = divmod(sum(w.num) * D**k, w.den)
        if rem:
            value = Poly.from_ints((sum(w.num) * D**k,), w.den)
            raise ValueError(f"power sum w_{k} times D^{k} = {D**k} is not an integer: {value}")
        weights.append([(0, scaled)] if scaled else [])
    counts = []
    for n, v in enumerate(_rank_recurrence(weights, N, step=1)):
        # q^(n^2) sum_j v_j q^-j = q^e sum_j v_j q^(len(v)-1-j), e = n^2 - len(v) + 1
        acc = 0
        for c in v:
            acc = acc * q + c
        e = n * n - len(v) + 1
        num, den = (acc * q**e, D**n) if e >= 0 else (acc, D**n * q**-e)
        counts.append(Poly.from_ints((num,), den))
    return counts


def point_count(space_data: GradedSpace, n: int, q: int) -> Poly:
    """The rank-n value of ``point_counts``: q^(n^2) N_n(1/q)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return point_counts(space_data, n, q)[n]

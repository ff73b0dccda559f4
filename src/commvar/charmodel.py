"""Character-level formulas built on graded Betti/Frobenius input data.

A variety enters the calculator only through its graded cohomology
data: a list of strata (degree, dimension, Frobenius eigenvalue).  From
that we assemble graded symmetric-group characters of tensor powers,
the graded character of the flag variety, signed Poincare polynomials
of the commuting-matrix spaces, and exact point-count values over a
chosen prime power.

The Poincare polynomials and the point counts need no partition sums:
for weights w_k = sum c (v u^d)^k over letters (d, v, c), the series
F(t) = sum_n N_n / (u^2; u^2)_n t^n = exp sum_k w_k t^k / (k (1 - u^(2k)))
is a product of q-exponentials, so F(t) E(t) = F(u^2 t) O(t) for two
polynomials E and O in t, and the N_n satisfy a division-free integer
recurrence of at most max(deg E, deg O) <= sum |c| terms per rank.
``rank_numerators`` runs it on the Betti letters, ``point_counts`` on
the eigenvalue letters at u = 1.  The character-sum route, (u^2; u^2)_n
times the principal specialization of ``enhanced_character``, is the
test oracle of both; the enumerator is the independent check of a
point count.

Sign convention used throughout: the Poincare polynomial of a space is
``sum_i dim H^i * (-u)^i``, so odd cohomology enters negatively.  The
rule is written once, ``Stratum.signed_dim``, and every formula here and
in ``series`` reads it through ``GradedSpace.betti_letters`` or ``eigen_letters``.
"""

from __future__ import annotations

from math import factorial, lcm

from .arith import (
    Frozen,
    Poly,
    RatFunc,
    add_product,
    cyclotomic_coeffs,
    euler_factor,
    euler_rows,
    pochhammer_ints,
    prime_power_base,
    pseudo_divmod,
    ratio,
)
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
        super().__init__(deg, dim, eig)

    @property
    def signed_dim(self) -> int:
        """(-1)^deg * dim: odd cohomology counts negatively."""
        return -self.dim if self.deg % 2 else self.dim


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

    def betti_letters(self) -> list[tuple[int, int, int]]:
        """The signed Betti letters (deg, 1, (-1)^deg b_deg), one per degree."""
        merged: dict[int, int] = {}
        for s in self:
            merged[s.deg] = merged.get(s.deg, 0) + s.signed_dim
        return [(deg, 1, c) for deg, c in merged.items()]

    def poincare_poly(self) -> Poly:
        """Signed Poincare polynomial sum dim * (-u)^deg."""
        return Poly.from_ints(_int_weight(self.betti_letters(), 1))

    def resolve(self, q: int) -> "GradedSpace":
        """Substitute the chosen prime power into symbolic eigenvalues."""
        return GradedSpace(
            [
                Stratum(s.deg, s.dim, s.eig.resolve(q) if isinstance(s.eig, QPower) else s.eig)
                for s in self
            ],
            name=self.name,
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


class _JSONObject(dict):
    """A JSON object read by ``load_descriptor``, which marks its first
    repeated key: json.loads would keep the last of two equal keys."""

    repeated = None


def _json_object(pairs: list) -> _JSONObject:
    obj = _JSONObject()
    for key, value in pairs:
        if key in obj and obj.repeated is None:
            obj.repeated = key
        obj[key] = value
    return obj


def _check_fields(obj: dict, fields: frozenset, where: str) -> None:
    repeated = getattr(obj, "repeated", None)
    if repeated is not None:
        raise DescriptorError(f"{where}: repeated field {repeated!r}")
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
    """The descriptor in the JSON file ``path``; every failure to read it,
    a repeated key included, is a ``DescriptorError`` that names the file."""
    import json  # only a descriptor file needs it, not a builtin variety

    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.loads(fh.read(), object_pairs_hook=_json_object)
    except json.JSONDecodeError as exc:
        raise DescriptorError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise DescriptorError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except OSError as exc:
        raise DescriptorError(f"{path}: cannot read: {exc.strerror}") from None
    except ValueError as exc:
        # an int past sys.get_int_max_str_digits(); the advice after ';'
        # names an interpreter setting, not the file
        raise DescriptorError(f"{path}: {str(exc).partition(';')[0]}") from None
    return parse_descriptor(obj, source=path)


# -- trace products and enhanced characters ------------------------------


def eigen_letters(space: GradedSpace) -> tuple[int, list[tuple[int, int, int]]]:
    """The one reader of the eigenvalues: D, the lcm of their denominators,
    and every stratum as the int letter (deg, eig * D, (-1)^deg * dim)."""
    if any(isinstance(s.eig, QPower) for s in space):
        raise ValueError("eigenvalues contain unresolved q^k tokens; supply -q to resolve them")
    D = lcm(*[s.eig.den for s in space])
    ints = [(s.deg, *ratio(s.eig), s.signed_dim) for s in space]
    return D, [(deg, a * (D // d), c) for deg, a, d, c in ints]


def _int_weight(letters: list[tuple[int, int, int]], i: int) -> list[int]:
    """D^i w_i: the ints sum c * a^i * u^(i*deg) over ``eigen_letters`` (deg, a, c)."""
    out = [0] * (max((deg for deg, _, _ in letters), default=0) * i + 1)
    for deg, a, c in letters:
        out[deg * i] += c * a**i
    return out


def eigen_power_sum(space: GradedSpace, i: int) -> Poly:
    """sum over strata of dim * (-1)^deg * u^(i*deg) * eig^i.

    The cycle-length-i weight of the space; the full trace of a twisted
    permutation is the product of these over the cycles.
    """
    D, letters = eigen_letters(space)
    return Poly.from_ints(_int_weight(letters, i), D**i)


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
    D, letters = eigen_letters(space)
    if n < 1:
        return 1
    S = sum(abs(a * c) for _, a, c in letters)
    bits = n * max(S, D).bit_length() + factorial(n).bit_length()
    return bits * 30103 // 100000 + 1


def enhanced_character_series(space: GradedSpace, order: int) -> list[SymFunc]:
    """Characters of all tensor powers 0..order via the exponential route.

    Expands exp(sum_i p_i/i * w_i * t^i) by the derivative recurrence
    n*C_n = sum_i w_i * p_i * C_(n-i), over ints.  For L the lcm of the
    eigenvalue denominators, a_i = L^i w_i is the int vector
    ``_int_weight``, and so is every p-coefficient of N_n = n! L^n C_n:

        N_n[mu + (i)] += (n-1)!/(n-i)! * a_i * N_(n-i)[mu],

    accumulated by ``arith.add_product``; C_n has the coefficients
    N_n[mu] / (n! L^n).  No ``Poly`` or ``SymFunc`` is multiplied and
    ``enhanced_character`` is not called, so coefficientwise the two
    routes check each other.
    """
    if order < 0:
        raise ValueError("series order must be >= 0")
    # order 0 reads no eigenvalue, so a space with q^k tokens gives [1]
    L, letters = eigen_letters(space) if order else (1, [])
    scaled = [_int_weight(letters, i) for i in range(1, order + 1)]
    # levels[n] maps the partitions mu of n to N_n[mu]
    levels: list[dict[Partition, list[int]]] = [{Partition(): [1]}]
    series = [SymFunc.unit()]
    for n in range(1, order + 1):
        parts = {mu: mu for mu in partitions_of(n)}  # found by the tuple of its parts
        acc: dict[Partition, list[int]] = {}
        for i in range(1, n + 1):
            a = scaled[i - 1]
            if not any(a):
                continue
            scale = factorial(n - 1) // factorial(n - i)
            for mu, v in levels[n - i].items():
                key = parts[tuple(sorted((*mu, i), reverse=True))]
                add_product(acc.setdefault(key, []), enumerate(a), v, scale)
        levels.append(acc)
        den = factorial(n) * L**n
        series.append(SymFunc(n, {mu: Poly.from_ints(v, den) for mu, v in acc.items()}))
    return series


# -- flag variety --------------------------------------------------------


def flag_schur_coefficient(n: int, lam: Partition) -> Poly:
    """Graded multiplicity of the Schur piece s_lam in the flag character.

    The fake degree q^(n(lam)) (q; q)_n / prod_h (1 - q^h), h over the
    hook lengths of lam and n(lam) = ``weighted_row_sum`` (Stanley, EC2
    7.21; Macdonald, Symmetric Functions and Hall Polynomials, I.3
    Ex. 2): (q; q)_n times the principal specialization of s_lam, an
    integer polynomial with value dim lam at q = 1.  The quotient is
    ``arith.pochhammer_ints`` over the hook lengths, so no character
    value is used.
    """
    if lam.n != n:
        raise ValueError(f"{lam} is not a partition of {n}")
    # sorted, so lam and its conjugate share one cached cofactor
    hooks = tuple(sorted(lam.hook_lengths(), reverse=True))
    return Poly.from_ints((0,) * lam.weighted_row_sum() + pochhammer_ints(n, 1, hooks))


def flag_character(n: int) -> SymFunc:
    """Graded character of the complete flag variety of rank n.

    The cohomology of GL_n/T_n is the coinvariant algebra of S_n with
    degrees doubled.  By the Chevalley-Molien form (Stanley, "Invariants
    of finite groups and their applications to combinatorics", Bull.
    AMS 1, 1979) a permutation of cycle type mu has graded trace
    (q;q)_n / prod (1 - q^mu_i) on it, so in the power-sum basis

        flag_character(n) = sum_mu (q;q)_n / prod (1 - q^mu_i) * p_mu / z_mu

    at q = u^2.  The numerators are the integer cofactors
    ``arith.pochhammer_ints(n, 2, mu)`` of the principal specialization.
    The Schur coefficients are the graded multiplicities
    ``flag_schur_coefficient`` at u^2, which ``char --flag`` prints from
    the hook formula; its Schur view ``to_schur``, read off the character
    table, is their test oracle.  At u = 1 this degenerates to the
    regular representation.
    """
    if n < 1:
        raise ValueError("flag rank must be >= 1")
    return SymFunc(
        n,
        {
            mu: Poly.from_ints(pochhammer_ints(n, 2, mu), mu.centralizer_order())
            for mu in partitions_of(n)
        },
    )


# -- Poincare polynomials --------------------------------------------------

SPACES = ("cn", "sn", "coh", "flag", "bgln")


def _rank_recurrence(letters, N: int, top: int | None = None) -> list[list[int]]:
    """Integer coefficients in u of N_0 .. N_N for the int letters (d, v, c).

    A letter contributes c (v u^d)^k to the weight w_k.  With x = u^2,
    the generating function F(t) = sum_n N_n / (x; x)_n t^n =
    exp sum_k w_k t^k / (k (1 - x^k)) is the product over the letters of
    prod_(j>=0) (1 - v u^d x^j t)^(-c) (Macdonald, Symmetric Functions
    and Hall Polynomials, I.2-3; Andrews, The Theory of Partitions,
    Thm 2.1), so F(t) E(t) = F(x t) O(t) for the polynomials in t

        E(t) = prod_(c>0) (1 - v u^d t)^c,  O(t) = prod_(c<0) (1 - v u^d t)^(-c)

    of degrees the sums of the c > 0 and of the -c, c < 0.  For B the
    larger of the two, the t^n coefficients give

        N_n = sum_(m=1..min(n,B)) (x^(n-m) O_m - E_m) R_(n,m),  N_0 = 1,
        R_(n,m) = N_(n-m) prod_(j=n-m+1..n-1) (1 - x^j).

    E and O are ``arith.euler_rows`` to t^min(N,B).  The window R_(n,m),
    m <= min(n, B), is N_(n-1) followed by R_(n-1,m-1) times 1 - x^(n-1),
    one ``arith.euler_factor`` pass at e = 1 each, so rank n makes at
    most min(n, B) - 1 passes and min(n, B) ``arith.add_product`` calls.
    Nothing is divided, so with ``top = M`` every vector is cut modulo
    u^(M+1) and the ranks are the full ones cut.  Letters of one (d, v)
    are merged first and v = 0 contributes nothing.  Trailing zeros are
    stripped, so a zero polynomial is the empty list.  With every letter
    at degree 0, as in ``point_counts``, every N_n is a polynomial in
    u^2: its odd coefficients are 0.
    """
    merged: dict[tuple[int, int], int] = {}
    for d, v, c in letters:
        if v:
            merged[d, v] = merged.get((d, v), 0) + c
    e_factors = [(d, v, c) for (d, v), c in merged.items() if c > 0]
    o_factors = [(d, v, -c) for (d, v), c in merged.items() if c < 0]
    B = min(N, max(sum(e for *_, e in e_factors), sum(e for *_, e in o_factors)))
    if not B:
        return [[1]] + [[] for _ in range(N)]
    E, O = euler_rows(e_factors, B, top), euler_rows(o_factors, B, top)
    minus_e = [[(d, -c) for d, c in enumerate(row) if c] for row in E]
    o_terms = [[(d, c) for d, c in enumerate(row) if c] for row in O]
    # factors 1 - u^(2j) with 2j > top are 1 modulo u^(top+1)
    jmax = N if top is None else top // 2
    ranks = [[1]]
    window: list[list[int]] = []  # window[m - 1] = R_(n,m); empty when N_(n-m) = 0
    for n in range(1, N + 1):
        window = window[: B - 1]
        if n - 1 <= jmax:
            window = [euler_factor(r, 2 * n - 2, 1, top) if r else r for r in window]
        window.insert(0, ranks[-1])
        acc: list[int] = []
        for m, r in enumerate(window, 1):
            if r:
                terms = [(2 * (n - m) + d, c) for d, c in o_terms[m]] + minus_e[m]
                add_product(acc, terms, r, 1, top)
        while acc and not acc[-1]:
            acc.pop()
        ranks.append(acc)
    return ranks


def rank_numerators(space: GradedSpace, N: int, top: int | None = None) -> list[list[int]]:
    """Integer coefficients of the Poincare polynomials N_0 .. N_N of C_n.

    The rank recurrence on ``space.betti_letters()``, so that
    w_k = ``eigen_power_sum`` at unit eigenvalues: Frobenius eigenvalues
    are ignored.
    """
    if N < 0:
        raise ValueError("n must be >= 0")
    if top is not None and top < 0:
        raise ValueError("u order must be >= 0")
    return _rank_recurrence(space.betti_letters(), N, top)


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
        return RatFunc(Poly.from_ints(pochhammer_ints(n, 2, (1,) * n)))
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

    The rank recurrence, as ``rank_numerators`` runs it, on the
    ``eigen_letters`` of the resolved space moved to degree 0, so that
    w_k is D^k ``eigen_power_sum`` at u = 1, D the lcm of the eigenvalue
    denominators.  The pass gives D^n N_n(x) at x = u^2, and the count,
    a constant Poly, is q^(n^2) N_n(1/q), read off the even coefficients
    of D^n N_n by Horner's rule, as |GL_n(F_q)| = q^(n^2) (1/q; 1/q)_n and
    log prod_(i>=1) Z(t/q^i) = sum_k w_k t^k / (k (1 - q^(-k))) for the
    Weil zeta Z.  The enumerator ``oracle.count_points`` is the
    independent check.  This is an honest point count for smooth-curve
    data; for other inputs it is a well-defined formula value only.
    """
    prime_power_base(q)
    if N < 0:
        raise ValueError("n must be >= 0")
    D, letters = eigen_letters(space_data.resolve(q))
    counts = []
    for n, v in enumerate(_rank_recurrence([(0, a, c) for _, a, c in letters], N)):
        v = v[::2]  # the coefficients in x = u^2
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

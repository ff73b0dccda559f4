"""Symmetric functions with polynomial coefficients.

Everything is stored in the power-sum basis, where the principal
specialization is diagonal: it acts by ``p_k -> 1/(1 - x^k)``.  The
Schur basis exists as a conversion view.  The change of basis to Schur
functions goes through one integer
character table per degree n, built once, one column per cycle type mu
in ``partitions_of(n)`` order.  The column chi^.(mu) comes from the
column of mu[1:], a cycle type of n - mu_1, by the Murnaghan-Nakayama
rule (Macdonald, I.7): every chi^nu(mu[1:]) goes, with the sign of the
strip height, to each lam that a border strip of length mu_1 added to
nu makes.  Those strips are listed once per (size of nu, strip length)
and cached, as is every column; they are found on beta sets held as
int bitmasks, where adding a strip of length r moves one bead up by r.
Since s_lam = sum_mu chi^lam(mu) p_mu / z_mu and the p_mu / z_mu are
dual to the p_mu, the Schur coefficient of f is sum_mu chi^lam(mu) *
[p_mu] f.  That sum runs over ints: the p-coefficients, int vectors
over one denominator each, are brought to the lcm D of those
denominators and each vector is packed into one int, one slot per
degree, wide enough for any sum of a row of the table times the
coefficients.  Each Schur coefficient is then one dot product of a row
with the packed columns, its slots are read back as signed ints, and D
is divided out once per lam.

Coefficients are polynomials in the grading variable.  The principal
specialization is the only operation that leaves the polynomial ring:
it is computed over the common denominator (x; x)_n, whose exact
quotient by every ``prod (1 - x^lam_i)`` is a polynomial (Macdonald,
Symmetric Functions and Hall Polynomials, I.3).  Those quotients, and
the Pochhammer product itself, come from ``arith.pochhammer_ints``,
cached per partition, which applies each factor by ``euler_factor``;
the coefficients are brought to the lcm of their denominators, so the
numerator is summed over ints with one division at the end.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from operator import mul

from .arith import Frozen, Poly, RatFunc, add_product, pochhammer_ints, to_poly
from .partitions import Partition, partitions_of


def mn_character(lam: Partition, mu: Partition) -> int:
    """Irreducible character value chi^lam at cycle type mu.

    Both partitions must have the same size.  The value is read from
    the cached column of mu (``_mn``).
    """
    if lam.n != mu.n:
        raise ValueError(f"size mismatch: |{lam}| = {lam.n} but |{mu}| = {mu.n}")
    return _mn(mu)[_positions(lam.n)[lam]]


@lru_cache(maxsize=None)
def _positions(n: int) -> dict[Partition, int]:
    """The index of each partition of n in ``partitions_of(n)``."""
    return {lam: i for i, lam in enumerate(partitions_of(n))}


@lru_cache(maxsize=None)
def _masks(k: int) -> dict[int, int]:
    """The beta set of each partition lam of k, padded to k beads, as an
    int bitmask (bit lam_i + k - 1 - i for i < k, lam padded with
    zeros), mapped to the index of lam in ``partitions_of(k)``; the keys
    are in that order."""
    return {
        sum(1 << (p + k - 1 - i) for i, p in enumerate(lam)) | ((1 << (k - len(lam))) - 1): j
        for j, lam in enumerate(partitions_of(k))
    }


@lru_cache(maxsize=None)
def _strips(m: int, r: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each nu of m, in ``partitions_of`` order, the (index of lam in
    ``partitions_of(m + r)``, sign) of every border strip of length r
    that can be added to nu.

    On the James-Kerber abacus (Macdonald I.7): with M the beta set of
    nu from ``_masks(m)``, padded by r beads to (M << r) | (2^r - 1), a
    strip of length r moves a bead b to the free position b + r, giving
    the beta set M ^ 2^b ^ 2^(b + r) of lam.  The strip's height is the
    number of beads strictly between b and b + r.  The beads are taken
    from the highest down, so the strips of nu are listed in the order
    of the rows they end in.
    """
    where = _masks(m + r)
    low, between = (1 << r) - 1, (1 << (r - 1)) - 1
    table = []
    for mask in _masks(m):
        mask = (mask << r) | low
        free = mask & ~(mask >> r)  # beads b with b + r free
        adds = []
        while free:
            b = free.bit_length() - 1
            bit = 1 << b
            free ^= bit
            sign = -1 if ((mask >> (b + 1)) & between).bit_count() & 1 else 1
            adds.append((where[mask ^ bit ^ (bit << r)], sign))
        table.append(tuple(adds))
    return tuple(table)


@lru_cache(maxsize=None)
def _mn(mu: tuple[int, ...]) -> tuple[int, ...]:
    """The column chi^lam(mu) over lam in ``partitions_of(|mu|)`` order.

    Built from the column of mu[1:] by adding border strips of length
    mu_1: chi^lam(mu) is the signed sum of chi^nu(mu[1:]) over the
    strips that take nu to lam.
    """
    if not mu:
        return (1,)
    r, rest = mu[0], mu[1:]
    m = sum(rest)
    out = [0] * len(_positions(m + r))
    for c, adds in zip(_mn(rest), _strips(m, r)):
        if c:
            for i, sign in adds:
                out[i] += sign * c
    return tuple(out)


@lru_cache(maxsize=None)
def character_table(n: int) -> tuple[tuple[int, ...], ...]:
    """chi^lam(mu) for lam (rows) and mu (columns) in ``partitions_of(n)`` order."""
    return tuple(zip(*(_mn(mu) for mu in partitions_of(n))))


def _slot_bits(top: int, n: int) -> int:
    """The slot width of ``SymFunc.to_schur`` in degree n, where every
    scaled coefficient is at most ``top`` in absolute value: a slot of a
    row's dot product is sum_mu chi^lam(mu) * c, at most top times the
    largest l1 norm of a row of ``character_table(n)`` in absolute
    value, and one more bit holds its sign."""
    return (top * max(sum(map(abs, row)) for row in character_table(n))).bit_length() + 1


def _schur_in_p(lam: Partition) -> tuple[tuple[Partition, Poly], ...]:
    # s_lam = sum over mu of chi^lam(mu) p_mu / z_mu
    parts = partitions_of(lam.n)
    row = character_table(lam.n)[_positions(lam.n)[lam]]
    return tuple(
        (mu, Poly.from_ints((chi,), mu.centralizer_order())) for mu, chi in zip(parts, row) if chi
    )


def _concat(a: Partition, b: Partition) -> Partition:
    return Partition(sorted(a + b, reverse=True))


class SymFunc(Frozen):
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
            value = to_poly(value)
            if value:
                clean[key] = value
        super().__init__(degree, clean)

    # -- constructors ----------------------------------------------------

    @classmethod
    def unit(cls) -> "SymFunc":
        return cls(0, {Partition(): 1})

    @classmethod
    def schur(cls, lam: Partition) -> "SymFunc":
        return cls(lam.n, dict(_schur_in_p(lam)))

    # -- basic algebra ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, SymFunc):
            return self.degree == other.degree and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.degree, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def __mul__(self, other: "SymFunc") -> "SymFunc":
        """Product in the ring of symmetric functions; degrees add."""
        out: dict[Partition, Poly] = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                key = _concat(ka, kb)
                prod = va * vb
                out[key] = out.get(key, Poly()) + prod
        return SymFunc(self.degree + other.degree, out)

    # -- Schur conversion and specialization -------------------------------

    def to_schur(self) -> dict[Partition, Poly]:
        """Schur expansion coefficients c_lam with f = sum c_lam s_lam.

        c_lam = sum_mu chi^lam(mu) * [p_mu] f, read off the integer
        character table of the degree.  The p-coefficients, each an int
        vector over one denominator, are brought to the lcm D of those
        denominators, and the vector of each mu is packed into one int,
        one slot of ``_slot_bits`` bits per degree.  Each c_lam is then
        one integer dot product of its row of the table with the packed
        columns; its slots, read as signed ints, are the numerators of
        the coefficients a / D.
        """
        if not self.terms:
            return {}
        n = self.degree
        parts = partitions_of(n)
        denom = lcm(*(coeff.den for coeff in self.terms.values()))
        scales = {mu: denom // coeff.den for mu, coeff in self.terms.items()}
        top = max(max(map(abs, coeff.num)) * scales[mu] for mu, coeff in self.terms.items())
        width = max(len(coeff.num) for coeff in self.terms.values())
        bits = _slot_bits(top, n)
        packed = []
        for mu in parts:
            coeff = self.terms.get(mu)
            column = 0
            if coeff is not None:
                scale = scales[mu]
                for c in reversed(coeff.num):
                    column = (column << bits) + c * scale
            packed.append(column)
        # adding half a slot to every slot makes each one nonnegative,
        # so the slots of the sum are its base-2^bits digits
        half = 1 << (bits - 1)
        offset = half * (((1 << (bits * width)) - 1) // ((1 << bits) - 1))
        digit = (1 << bits) - 1
        out: dict[Partition, Poly] = {}
        for lam, row in zip(parts, character_table(n)):
            acc = sum(map(mul, row, packed))
            if acc:
                acc += offset
                slots = [((acc >> (bits * k)) & digit) - half for k in range(width)]
                out[lam] = Poly.from_ints(slots, denom)
        return out

    def principal_spec_numerator(self, power: int = 1) -> Poly:
        """Numerator of the principal specialization over (x^p; x^p)_n.

        Here p = power and n = degree.  The result N satisfies
        ``principal_spec(power) == N / q_pochhammer(n, power)``; it is
        the sum of c_lam * (x^p; x^p)_n / prod (1 - x^(p*lam_i)).  Every
        such quotient is exact because prod (1 - x^lam_i) divides
        (x; x)_n for each partition lam of n (Macdonald, Symmetric
        Functions and Hall Polynomials, I.3).  The quotients are the
        integer polynomials ``arith.pochhammer_ints(n, p, lam)``, built by
        remainder-checked divisions by 1 - x^k and cached.  The
        coefficients c_lam, each an int vector over one denominator, are
        brought to the lcm D of those denominators, the products are
        summed over ints, and N has the coefficients a / D.
        """
        n = self.degree
        denom = lcm(*(coeff.den for coeff in self.terms.values()))
        acc: list[int] = []
        for lam, coeff in self.terms.items():
            add_product(acc, enumerate(coeff.num), pochhammer_ints(n, power, lam), denom // coeff.den)
        return Poly.from_ints(acc, denom)

    def principal_spec(self, power: int = 1) -> RatFunc:
        """Principal specialization, p_k -> 1/(1 - x^(power*k)).

        With power=1 the ambient variable is read as the specialization
        variable itself; power=2 realizes the square-variable
        specialization used for Poincare polynomials, where the
        coefficients already live in the same variable.  The pair
        N / (x^p; x^p)_n is returned unreduced.
        """
        return RatFunc(
            self.principal_spec_numerator(power), q_pochhammer(self.degree, power)
        )

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        return render_basis(self.terms, self.degree, "p")

    def render_schur(self) -> str:
        return render_basis(self.to_schur(), self.degree, "s")

    def __repr__(self):
        return f"SymFunc({self.render()})"


def render_basis(coeffs: dict[Partition, Poly], n: int, symbol: str) -> str:
    """The sum of coeffs[lam] * symbol[lam] over the partitions lam of n
    that are keys, in ``partitions_of(n)`` order: ``s[2] + u^2*s[1,1]``."""
    pieces = []
    for lam, coeff in ((lam, coeffs[lam]) for lam in partitions_of(n) if lam in coeffs):
        label = f"{symbol}[{','.join(str(p) for p in lam)}]"
        rendered = coeff.render()
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
    return Poly.from_ints(pochhammer_ints(n, power))

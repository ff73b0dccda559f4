"""Built-in variety data and descriptor resolution.

Eigenvalues follow the arithmetic-Frobenius convention normalized for
the curve-shaped trace formula: the point count of the variety itself
is q times the signed eigenvalue sum, so a point carries eigenvalue
q^-1, the affine line carries 1, and degree-one strata of the curve
families carry q^-1.  Dimensions other than one fold the extra q powers
into the eigenvalues the same way.
"""

from __future__ import annotations

import os
from math import comb

from .charmodel import MAX_DEG, GradedSpace, QPower, Stratum, load_descriptor
from .oracle import VarietyFamily, family_for

BUILTIN_NAMES = ("point", "affine", "torus", "punctured", "p1")


def builtin_space(name: str, dim: int = 1, avoided: tuple[int, ...] = (0, 1)) -> GradedSpace:
    """Graded eigenvalue data for a built-in variety name."""
    if name == "point":
        return GradedSpace([Stratum(0, 1, QPower(-1))], name="point")
    if name == "p1":
        return GradedSpace(
            [Stratum(0, 1, QPower(0)), Stratum(2, 1, QPower(-1))], name="projective line"
        )
    if name in BUILTIN_NAMES:
        return eigendata_for_family(family_for(name, dim=dim, avoided=avoided))
    raise ValueError(f"unknown builtin variety {name!r}; choose from {BUILTIN_NAMES}")


def resolve_variety(name_or_path: str, dim: int = 1, avoided: tuple[int, ...] = (0, 1)) -> GradedSpace:
    """A builtin name, or a path to a JSON descriptor file."""
    if name_or_path in BUILTIN_NAMES:
        return builtin_space(name_or_path, dim=dim, avoided=avoided)
    if os.path.exists(name_or_path):
        return load_descriptor(name_or_path)
    raise ValueError(
        f"{name_or_path!r} is neither a builtin variety {BUILTIN_NAMES} nor a descriptor file"
    )


def eigendata_for_family(family: VarietyFamily) -> GradedSpace:
    """The graded eigenvalue data of a family's X = (A^1 minus S)^d.

    A^1 minus S carries (deg 0, 1, 1) and (deg 1, r, q^-1) for r = |S|,
    so by Kunneth X carries (deg i, C(d, i) r^i, q^(d - 1 - i)) for
    i = 0..d, the strata of dimension 0 left out; its point count is
    q sum_i (-1)^i C(d, i) r^i q^(d - 1 - i) = (q - r)^d.  The strata reach
    degree d and the eigenvalue q^(d - 1), so d is capped at ``MAX_DEG``.
    """
    d, r = family.dim, len(family.avoided)
    if d > MAX_DEG:
        raise ValueError(f"{family.name} dimension must be <= {MAX_DEG}")
    strata = [Stratum(i, comb(d, i) * r**i, QPower(d - 1 - i)) for i in range(d + 1 if r else 1)]
    return GradedSpace(strata, name=family.describe())


def is_curve_name(name: str, dim: int = 1) -> bool:
    return name == "p1" or (name != "point" and family_for(name, dim=dim).is_curve())

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
from .oracle import AffineSpace, PuncturedLine, Torus, VarietyFamily

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


def family_for(name: str, dim: int = 1, avoided: tuple[int, ...] = (0, 1)) -> VarietyFamily:
    if name == "affine":
        return AffineSpace(dim)
    if name == "torus":
        return Torus(dim)
    if name == "punctured":
        return PuncturedLine(tuple(avoided))
    raise ValueError(f"no enumerable family for {name!r}")


def eigendata_for_family(family: VarietyFamily) -> GradedSpace:
    """The graded eigenvalue data matching an enumerable family.

    The affine eigenvalue is q^(dim - 1) and the torus strata reach
    degree dim, so either dimension is capped at ``MAX_DEG``.
    """
    if isinstance(family, AffineSpace):
        if family.dim > MAX_DEG:
            raise ValueError(f"affine dimension must be <= {MAX_DEG}")
        return GradedSpace([Stratum(0, 1, QPower(family.dim - 1))], name=f"affine^{family.dim}")
    if isinstance(family, Torus):
        dim = family.dim
        if dim > MAX_DEG:
            raise ValueError(f"torus dimension must be <= {MAX_DEG}")
        strata = [Stratum(i, comb(dim, i), QPower(dim - 1 - i)) for i in range(dim + 1)]
        return GradedSpace(strata, name=f"torus^{dim}")
    if isinstance(family, PuncturedLine):
        r = len(family.avoided)
        strata = [Stratum(0, 1, QPower(0))]
        if r:
            strata.append(Stratum(1, r, QPower(-1)))
        label = ",".join(str(a) for a in family.avoided)
        return GradedSpace(strata, name=f"affine line minus {{{label}}}")
    raise TypeError(f"unsupported family {family!r}")


def is_curve_name(name: str, dim: int = 1) -> bool:
    return name in ("p1", "punctured") or (name in ("affine", "torus") and dim == 1)

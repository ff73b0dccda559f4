"""Exact cohomological invariants of commuting-matrix moduli spaces.

Input is the graded Betti/Frobenius data of a variety; output is exact:
signed Poincare polynomials, graded symmetric-group characters,
zeta-type generating series, and finite-field point counts, all
cross-checked against a brute-force matrix enumerator.

The package root exports nothing but ``__version__`` and imports no
layer; import the layers themselves, e.g. ``from commvar import series``.
"""

__version__ = "0.1.0"

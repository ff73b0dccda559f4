"""Exact cohomological invariants of commuting-matrix moduli spaces.

Input is the graded Betti/Frobenius data of a variety; output is exact:
signed Poincare polynomials, graded symmetric-group characters,
zeta-type generating series, and finite-field point counts, all
cross-checked against a brute-force matrix enumerator.
"""

from .arith import Poly, PoleError, RatFunc, Rational, TSeries
from .charmodel import (
    DescriptorError,
    GradedSpace,
    QPower,
    Stratum,
    enhanced_character,
    enhanced_character_series,
    flag_character,
    flag_schur_coefficient,
    graded_trace_product,
    load_descriptor,
    parse_descriptor,
    point_count,
    poincare,
)
from .oracle import (
    AffineSpace,
    BudgetExceededError,
    PuncturedLine,
    Torus,
    count_points,
    cross_check,
    gl_order,
)
from .partitions import Partition, partitions_of
from .series import (
    SeriesReport,
    betti_zeta,
    coh_series,
    groupoid_series,
    stable_betti,
    stable_betti_verified,
    weil_zeta_from_eigendata,
)
from .symfunc import SymFunc, mn_character, q_pochhammer
from .varieties import builtin_space, eigendata_for_family, family_for, resolve_variety
from .verify import run_suite

__version__ = "0.1.0"

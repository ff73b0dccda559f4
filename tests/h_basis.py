"""The complete homogeneous basis for the tests, in the power-sum basis.

h_n = sum over mu of p_mu / z_mu, and h_lam is the product of h_k over
the parts k of lam.
"""

from fractions import Fraction

from commvar.partitions import Partition, partitions_of
from commvar.symfunc import SymFunc


def from_h(lam: Partition) -> SymFunc:
    result = SymFunc.unit()
    for part in lam:
        h = {mu: Fraction(1, mu.centralizer_order()) for mu in partitions_of(part)}
        result = result * SymFunc(part, h)
    return result

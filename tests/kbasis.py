"""Dense basis of the Plucker kernel of H -> c_H, the tests' reference for it.

One :func:`quadricdiff.cspace.k_matrix` per increasing 4-tuple, built
independently of ``cspace._PluckerKernel``, whose gathers the tests check
against it.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from quadricdiff.cspace import k_matrix


@dataclass(frozen=True)
class KBasisElement:
    """One Plucker kernel basis matrix, tied to its increasing 4-tuple of indices."""

    quad: tuple
    matrix: np.ndarray


def k_basis(d):
    """Basis of the kernel of H -> c_H, one element per increasing 4-tuple."""
    return [KBasisElement(quad, k_matrix(quad, d)) for quad in combinations(range(1, d + 1), 4)]

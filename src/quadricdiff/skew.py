"""Indexing, elementary basis, and Plucker machinery for skew-symmetric d x d matrices.

Skew matrices are plain dense ndarrays.  The library-wide convention is the
m-vector of strictly upper-triangular entries in lexicographic order,
m = d*(d-1)/2, with ``vec_to_skew`` as the structural constructor: anything
built through it is exactly skew, no runtime tolerance involved.  The index
helper ``pi_index`` and the Plucker 4-tuples count positions from 1, as the
paper does.
"""

import numbers
from functools import lru_cache

import numpy as np

__all__ = [
    "skew_dim",
    "skew_to_vec",
    "vec_to_skew",
    "plucker_eval",
]


def _integer(value):
    """Whether value is an int or a numpy integer; a bool is not one here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_number(value, name, integer=False, zero=False):
    """value if it is a finite number above 0, or at least 0 if ``zero``, and
    an integer if ``integer``; ValueError naming ``name`` otherwise.  A bool
    is not a number here."""
    number = _integer(value) if integer else isinstance(value, numbers.Real)
    if (isinstance(value, bool) or not number
            or not (0 <= value if zero else 0 < value) or not value < np.inf):
        raise ValueError(f"{name} must be a {'nonnegative' if zero else 'positive'} "
                         f"{'integer' if integer else 'finite number'}, got {value!r:.80}")
    return value


def skew_dim(d):
    """Dimension m = C(d, 2) of the space of skew-symmetric d x d matrices.

    ValueError unless d is a nonnegative integer.
    """
    if not _integer(d):
        raise ValueError(f"d must be an integer, got {d!r:.80}")
    if d < 0:
        raise ValueError(f"d must be nonnegative, got {d}")
    return d * (d - 1) // 2


def pi_index(i, j, d):
    """1-based lexicographic index of the upper-triangular position (i, j).

    The pairs (1,2), (1,3), ..., (1,d), (2,3), ..., (d-1,d) map to 1..m.
    Raises ValueError unless i, j and d are integers with 1 <= i < j <= d.
    """
    if not (all(map(_integer, (i, j, d))) and 1 <= i < j <= d):
        raise ValueError(f"need integers 1 <= i < j <= d, got (i, j, d) = ({i}, {j}, {d})")
    return (i - 1) * (2 * d - i) // 2 + (j - i)


@lru_cache(maxsize=None)
def _skew_basis_cached(d):
    rows, cols = _upper_indices(d)
    p = np.arange(len(rows))
    basis = np.zeros((len(rows), d, d))
    basis[p, rows, cols] = 1.0
    basis[p, cols, rows] = -1.0
    basis.setflags(write=False)
    return basis


def skew_basis(d):
    """All m elementary skew matrices stacked as an (m, d, d) read-only array.

    ValueError unless d is a nonnegative integer.
    """
    skew_dim(d)
    return _skew_basis_cached(d)


@lru_cache(maxsize=None)
def _upper_indices(d):
    """Read-only (rows, cols) of the strict upper triangle, pair p at position p - 1."""
    rows, cols = np.triu_indices(d, 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


@lru_cache(maxsize=None)
def _pair_signs(d):
    """Read-only (d, d) tables P, S with D_p[u, a] = S[u, a] exactly at p = P[u, a] + 1.

    S is +1 above the diagonal, -1 below it and 0 on it, where P is 0.
    """
    rows, cols = _upper_indices(d)
    P = np.zeros((d, d), dtype=np.intp)
    P[rows, cols] = P[cols, rows] = np.arange(skew_dim(d))
    S = np.zeros((d, d))
    S[rows, cols], S[cols, rows] = 1.0, -1.0
    P.setflags(write=False)
    S.setflags(write=False)
    return P, S


def skew_to_vec(A):
    """Strict upper triangle of A as an m-vector in lexicographic order.

    ValueError unless A is a square matrix.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be a square matrix, got shape {A.shape}")
    return A[_upper_indices(A.shape[0])].copy()


def vec_to_skew(v, d):
    """Skew matrix whose strict upper triangle is v; exactly skew by construction."""
    v = np.asarray(v, dtype=float)
    m = skew_dim(d)
    if v.shape != (m,):
        raise ValueError(f"expected vector of length {m} for d = {d}, got shape {v.shape}")
    A = np.zeros((d, d))
    A[_upper_indices(d)] = v
    return A - A.T


def plucker_eval(A, quad):
    """Evaluate the quadratic Plucker polynomial of A at an increasing 4-tuple.

    For (i, j, k, l) with i < j < k < l this is
    ``a_ij*a_kl - a_ik*a_jl + a_il*a_jk``.  All rank-two skew matrices
    x y^T - y x^T are common zeros of these polynomials.  ValueError unless
    quad is four integers.
    """
    A = np.asarray(A)
    d = A.shape[0]
    quad = tuple(quad)
    if not (len(quad) == 4 and all(map(_integer, quad))
            and 1 <= quad[0] < quad[1] < quad[2] < quad[3] <= d):
        raise ValueError(f"quad must be 4 strictly increasing integers within 1..{d}, "
                         f"got {quad}")
    i, j, k, l = quad
    a = lambda r, s: A[r - 1, s - 1]
    return a(i, j) * a(k, l) - a(i, k) * a(j, l) + a(i, l) * a(j, k)


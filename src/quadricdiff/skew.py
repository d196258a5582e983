"""Indexing, elementary basis, and Plucker machinery for skew-symmetric d x d matrices.

Skew matrices are plain dense ndarrays.  The library-wide convention is the
m-vector of strictly upper-triangular entries in lexicographic order,
m = d*(d-1)/2, with ``vec_to_skew`` as the structural constructor: anything
built through it is exactly skew, no runtime tolerance involved.  Positions
and basis indices are 1-based in the public API.
"""

from functools import lru_cache

import numpy as np

__all__ = [
    "skew_dim",
    "pi_index",
    "pair_from_index",
    "elementary_skew",
    "skew_basis",
    "skew_to_vec",
    "vec_to_skew",
    "plucker_eval",
]


class RankError(ValueError):
    """Numerical rank of the input is not what the operation requires.

    Carries the singular values that led to the rejection in
    ``self.singular_values``.
    """

    def __init__(self, message, singular_values):
        super().__init__(message)
        self.singular_values = np.asarray(singular_values)


def skew_dim(d):
    """Dimension m = C(d, 2) of the space of skew-symmetric d x d matrices."""
    return d * (d - 1) // 2


def pi_index(i, j, d):
    """1-based lexicographic index of the upper-triangular position (i, j).

    The pairs (1,2), (1,3), ..., (1,d), (2,3), ..., (d-1,d) map to 1..m.
    Raises ValueError unless 1 <= i < j <= d.
    """
    if not (1 <= i < j <= d):
        raise ValueError(f"need 1 <= i < j <= d, got (i, j, d) = ({i}, {j}, {d})")
    return (i - 1) * (2 * d - i) // 2 + (j - i)


def pair_from_index(p, d):
    """Inverse of :func:`pi_index`: the pair (i, j), i < j, with index p."""
    rows, cols = _upper_indices(d)
    if not (1 <= p <= len(rows)):
        raise ValueError(f"basis index {p} out of range 1..{len(rows)} for d = {d}")
    return int(rows[p - 1]) + 1, int(cols[p - 1]) + 1


def elementary_skew(p, d):
    """Elementary skew basis matrix with +1 above the diagonal at pair number p."""
    pair_from_index(p, d)  # the range check
    return skew_basis(d)[p - 1].copy()


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
    """All m elementary skew matrices stacked as an (m, d, d) read-only array."""
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
    """Strict upper triangle of A as an m-vector in lexicographic order."""
    A = np.asarray(A)
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
    x y^T - y x^T are common zeros of these polynomials.
    """
    A = np.asarray(A)
    d = A.shape[0]
    i, j, k, l = quad
    if not (1 <= i < j < k < l <= d):
        raise ValueError(f"quad must be strictly increasing within 1..{d}, got {quad}")
    a = lambda r, s: A[r - 1, s - 1]
    return a(i, j) * a(k, l) - a(i, k) * a(j, l) + a(i, l) * a(j, k)


def rank2_factor(A):
    """Factor a numerically rank-two skew matrix as x y^T - y x^T.

    Uses an orthonormal basis (u1, u2) of the range and gamma = u1^T A u2,
    returning (gamma*u1, u2).  Numerical rank counts singular values above
    1e-10 times the largest one.

    Raises
    ------
    RankError
        If the numerical rank is not exactly two; carries the singular values.
    """
    A = np.asarray(A, dtype=float)
    U, s, _ = np.linalg.svd(A)
    if s[0] == 0.0:
        raise RankError("matrix is zero, expected rank two", s)
    rank = int(np.sum(s > 1e-10 * s[0]))
    if rank != 2:
        raise RankError(f"numerical rank is {rank}, expected two", s)
    u1, u2 = U[:, 0], U[:, 1]
    gamma = u1 @ A @ u2
    return gamma * u1, u2

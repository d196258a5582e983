"""The linear space of tangential diffusion coefficients on the sphere.

A symmetric m x m matrix H (m = C(d,2)) induces the matrix-valued quadratic
map ``c_H(x) = sum_pq h_pq D_p x x^T D_q^T``, which satisfies c_H(x) x = 0
identically.  Coefficient maps c are stored as (d, d, d, d) tensors C with
``c_ij(x) = x^T C[i, j] x`` and the symmetries C[i,j] = C[j,i],
C[i,j,k,l] = C[i,j,l,k].  All identities are checked on coefficients,
never by sampling alone.

The kernel of H -> c_H has dimension C(d, 4) and is spanned by the
Plucker-relation matrices :func:`k_matrix`, one per increasing 4-tuple.

Index tables are built once per d, on first use, and kept read-only for
the life of the process: the strict upper triangle (2m integers) and the
pair and sign tables of the elementary basis (2d^2 entries) in ``skew``,
and here the Plucker kernel's gather positions (6 C(d, 4) integers).
Together they take 4.8 kB at d = 8 and 242 kB at d = 20, besides the
(m, d, d) elementary basis ``skew_basis`` caches (14 kB and 608 kB).
"""

from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .skew import (_integer, _pair_signs, _upper_indices, skew_basis, skew_dim, skew_to_vec,
                   vec_to_skew)

__all__ = [
    "c_H_eval",
    "biquadratic_eval",
    "h_action",
    "cmap_from_h",
    "trace_form",
    "c_space_basis",
    "k_matrix",
    "h_from_c",
    "h_from_json",
]


class TangencyError(ValueError):
    """Input map is not tangential (c(x) x != 0 as a coefficient identity).

    ``self.residual`` is the Frobenius distance between the input and its
    best representation as some c_H.
    """

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = float(residual)


def _symmetric_part(A):
    """0.5 (A + A^T) of a finite A, with 0.5 A + 0.5 A^T where the sum overflows.

    A^T swaps the last two axes, so a stack of matrices or a coefficient
    tensor is symmetrized in its last two indices.  Both rules are exact on a
    symmetric entry, so a symmetric A keeps its bits.
    """
    At = np.swapaxes(A, -1, -2)
    with np.errstate(over="ignore"):
        S = 0.5 * (A + At)
    over = ~np.isfinite(S)
    if over.any():
        S[over] = (0.5 * A + 0.5 * At)[over]
    return S


def _symmetric(A, message):
    """The symmetric part of A; ValueError(message) unless A is symmetric to roundoff."""
    S = _symmetric_part(A)
    if np.abs(A - S).max(initial=0.0) > 1e-10 * np.abs(A).max(initial=0.0):
        raise ValueError(message)
    return S


def _float_array(value):
    """value as a float array, or None if it is not a regular array of numbers."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        return None


def _check_h(H, d=None, name="H"):
    """(symmetric part of H, d) for a finite (m, m) H, m = C(d, 2), with d
    inferred from the shape if not given; ValueError naming ``name``, or ``d``
    if it is negative, otherwise."""
    want = "" if d is None else f" = {skew_dim(d)} for d = {d}"
    given, H = H, _float_array(H)
    if H is None:
        raise ValueError(f"{name} must be an (m, m) array of numbers with m = C(d, 2){want}, "
                         f"got {given!r:.80}")
    if d is None:
        d = int(round((1 + np.sqrt(1 + 8 * (H.shape[0] if H.ndim == 2 else 0))) / 2))
    if H.shape != (skew_dim(d),) * 2:
        raise ValueError(f"{name} must be (m, m) with m = C(d, 2){want}, got shape {H.shape}")
    if not np.all(np.isfinite(H)):
        raise ValueError(f"{name} must be finite")
    return _symmetric_part(H), d


def c_H_eval(H, x):
    """Evaluate c_H at a point: sum_pq h_pq (D_p x)(D_q x)^T, a symmetric d x d matrix.

    ValueError if x is not finite or if c_H(x) overflows.
    """
    x = np.asarray(x, dtype=float)
    H, d = _check_h(H, x.shape[0])
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    M = skew_basis(d) @ x          # row p is D_p x
    with np.errstate(over="ignore", invalid="ignore"):
        c = M.T @ H @ M
    if not np.all(np.isfinite(c)):
        raise ValueError("c_H(x) is not finite: the entries of H and x are too large")
    return c


def biquadratic_eval(H, x, y):
    """The biquadratic form y^T c_H(x) y, evaluated as a quadratic form in vec(xy^T - yx^T)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("x and y must have the same dimension")
    H, _ = _check_h(H, x.shape[0])
    a = skew_to_vec(np.outer(x, y) - np.outer(y, x))
    return float(a @ H @ a)


def h_action(H, A):
    """Apply H as a symmetric linear map on skew matrices (componentwise on vec)."""
    A = np.asarray(A, dtype=float)
    H, d = _check_h(H, A.shape[0])
    return vec_to_skew(H @ skew_to_vec(A), d)


def cmap_from_h(H, d):
    """Coefficient tensor of c_H, symmetrized in its last two indices.

    D_p[u, a] is nonzero only at the pair p of {u, a}, so the entry
    sum_pq h_pq D_p[u, a] D_q[v, b] is the single signed entry
    S[u, a] S[v, b] H[P[u, a], P[v, b]] (``skew._pair_signs``), one gather.
    """
    H, d = _check_h(H, d)
    if H.size == 0:
        return np.zeros((d,) * 4)
    P, S = _pair_signs(d)
    T = (S[:, None, :, None] * S[None, :, None, :]) * H[P[:, None, :, None], P[None, :, None, :]]
    # A zero sign times a negative entry is -0.0; the sum over p, q gives +0.0.
    T += 0.0
    return _symmetric_part(T)


def trace_form(H, d):
    """Symmetric matrix C with trace(c_H(x)) = x^T C x: the partial trace of c_H's tensor.

    Only the (d, d, d) diagonal u = v of :func:`cmap_from_h`'s tensor is
    gathered, entry for entry as there, so C keeps the bits of the full
    tensor's trace without its d^4 entries.
    """
    H, d = _check_h(H, d)
    if H.size == 0:
        return np.zeros((d, d))
    P, S = _pair_signs(d)
    T = (S[:, :, None] * S[:, None, :]) * H[P[:, :, None], P[:, None, :]]
    T += 0.0
    return np.einsum("iab->ab", _symmetric_part(T))


def c_space_basis(d):
    """The explicit spanning family of the tangential coefficient space.

    Six families built from elementary skew matrices S_ab = e_a e_b^T - e_b e_a^T:
    two indexed by increasing 4-tuples, three by increasing triples, and the
    squares S_ab x x^T S_ab^T doubled, for a total of
    2*C(d,4) + 3*C(d,3) + C(d,2) = d^2 (d^2 - 1) / 12 linearly independent maps.
    The member x -> P x x^T Q^T + Q x x^T P^T of a pair (P, Q) is c_H for
    H = p q^T + q p^T, with p and q the vectors of P and Q.
    """
    if d < 2:
        raise ValueError("need d >= 2")

    S = dict(zip(combinations(range(1, d + 1), 2), np.eye(skew_dim(d))))

    def pair(p, q):
        return cmap_from_h(np.outer(p, q) + np.outer(q, p), d)

    out = []
    for i, j, k, l in combinations(range(1, d + 1), 4):
        out.append(pair(S[i, j], S[k, l]))
        out.append(pair(S[i, k], S[j, l]))
    for i, j, k in combinations(range(1, d + 1), 3):
        out.append(pair(S[i, j], S[i, k]))
        out.append(pair(S[i, j], S[j, k]))
        out.append(pair(S[i, k], S[j, k]))
    for i, j in combinations(range(1, d + 1), 2):
        out.append(pair(S[i, j], S[i, j]))
    return out


def k_matrix(quad, d):
    """The kernel matrix K_(i,j,k,l): vec(A) -> quadratic form 4 * Plucker_(i,j,k,l)(A).

    The one K of :class:`_PluckerKernel`'s basis at quad's place in the order
    of ``combinations(range(1, d + 1), 4)``.  ValueError unless quad is four
    integers 1 <= i < j < k < l <= d.
    """
    i, j, k, l = quad
    if not (all(map(_integer, (i, j, k, l, d))) and 1 <= i < j < k < l <= d):
        raise ValueError(f"quad must be strictly increasing within 1..{d}, got {quad}")
    # Lexicographic rank: C(d, 4) - 1 less the 4-sets that sort after quad.
    t = np.zeros(comb(d, 4))
    t[len(t) - 1 - sum(comb(d - c, 4 - n) for n, c in enumerate(quad))] = 1.0
    # Adding 0 turns the -0 that the other quads' (ik, jl) entries get into +0.
    return _kernel(d).combine(t) + 0.0


class _PluckerKernel:
    """The kernel of H -> c_H as index gathers over its C(d, 4) basis matrices.

    K_(ijkl) (see :func:`k_matrix`) is +1 at the symmetric position pairs
    (ij, kl) and (il, jk) of the skew-pair index and -1 at (ik, jl).  Two
    disjoint index pairs determine their 4-tuple, so distinct K's have
    disjoint supports and each operation below is one gather or scatter.
    """

    SIGNS = np.array([1.0, 1.0, -1.0])

    def __init__(self, d):
        self.m = skew_dim(d)
        pair, _ = _pair_signs(d)
        i, j, k, l = np.array(list(combinations(range(d), 4)), dtype=int).reshape(-1, 4).T
        rows = np.stack([pair[i, j], pair[i, l], pair[i, k]], axis=1)
        cols = np.stack([pair[k, l], pair[j, k], pair[j, l]], axis=1)
        # Flat positions of (row, col) and (col, row) in an m x m array.
        self.upper = rows * self.m + cols
        self.lower = cols * self.m + rows
        self.upper.setflags(write=False)
        self.lower.setflags(write=False)

    def __len__(self):
        return len(self.upper)

    def inner(self, X):
        """<K_q, X> for every q."""
        flat = X.ravel()
        S = flat[self.upper] + flat[self.lower]
        return S[:, 0] + S[:, 1] - S[:, 2]

    def combine(self, t):
        """sum_q t_q K_q."""
        X = np.zeros(self.m * self.m)
        vals = t[:, None] * self.SIGNS
        X[self.upper] = vals
        X[self.lower] = vals
        return X.reshape(self.m, self.m)

    def project(self, X):
        """Orthogonal projection onto span(K); every K_q has squared norm 6."""
        return self.combine(self.inner(X) / 6.0)


@lru_cache(maxsize=None)
def _kernel(d):
    """The one read-only :class:`_PluckerKernel` of dimension d."""
    return _PluckerKernel(d)


def h_from_c(C):
    """Recover the Frobenius-minimal H with c_H = C (coefficientwise).

    The map A: H -> c_H satisfies A^T A = 3 (I - proj_K) on symmetric
    matrices, so the least-squares preimage orthogonal to the kernel is
    A^T C / 3 = (M + M^T) / 6, where, with C~ the tensor C symmetrized in
    its last two indices,
    ``M[(i,j), (k,l)] = C~[i,k,j,l] - C~[i,l,j,k] - C~[j,k,i,l] + C~[j,l,i,k]``.

    Raises
    ------
    TangencyError
        If the Frobenius distance between C and its best c_H fit, which the
        error carries, exceeds 1e-10 ||C||.
    """
    C = np.asarray(C, dtype=float)
    d = C.shape[0]
    if C.shape != (d, d, d, d) or not np.all(np.isfinite(C)):
        raise ValueError(f"C must be a finite (d, d, d, d) tensor, got shape {C.shape}")
    i, j = _upper_indices(d)
    Ct = _symmetric_part(C)
    M = (Ct[i[:, None], i, j[:, None], j] - Ct[i[:, None], j, j[:, None], i]
         - Ct[j[:, None], i, i[:, None], j] + Ct[j[:, None], j, i[:, None], i])
    H = (M + M.T) / 6.0
    residual = np.linalg.norm(cmap_from_h(H, d) - C)
    if residual > 1e-10 * np.linalg.norm(C):
        raise TangencyError(
            f"map is not tangential: best-fit residual {residual:.3e}", residual
        )
    return H


def h_from_json(obj):
    """(H, d) from the JSON form {"d": d, "H": [[...]]}, H a symmetric m x m matrix.

    ValueError unless d is an integer >= 0 and H such a matrix for it.
    """
    d = obj["d"]
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 0:
        raise ValueError(f"d must be a nonnegative integer, got {d!r:.80}")
    H = _float_array(obj["H"])
    if H is not None and H.size == 0 and skew_dim(d) == 0:
        H = H.reshape(0, 0)
    return _check_h(obj["H"] if H is None else H, int(d))


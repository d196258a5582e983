"""Structure-preserving simulation on the ball and sphere, and Monte Carlo moments.

Each state space has one entry, an ensemble: :func:`sphere_ensemble`,
:func:`ball_ensemble` and :func:`scalar_ball_ensemble`.  Path k of an ensemble
is driven by the noise stream of path id k alone, so it is bit-identical to
row k of any larger ensemble with the same arguments, whatever the block it
runs in.  Kept states leave through a ``sink`` in path-major pieces of whole
paths or of one path, none larger than a noise chunk; one path is
``n_paths=1`` with a sink (see :func:`sphere_ensemble`).

The tangential part of the dynamics is integrated by a geometric exponential
step ``X <- expm(A_0 h + sum_p A_p dW_p) X``: diagonal Pade approximants of a
skew matrix are exactly orthogonal, so sphere paths keep unit norm to
roundoff.  At d = 3 and 4 the degree-13 approximant is applied in closed
form, row by row, without forming matrices (:func:`_rot3_apply`,
:func:`_rot4_apply`); rows whose norm needs squarings, and every other d,
go through :func:`expm_skew`.  Ball schemes interleave that rotation with an
Euler-Maruyama radial substep.  Noise is counter-based: each path owns a
Philox stream keyed by (seed, path_id); the top 53 bits k of each draw give
the midpoint (k + 1/2) * 2**-53 of a uniform grid, mapped to a Gaussian
through the inverse normal CDF, so ensembles are reproducible and
embarrassingly parallel.  A block of paths draws its noise in time chunks of
about ``_NOISE_VALUES`` values, each path's stream carrying over from one
chunk to the next, and holds two chunks at most, 8 MiB of float64 in all
(or one step, if one step's noise is larger than a chunk), so the memory a
block holds does not grow with the number of steps; the streams are those
of :func:`path_normals` whatever the chunk length.  While chunk k is
stepped, a helper thread maps the uniforms of chunk k + 1 to normals (the
inverse CDF releases the interpreter lock); a block of one chunk, or of
one-step chunks larger than ``_NOISE_VALUES``, starts no thread.  Norm
bookkeeping (largest radius, largest deviation from the sphere) is reduced
once per chunk.  Seeds and path ids are integers in [0, 2**64).
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from scipy.special import ndtri

from .cspace import _symmetric
from .generator import _exponent, _start_point
from .model import _alpha_psd
from .skew import _upper_indices, skew_basis, skew_to_vec

__all__ = [
    "SkewDrive",
    "expm_skew",
    "path_normals",
    "sphere_ensemble",
    "ball_ensemble",
    "scalar_ball_ensemble",
    "twin_path_experiment",
    "mc_moment",
    "eval_poly",
]

_BLOCK = 4096
_CLAMP = 1.0 - 1e-15
# How far |x0| may miss the state space: the paths keep unit norm to about 1e-12.
_X0_TOL = 1e-12
# Noise values (float64, 4 MiB) in one chunk; a block holds two chunks at most,
# whatever n_steps is (one step alone if its noise is larger than this).
_NOISE_VALUES = 1 << 19
# Names the noise streams and step kernels that seeded outputs depend on, and
# moves with their bits.  "1": expm_skew at every d but 3; "2": closed-form
# rotation at d = 4.
_SCHEME_VERSION = "2"


@dataclass(frozen=True)
class SkewDrive:
    """Drift and diffusion directions (A_0; A_1..A_m), all skew-symmetric."""

    a0: np.ndarray
    diffusion: np.ndarray

    def __post_init__(self):
        a0 = np.asarray(self.a0, dtype=float)
        d = a0.shape[0]
        diff = np.asarray(self.diffusion, dtype=float)
        if diff.size == 0:
            diff = np.zeros((0, d, d))
        if diff.ndim != 3 or diff.shape[1:] != (d, d):
            raise ValueError(f"diffusion must be a (m, {d}, {d}) stack, got {diff.shape}")
        if not (np.all(np.isfinite(a0)) and np.all(np.isfinite(diff))):
            raise ValueError("a0 and diffusion must be finite")
        for name, A in (("a0", a0[None]), ("diffusion", diff)):
            if A.size == 0:
                continue
            dev = np.abs(A + A.transpose(0, 2, 1)).max()
            if dev > 1e-12 * (1.0 + np.abs(A).max()):
                raise ValueError(f"{name} is not skew-symmetric (deviation {dev:.2e})")
        object.__setattr__(self, "a0", 0.5 * (a0 - a0.T))
        object.__setattr__(self, "diffusion", 0.5 * (diff - diff.transpose(0, 2, 1)))

    @property
    def d(self):
        return self.a0.shape[0]

    @property
    def n_diffusion(self):
        return self.diffusion.shape[0]

    @classmethod
    def zero(cls, d):
        return cls(np.zeros((d, d)), np.zeros((0, d, d)))

    @classmethod
    def elementary(cls, d, a0=None):
        """Drive whose diffusion directions are all elementary skew matrices."""
        a0 = np.zeros((d, d)) if a0 is None else a0
        return cls(a0, np.array(skew_basis(d)))


@dataclass
class EnsembleResult:
    """Terminal states and norm bookkeeping of an ensemble; kept states went to its sink."""

    times: np.ndarray
    terminal: np.ndarray
    seed: int
    scheme: str
    n_paths: int
    max_norm_dev: float
    max_radius: np.ndarray
    clamp_fraction: float
    # What the step loop did and cost, summed over blocks and read once per
    # noise chunk: scheme_version, chunks, chunk_steps (longest chunk),
    # noise_bytes (the noise buffers of one block), noise_wait_s (the loop
    # waiting for a chunk's normals: on the helper thread, or in a block of
    # one chunk on the inverse CDF itself), step_s (rotation, radial substep
    # and bookkeeping, not the sink) and clamps.
    stats: dict = field(default_factory=dict)


@dataclass
class MCMoment:
    estimate: float
    stderr: float
    n: int


@dataclass
class TwinPathReport:
    """Divergence of same-noise path pairs started eps apart."""

    max_divergence: np.ndarray
    eps: float
    kappa_nu_ratio: float
    uniqueness_condition: bool   # kappa/nu^2 > sqrt(2) - 1
    T: float
    h: float


# Pade coefficients and 1-norm thresholds for the scaling-and-squaring
# exponential (degrees 5, 9, 13; see expm_skew for why 3 and 7 are unused).
_PADE = {
    5: ([30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0], 2.539398330063230e-1),
    9: ([17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
         2162160.0, 110880.0, 3960.0, 90.0, 1.0], 2.097847961257068),
    13: ([64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
          1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
          33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0],
         5.371920351148152),
}


def _solve_small(A, B):
    """Batched solve specialized by size: cofactor inverse for n <= 3, else LAPACK."""
    n = A.shape[-1]
    if n == 1:
        return B / A[:, 0, 0, None, None]
    if n == 2:
        det = A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0]
        inv = np.empty_like(A)
        inv[:, 0, 0] = A[:, 1, 1]
        inv[:, 0, 1] = -A[:, 0, 1]
        inv[:, 1, 0] = -A[:, 1, 0]
        inv[:, 1, 1] = A[:, 0, 0]
        return (inv @ B) / det[:, None, None]
    if n == 3:
        a, b, c = A[:, 0, 0], A[:, 0, 1], A[:, 0, 2]
        d, e, f = A[:, 1, 0], A[:, 1, 1], A[:, 1, 2]
        g, h, i = A[:, 2, 0], A[:, 2, 1], A[:, 2, 2]
        co00 = e * i - f * h
        co01 = c * h - b * i
        co02 = b * f - c * e
        co10 = f * g - d * i
        co11 = a * i - c * g
        co12 = c * d - a * f
        co20 = d * h - e * g
        co21 = b * g - a * h
        co22 = a * e - b * d
        det = a * co00 + b * co10 + c * co20
        inv = np.empty_like(A)
        inv[:, 0, 0], inv[:, 0, 1], inv[:, 0, 2] = co00, co01, co02
        inv[:, 1, 0], inv[:, 1, 1], inv[:, 1, 2] = co10, co11, co12
        inv[:, 2, 0], inv[:, 2, 1], inv[:, 2, 2] = co20, co21, co22
        return (inv @ B) / det[:, None, None]
    return np.linalg.solve(A, B)


def _pade_exp(M, degree, s):
    """Diagonal Pade of the given degree with s squarings, on a (N, n, n) stack."""
    if s:
        M = M / (2.0 ** s)
    n = M.shape[-1]
    b = _PADE[degree][0]
    eye = np.broadcast_to(np.eye(n), M.shape).copy()
    A2 = M @ M
    powers = {0: eye, 2: A2}
    for k in range(4, degree, 2):
        powers[k] = powers[k - 2] @ A2
    V = sum(b[k] * powers[k] for k in range(0, degree + 1, 2))
    U = M @ sum(b[k + 1] * powers[k] for k in range(0, degree, 2))
    R = _solve_small(V - U, V + U)
    for _ in range(s):
        R = R @ R
    return R


def expm_skew(M):
    """Matrix exponential of a stack of matrices by Pade scaling and squaring.

    Accepts shape (..., n, n); degree and scaling are chosen per matrix, so a
    matrix's exponential does not depend on its batch neighbors.  For skew
    inputs the diagonal Pade approximant is exactly orthogonal, so the result
    is orthogonal to roundoff; this is what makes the sphere scheme
    norm-preserving without renormalization.
    """
    M = np.asarray(M, dtype=float)
    single = M.ndim == 2
    if single:
        M = M[None]
    lead = M.shape[:-2]
    n = M.shape[-1]
    flat = M.reshape(-1, n, n)
    norms = np.abs(flat).sum(axis=-2).max(axis=-1)

    theta13 = _PADE[13][1]
    squarings = np.zeros(len(flat), dtype=int)
    over = norms > theta13
    squarings[over] = np.ceil(np.log2(norms[over] / theta13)).astype(int)
    scaled = norms / 2.0 ** squarings
    # Degrees 3 and 7 are folded into 5 and 9: one extra matmul is cheaper
    # than fragmenting the batch into several Pade groups.
    degrees = np.full(len(flat), 13, dtype=int)
    for m in (9, 5):
        degrees[scaled <= _PADE[m][1]] = m

    out = np.empty_like(flat)
    key = degrees * 64 + squarings
    for k in np.unique(key):
        idx = np.nonzero(key == k)[0]
        out[idx] = _pade_exp(flat[idx], int(k) // 64, int(k) % 64)
    out = out.reshape(*lead, n, n)
    return out[0] if single else out


def _rot3_apply(w, X, h_a0vec=None):
    """Rotation substep for d = 3 without forming matrices.

    For a 3x3 skew matrix M with upper entries (a, b, c), Cayley-Hamilton
    gives M^3 = -theta^2 M with theta^2 = a^2 + b^2 + c^2, so the degree-13
    diagonal Pade approximant (with scaling and squaring) collapses to
    R = I + p M + q M^2 for per-matrix scalars p, q.  This is the same
    approximant expm_skew computes, evaluated in O(1) column operations, and
    inherits its exact orthogonality.
    """
    if h_a0vec is not None:
        w = w + h_a0vec
    a, b, c = w[:, 0], w[:, 1], w[:, 2]
    theta2 = a * a + b * b + c * c
    aa, ab, ac = np.abs(a), np.abs(b), np.abs(c)
    norm1 = np.maximum(np.maximum(aa + ab, aa + ac), ab + ac)
    theta13 = _PADE[13][1]
    s = np.zeros(len(w), dtype=int)
    over = norm1 > theta13
    if np.any(over):
        s[over] = np.ceil(np.log2(norm1[over] / theta13)).astype(int)
    x2 = -theta2 / 4.0 ** s
    cf = _PADE[13][0]
    v = cf[2] + x2 * (cf[4] + x2 * (cf[6] + x2 * (cf[8] + x2 * (cf[10] + x2 * cf[12]))))
    wod = cf[3] + x2 * (cf[5] + x2 * (cf[7] + x2 * (cf[9] + x2 * (cf[11] + x2 * cf[13]))))
    u = cf[1] + x2 * wod
    s0 = cf[0] + x2 * v
    det = s0 * s0 - x2 * u * u
    gamma = (u * u - s0 * v) / (cf[0] * det)
    p = 2.0 * u * (1.0 / cf[0] + gamma * x2)
    q = 2.0 * u * (u / det)
    smax = int(s.max()) if len(s) else 0
    for k in range(smax):
        live = s > k
        pl, ql = p[live], q[live]
        p[live] = 2.0 * pl + 2.0 * pl * ql * x2[live]
        q[live] = 2.0 * ql + pl * pl + ql * ql * x2[live]
    if smax:
        p = p * 0.5 ** s
        q = q * 0.25 ** s
    x1c, x2c, x3c = X[:, 0], X[:, 1], X[:, 2]
    m1 = a * x2c + b * x3c
    m2 = -a * x1c + c * x3c
    m3 = -b * x1c - c * x2c
    mm1 = a * m2 + b * m3
    mm2 = -a * m1 + c * m3
    mm3 = -b * m1 - c * m2
    out = np.empty_like(X)
    out[:, 0] = x1c + p * m1 + q * mm1
    out[:, 1] = x2c + p * m2 + q * mm2
    out[:, 2] = x3c + p * m3 + q * mm3
    return out


def _pade_angle(phi):
    """psi(phi) with r(i phi) = exp(i psi) for the degree-13 diagonal Pade approximant r."""
    x = -phi * phi
    cf = _PADE[13][0]
    v = cf[0] + x * (cf[2] + x * (cf[4] + x * (cf[6] + x * (cf[8] + x * (cf[10] + x * cf[12])))))
    w = cf[1] + x * (cf[3] + x * (cf[5] + x * (cf[7] + x * (cf[9] + x * (cf[11] + x * cf[13])))))
    return 2.0 * np.arctan2(phi * w, v)


def _isoclinic(u, theta, psi, X, self_dual):
    """cos(psi) X + sin(psi) N X / theta, N the 4 x 4 (anti-)self-dual skew matrix of u.

    N has upper entries (u0, u1, u2, s u2, -s u1, s u0), s = +1 if ``self_dual``
    else -1, so N^2 = -theta^2 I for theta = |u|.
    """
    f = np.divide(np.sin(psi), theta, out=np.zeros_like(theta), where=theta > 0)
    a, b, c = f * u[0], f * u[1], f * u[2]
    co = np.cos(psi)
    pm = np.add if self_dual else np.subtract
    x0, x1, x2, x3 = X.T
    out = np.empty_like(X)
    out[:, 0] = co * x0 + (a * x1 + b * x2 + c * x3)
    out[:, 1] = pm(co * x1 - a * x0, c * x2 - b * x3)
    out[:, 2] = pm(co * x2 - b * x0, a * x3 - c * x1)
    out[:, 3] = pm(co * x3 - c * x0, b * x1 - a * x2)
    return out


def _pade_rot4(w, X):
    """r(M) X for the degree-13 Pade r and the 4 x 4 skew M with upper entries w."""
    m01, m02, m03, m12, m13, m23 = w.T
    up = (0.5 * (m01 + m23), 0.5 * (m02 - m13), 0.5 * (m03 + m12))
    um = (0.5 * (m01 - m23), 0.5 * (m02 + m13), 0.5 * (m03 - m12))
    tp = np.sqrt(up[0] * up[0] + up[1] * up[1] + up[2] * up[2])
    tm = np.sqrt(um[0] * um[0] + um[1] * um[1] + um[2] * um[2])
    psi1, psi2 = _pade_angle(tp + tm), _pade_angle(tp - tm)
    Y = _isoclinic(um, tm, 0.5 * (psi1 - psi2), X, False)
    return _isoclinic(up, tp, 0.5 * (psi1 + psi2), Y, True)


def _rot4_apply(w, X, h_a0vec=None):
    """Rotation substep for d = 4 without forming matrices.

    ``w`` holds the upper entries of each row's skew M.  The degree-13
    diagonal Pade approximant r, with numerator V(M^2) + M W(M^2), maps an
    eigenvalue i phi of M to exp(i psi), psi = 2 atan2(phi W(-phi^2), V(-phi^2)).
    M = M+ + M- with commuting self-dual and anti-self-dual parts,
    (M+-)^2 = -theta+-^2 I, and the eigenvalues of M are i(theta+ +- theta-);
    so r(M) is the product of the isoclinic rotations
    cos(psi+-) I + sin(psi+-) M+- / theta+-, with
    psi+- = (psi(theta+ + theta-) +- psi(theta+ - theta-)) / 2 (Gallier and
    Xu 2002).  Rows whose 1-norm needs no squaring always get the degree-13
    approximant, in O(1) column operations per row, where expm_skew takes
    degree 5 or 9 for the smaller norms; so results differ from expm_skew's
    by about an ulp.  Evaluated as E(M^2) + M O(M^2) instead, it loses up to
    3e-15 of orthogonality near the squaring threshold, this way about
    1e-15.  Rows whose 1-norm needs squarings go to expm_skew, as a stack
    of matrices, and keep its bits.
    """
    if h_a0vec is not None:
        w = w + h_a0vec
    # expm_skew's column sums of |M|, in its order
    a01, a02, a03, a12, a13, a23 = np.abs(w).T
    norm1 = np.maximum(np.maximum(a01 + a02 + a03, a01 + a12 + a13),
                       np.maximum(a02 + a12 + a23, a03 + a13 + a23))
    over = norm1 > _PADE[13][1]
    if not over.any():
        return _pade_rot4(w, X)
    out = np.empty_like(X)
    keep = ~over
    out[keep] = _pade_rot4(w[keep], X[keep])
    rows, cols = _upper_indices(4)
    M = np.zeros((int(over.sum()), 4, 4))
    M[:, rows, cols] = w[over]
    M[:, cols, rows] = -w[over]
    out[over] = np.einsum("bij,bj->bi", expm_skew(M), X[over])
    return out


def _check_key(value, name):
    if not isinstance(value, (int, np.integer)) or not 0 <= int(value) < 1 << 64:
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {value!r}")
    return int(value)


def _streams(seed, path_ids):
    """One Philox generator per path, keyed by the uint64 pair (seed, path_id)."""
    seed = _check_key(seed, "seed")
    return [np.random.Generator(np.random.Philox(
        key=np.array([seed, _check_key(p, "path_id")], dtype=np.uint64))) for p in path_ids]


def _uniforms_into(streams, out):
    """Fill out[row] with the next ``Generator.random`` draws of streams[row], in place."""
    for row, gen in enumerate(streams):
        gen.random(out=out[row])


def _normals_from_uniforms(out, scale=1.0):
    """Map the uniforms in ``out`` to standard normals times ``scale``, in place.

    ``random`` turns the top 53 bits k of each raw draw into k * 2**-53; adding
    2**-54 gives the grid midpoint (k + 1/2) * 2**-53 exactly as rounded, since
    rounding commutes with scaling by a power of two.  The inverse normal CDF
    maps the midpoint to a standard normal.  ``out`` is the only buffer.
    """
    out += 2.0 ** -54
    ndtri(out, out=out)
    if scale != 1.0:
        out *= scale


def _normals_into(streams, out):
    """Fill out[row] with the next standard normals of streams[row], in place."""
    _uniforms_into(streams, out)
    _normals_from_uniforms(out)


def path_normals(seed, path_id, n_steps, n_cols):
    """Standard normals for one path: Philox keyed by (seed, path), inverse-CDF mapped.

    Row i holds the normals of step i; ensembles draw exactly these, chunk by chunk.
    """
    out = np.empty((1, n_steps, n_cols))
    _normals_into(_streams(seed, [path_id]), out)
    return out[0]


def _grid(T, h, n_paths):
    if not (0 < T < np.inf and 0 < h < np.inf and T / h < np.inf):
        raise ValueError(f"need finite T > 0 and h > 0, got T = {T}, h = {h}")
    if n_paths < 1:
        raise ValueError(f"need n_paths >= 1, got {n_paths}")
    n_steps = max(1, int(round(T / h)))
    return n_steps, T / n_steps


def _alpha_eigh(alpha, d):
    """Eigenpairs of alpha; ValueError unless alpha is a finite, symmetric, PSD (d, d)."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (d, d) or not np.all(np.isfinite(alpha)):
        raise ValueError(f"alpha must be a finite {d} x {d} matrix")
    w, V = np.linalg.eigh(_symmetric(alpha, "alpha must be symmetric"))
    if not _alpha_psd(w):
        raise ValueError(f"alpha is not positive semidefinite (min eig {w[0]:.2e})")
    return w, V


def _psd_sqrt(alpha, d):
    w, V = _alpha_eigh(alpha, d)
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T


def _row_norms(X, sq, out):
    """np.linalg.norm(X, axis=1) into ``out``, with ``sq`` as X-shaped scratch.

    Below 8 columns ``add.reduce`` sums a row left to right, as these column
    adds do, at a fraction of the cost.
    """
    np.multiply(X, X, out=sq)
    if X.shape[1] >= 8:
        np.add.reduce(sq, axis=1, out=out)
    else:
        out[:] = sq[:, 0]
        for i in range(1, X.shape[1]):
            out += sq[:, i]
    np.sqrt(out, out=out)


def _rows_times(X, M, out=None):
    """X @ M.T, each row of it rounded as a row of a larger X would be.

    numpy multiplies a single row by BLAS gemv, which rounds otherwise than
    gemm does for every row of a taller X, so a lone row goes in twice.
    """
    if len(X) == 1:
        XM = (np.concatenate((X, X)) @ M.T)[:1]
        if out is None:
            return XM
        out[:] = XM
        return out
    return np.matmul(X, M.T, out=out)


def _rotation(drive, h):
    """The rotation substep as ``f(dW, X)``, dW one step's (B, m) scaled noise; None if none.

    A drift-only drive multiplies by one precomputed expm(h A_0).  At d = 3
    and 4 the upper entries of h A_0 + sum_p dW_p A_p come from one product
    dW @ Avec and the rotation is applied in closed form; at other d,
    expm_skew exponentiates the stack of matrices.
    """
    d, m = drive.d, drive.n_diffusion
    if m == 0:
        if not np.abs(drive.a0).max() > 0:
            return None
        Q = expm_skew(drive.a0 * h)
        return lambda dW, X: _rows_times(X, Q)
    if d in (3, 4):
        Avec_T = np.array([skew_to_vec(A) for A in drive.diffusion]).T
        h_a0vec = h * skew_to_vec(drive.a0)
        h_a0vec = h_a0vec if h_a0vec.any() else None
        apply = _rot3_apply if d == 3 else _rot4_apply
        return lambda dW, X: apply(_rows_times(dW, Avec_T), X, h_a0vec)
    As = drive.diffusion
    ha0 = drive.a0 * h if np.abs(drive.a0).max() > 0 else None

    def general(dW, X):
        M = np.einsum("bp,pij->bij", dW, As)
        if ha0 is not None:
            M += ha0
        return np.einsum("bij,bj->bi", expm_skew(M), X)

    return general


def _new_stats():
    return {"scheme_version": _SCHEME_VERSION, "chunks": 0, "chunk_steps": 0,
            "noise_bytes": 0, "noise_wait_s": 0.0, "step_s": 0.0, "clamps": 0}


def _noise_chunks(streams, n_steps, chunk, n_cols, sqh, stats):
    """Yield each chunk's (B, steps, n_cols) noise, normals times sqh, in step order.

    The uniforms of chunk k + 1 are drawn on the calling thread before chunk
    k is handed out, and a helper thread maps them to normals while the
    caller steps chunk k; two buffers take turns.  With one chunk, no noise,
    or chunks of one step whose noise alone exceeds ``_NOISE_VALUES``, one
    buffer is filled and stepped in turn and no thread starts.  Close the
    generator to stop the helper.
    """
    los = range(0, n_steps, chunk)
    inline = len(los) == 1 or not n_cols or len(streams) * chunk * n_cols > _NOISE_VALUES
    bufs = [np.empty((len(streams), chunk, n_cols)) for _ in range(1 if inline else 2)]
    stats["noise_bytes"] = max(stats["noise_bytes"], sum(b.nbytes for b in bufs))

    def buffer(k):
        return bufs[k % len(bufs)][:, :min(chunk, n_steps - los[k])]

    def drawn(k):
        buf = buffer(k)
        _uniforms_into(streams, buf)
        return buf

    if inline:
        for k in range(len(los)):
            buf = buffer(k)
            if n_cols:
                _uniforms_into(streams, buf)
                t0 = perf_counter()
                _normals_from_uniforms(buf, sqh)
                stats["noise_wait_s"] += perf_counter() - t0
            yield buf
        return
    helper = ThreadPoolExecutor(1, thread_name_prefix="quadricdiff-noise")
    try:
        ready = helper.submit(_normals_from_uniforms, drawn(0), sqh)
        for k in range(len(los)):
            following = None
            if k + 1 < len(los):
                following = helper.submit(_normals_from_uniforms, drawn(k + 1), sqh)
            t0 = perf_counter()
            ready.result()
            stats["noise_wait_s"] += perf_counter() - t0
            yield buffer(k)
            ready = following
    finally:
        helper.shutdown(wait=True, cancel_futures=True)


def _run_block(drive, x0s, n_steps, h, streams, bhat, Bhat, sqrt_alpha, sink, stats=None):
    """Advance a block of paths; the radial substep runs iff bhat is not None.

    ``streams`` holds one noise stream per path (see :func:`_streams`).  Noise
    arrives in chunks of steps, already scaled by sqrt(h) (see
    :func:`_noise_chunks`); the norms of a chunk's states are reduced into the
    running maxima once per chunk, and ``sink(i, states)``, if given,
    receives them from grid point i on, a new (B, k, d) array with x0 leading
    the first.  Counts and times are added to ``stats`` (see
    :class:`EnsembleResult`).
    """
    stats = _new_stats() if stats is None else stats
    d = drive.d
    m = drive.n_diffusion
    radial = bhat is not None
    n_cols = m + (d if radial else 0)
    B = len(streams)
    chunk = min(n_steps, max(1, _NOISE_VALUES // (B * max(1, n_cols))))
    norms = np.empty((chunk, B))
    sq, tmp, fac = np.empty((B, d)), np.empty((B, d)), np.empty(B)

    X = np.array(x0s, dtype=float)
    rotate = _rotation(drive, h)
    start_norms = np.linalg.norm(X, axis=1)
    max_radius = start_norms.copy()
    max_norm_dev = np.abs(start_norms - 1.0).max() if not radial else 0.0
    clamps = 0

    chunks = _noise_chunks(streams, n_steps, chunk, n_cols, np.sqrt(h), stats)
    try:
        for lo, noise in zip(range(0, n_steps, chunk), chunks):
            steps = noise.shape[1]
            if sink is not None:
                lead = int(lo == 0)
                piece = np.empty((B, lead + steps, d))
                piece[:, :lead] = X[:, None]
            t0 = perf_counter()
            for j in range(steps):
                if rotate is not None:
                    X = rotate(noise[:, j, :m], X)
                nrm = norms[j]
                if radial:
                    np.einsum("bi,bi->b", X, X, out=fac)
                    np.subtract(1.0, fac, out=fac)
                    np.maximum(fac, 0.0, out=fac)
                    np.sqrt(fac, out=fac)
                    _rows_times(X, Bhat, out=tmp)
                    tmp += bhat
                    tmp *= h
                    X += tmp
                    _rows_times(noise[:, j, m:], sqrt_alpha, out=tmp)
                    tmp *= fac[:, None]
                    X += tmp
                    _row_norms(X, sq, nrm)
                    if nrm.max() > 1.0:
                        over = nrm > 1.0
                        clamps += int(over.sum())
                        X[over] *= (_CLAMP / nrm[over])[:, None]
                        nrm[over] = np.linalg.norm(X[over], axis=1)
                else:
                    _row_norms(X, sq, nrm)
                if sink is not None:
                    piece[:, lead + j] = X
            done = norms[:steps]
            np.maximum(max_radius, done.max(axis=0), out=max_radius)
            if not radial:
                done -= 1.0
                max_norm_dev = max(max_norm_dev, np.abs(done, out=done).max())
            stats["step_s"] += perf_counter() - t0
            stats["chunks"] += 1
            stats["chunk_steps"] = max(stats["chunk_steps"], steps)
            if sink is not None:
                sink(lo + 1 - lead, piece)
    finally:
        chunks.close()
    stats["clamps"] += clamps
    return X, max_radius, max_norm_dev, clamps


def _ensemble(scheme, drive, x0, T, h, seed, n_paths, bhat=None, Bhat=None,
              sqrt_alpha=None, sink=None):
    n_steps, h_eff = _grid(T, h, n_paths)
    times = np.linspace(0.0, T, n_steps + 1)
    # Path-major pieces: a kept block's paths fit in one noise chunk, or it is one path.
    cols = max(1, drive.n_diffusion + (drive.d if bhat is not None else 0))
    block = _BLOCK if sink is None else min(_BLOCK, max(1, _NOISE_VALUES // (n_steps * cols)))
    terminal = np.empty((n_paths, drive.d))
    max_radius = np.empty(n_paths)
    max_norm_dev = 0.0
    stats = _new_stats()
    for start in range(0, n_paths, block):
        ids = range(start, min(start + block, n_paths))
        x0s = np.tile(x0, (len(ids), 1))
        block_sink = None if sink is None else (
            lambda i, states, first=start: sink(first, times[i:i + states.shape[1]], states))
        Xt, mr, dev, _ = _run_block(drive, x0s, n_steps, h_eff, _streams(seed, ids),
                                    bhat, Bhat, sqrt_alpha, block_sink, stats)
        terminal[ids.start:ids.stop] = Xt
        max_radius[ids.start:ids.stop] = mr
        max_norm_dev = max(max_norm_dev, dev)
    return EnsembleResult(
        times=times,
        terminal=terminal,
        seed=seed,
        scheme=scheme,
        n_paths=n_paths,
        max_norm_dev=float(max_norm_dev),
        max_radius=max_radius,
        clamp_fraction=stats["clamps"] / (n_paths * n_steps),
        stats=stats,
    )


def sphere_ensemble(drive, x0, T, h, seed, n_paths, sink=None):
    """Sphere paths of ``dX = (o dY) X`` by geometric exponential steps.

    Requires d finite numbers x0 with |x0| = 1 to 1e-12.  Every state keeps
    unit norm to about 1e-12 because each step multiplies by an orthogonal
    matrix; the largest deviation is ``max_norm_dev``.  A ``sink`` receives
    every state, x0 included: ``sink(first_id, times, states)`` gets a new
    (n, k, d) array of paths first_id..first_id+n-1 at the k ``times``.
    """
    x0 = _start_point(x0, drive.d, "sphere", _X0_TOL)
    return _ensemble("sphere", drive, x0, T, h, seed, n_paths, sink=sink)


def _ball_args(bhat, Bhat, alpha, drive, x0):
    d = drive.d
    bhat = np.asarray(bhat, dtype=float).reshape(d)
    Bhat = np.asarray(Bhat, dtype=float)
    if not (np.all(np.isfinite(bhat)) and np.all(np.isfinite(Bhat))):
        raise ValueError("bhat and Bhat must be finite")
    Bsym = _symmetric(Bhat, "Bhat must be symmetric; put the skew part into the drive")
    top = float(np.linalg.eigvalsh(Bsym)[-1])
    if top > 1e-12 * max(1.0, np.abs(Bsym).max()):
        raise ValueError(f"Bhat must be negative semidefinite (max eig {top:.2e})")
    return bhat, Bsym, _psd_sqrt(alpha, d), _start_point(x0, d, "ball", _X0_TOL)


def ball_ensemble(bhat, Bhat, alpha, drive, x0, T, h, seed, n_paths, sink=None):
    """Ball paths: rotation substep by ``drive``, then an Euler-Maruyama radial substep.

    The radial substep adds ``(bhat + Bhat x) h`` and
    ``sqrt(max(0, 1 - |x|^2)) alpha^(1/2) dW``; ``Bhat`` is symmetric negative
    semidefinite and the skew part of the drift is the drive's A_0
    (``quadricdiff simulate --scheme ball`` maps a model to these arguments).
    States that overshoot the sphere are pulled back just inside it, and
    ``clamp_fraction`` reports how often.  Requires finite coefficients, alpha
    positive semidefinite, and d finite numbers x0 with |x0| <= 1 + 1e-12.
    ``sink`` is that of :func:`sphere_ensemble`.
    """
    bhat, Bhat, sqa, x0 = _ball_args(bhat, Bhat, alpha, drive, x0)
    return _ensemble("ball", drive, x0, T, h, seed, n_paths, bhat=bhat, Bhat=Bhat,
                     sqrt_alpha=sqa, sink=sink)


def _scalar_args(kappa, nu, d):
    """(bhat, Bhat, alpha) = (0, -kappa Id, nu^2 Id) of the scalar mean-reverting ball.

    ``nu * nu`` rounds differently from ``nu ** 2`` for some doubles, and
    ``nu ** 2`` raises OverflowError on a Python float, so the overflow is
    caught: an nu^2 that is not positive and finite is a ValueError.
    """
    if not (0 < kappa < np.inf and 0 < nu < np.inf):
        raise ValueError(f"kappa and nu must be positive and finite, got {kappa}, {nu}")
    try:
        nu2 = nu ** 2
    except OverflowError:
        nu2 = np.inf
    if not 0 < nu2 < np.inf:
        raise ValueError(f"nu^2 must be positive and finite, got {nu2} for nu = {nu}")
    return np.zeros(d), -kappa * np.eye(d), nu2 * np.eye(d)


def scalar_ball_ensemble(kappa, nu, drive, x0, T, h, seed, n_paths, sink=None):
    """:func:`ball_ensemble` with Bhat = -kappa Id and alpha = nu^2 Id, and bhat = 0.

    Y = 1 - |X|^2 then has the closed drift ``2 kappa |X|^2 - d nu^2 Y``.
    """
    result = ball_ensemble(*_scalar_args(kappa, nu, drive.d), drive, x0, T, h, seed,
                           n_paths, sink)
    result.scheme = "scalar"
    return result


def twin_path_experiment(kappa, nu, drive, x0, T, h, n_seeds, seed=0, eps=0.0):
    """Same-noise path pairs started eps apart, from a boundary point.

    For each of ``n_seeds`` independent noise streams, simulates X from x0 and
    X~ from (1 - eps) x0 with the identical stream and records the largest
    gap sup_t |X_t - X~_t|.  With eps = 0 the pairs coincide bitwise.  The
    report carries the pathwise-uniqueness condition kappa/nu^2 > sqrt(2)-1.
    Each pair runs side by side in one block, and only the running maxima are kept.
    """
    x0 = _start_point(x0, drive.d, "sphere", _X0_TOL)
    bhat, Bhat, sqa, x0 = _ball_args(*_scalar_args(kappa, nu, drive.d), drive, x0)
    starts = np.stack([x0, _start_point((1.0 - eps) * x0, drive.d, "ball", _X0_TOL)])
    n_steps, h_eff = _grid(T, h, n_seeds)
    gap = np.zeros(n_seeds)

    def fold(i, states):
        np.maximum(gap, np.linalg.norm(states[0::2] - states[1::2], axis=2).max(axis=1),
                   out=gap)

    _run_block(drive, np.tile(starts, (n_seeds, 1)), n_steps, h_eff,
               _streams(seed, np.repeat(range(n_seeds), 2)), bhat, Bhat, sqa, fold)
    ratio = kappa / nu ** 2
    return TwinPathReport(
        max_divergence=gap,
        eps=eps,
        kappa_nu_ratio=ratio,
        uniqueness_condition=bool(ratio > np.sqrt(2.0) - 1.0),
        T=T,
        h=h_eff,
    )


def eval_poly(q, states):
    """Evaluate an exponent-dict polynomial at each row of ``states``.

    Raises ValueError unless every exponent is d nonnegative integers, d the
    number of columns of ``states``.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    vals = np.zeros(states.shape[0])
    for e, c in q.items():
        e = _exponent(e, states.shape[1])
        term = np.full(states.shape[0], float(c))
        for i, ei in enumerate(e):
            if ei:
                term *= states[:, i] ** ei
        vals += term
    return vals


def mc_moment(states, q):
    """Sample mean and standard error of q(X) over terminal states."""
    vals = eval_poly(q, states)
    n = len(vals)
    est = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return MCMoment(est, stderr, n)

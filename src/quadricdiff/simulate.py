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
roundoff.  Ball schemes interleave that rotation with an Euler-Maruyama
radial substep.  Noise is counter-based: each path owns a Philox stream keyed
by (seed, path_id); the top 53 bits k of each draw give the midpoint
(k + 1/2) * 2**-53 of a uniform grid, mapped to a Gaussian through the inverse
normal CDF, so ensembles are reproducible and embarrassingly parallel.  A
block of paths draws its noise in time chunks of about ``_NOISE_VALUES``
values, straight into one float64 buffer of at most 8 MiB, each path's stream
carrying over from one chunk to the next, so the memory a block holds does
not grow with the number of steps; the streams are those of
:func:`path_normals` whatever the chunk length.  Norm bookkeeping (largest
radius, largest deviation from the sphere) is reduced once per chunk.  Seeds
and path ids are integers in [0, 2**64).
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .cspace import _symmetric
from .generator import _exponent, _start_point
from .model import _alpha_psd
from .skew import skew_basis

__all__ = [
    "SkewDrive",
    "EnsembleResult",
    "MCMoment",
    "TwinPathReport",
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
# Noise values (float64, 8 MiB) one block holds at a time, whatever n_steps is.
_NOISE_VALUES = 1 << 20


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


def _check_key(value, name):
    if not isinstance(value, (int, np.integer)) or not 0 <= int(value) < 1 << 64:
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {value!r}")
    return int(value)


def _streams(seed, path_ids):
    """One Philox generator per path, keyed by the uint64 pair (seed, path_id)."""
    seed = _check_key(seed, "seed")
    return [np.random.Generator(np.random.Philox(
        key=np.array([seed, _check_key(p, "path_id")], dtype=np.uint64))) for p in path_ids]


def _normals_into(streams, out):
    """Fill out[row] with the next standard normals of streams[row], in place.

    ``random`` turns the top 53 bits k of each raw draw into k * 2**-53; adding
    2**-54 gives the grid midpoint (k + 1/2) * 2**-53 exactly as rounded, since
    rounding commutes with scaling by a power of two.  The inverse normal CDF
    maps the midpoint to a standard normal.  ``out`` is the only buffer.
    """
    for row, gen in enumerate(streams):
        gen.random(out=out[row])
    out += 2.0 ** -54
    ndtri(out, out=out)


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
    """np.linalg.norm(X, axis=1) into ``out``, with ``sq`` as X-shaped scratch."""
    np.multiply(X, X, out=sq)
    np.add.reduce(sq, axis=1, out=out)
    np.sqrt(out, out=out)


def _rows_times(X, M):
    """X @ M.T, each row of it rounded as a row of a larger X would be.

    numpy multiplies a single row by BLAS gemv, which rounds otherwise than
    gemm does for every row of a taller X, so a lone row goes in twice.
    """
    if len(X) == 1:
        return (np.concatenate((X, X)) @ M.T)[:1]
    return X @ M.T


def _run_block(drive, x0s, n_steps, h, streams, bhat, Bhat, sqrt_alpha, sink):
    """Advance a block of paths; the radial substep runs iff bhat is not None.

    ``streams`` holds one noise stream per path (see :func:`_streams`).  Noise
    arrives in chunks of steps, already scaled by sqrt(h); the norms of a
    chunk's states are reduced into the running maxima once per chunk, and
    ``sink(i, states)``, if given, receives them from grid point i on, a new
    (B, k, d) array with x0 leading the first.
    """
    d = drive.d
    m = drive.n_diffusion
    radial = bhat is not None
    n_cols = m + (d if radial else 0)
    B = len(streams)
    chunk = min(n_steps, max(1, _NOISE_VALUES // (B * max(1, n_cols))))
    noise = np.empty((B, chunk, n_cols))
    norms = np.empty((chunk, B))
    sq = np.empty((B, d))

    X = np.array(x0s, dtype=float)
    sqh = np.sqrt(h)
    As = drive.diffusion
    drift = np.abs(drive.a0).max() > 0
    ha0 = drive.a0 * h
    rotate = m > 0 or drift
    Q_const = expm_skew(ha0) if (rotate and m == 0) else None
    scalar3 = rotate and m > 0 and d == 3
    if scalar3:
        from .skew import skew_to_vec

        Avec = np.array([skew_to_vec(A) for A in As])
        h_a0vec = h * skew_to_vec(drive.a0)
        if not h_a0vec.any():
            h_a0vec = None
    start_norms = np.linalg.norm(X, axis=1)
    max_radius = start_norms.copy()
    max_norm_dev = np.abs(start_norms - 1.0).max() if not radial else 0.0
    clamps = 0

    for lo in range(0, n_steps, chunk):
        steps = min(chunk, n_steps - lo)
        if sink is not None:
            lead = int(lo == 0)
            piece = np.empty((B, lead + steps, d))
            piece[:, :lead] = X[:, None]
        if n_cols:
            _normals_into(streams, noise[:, :steps])
            noise[:, :steps] *= sqh
        for j in range(steps):
            if rotate:
                if m == 0:
                    X = _rows_times(X, Q_const)
                elif scalar3:
                    X = _rot3_apply(_rows_times(noise[:, j, :m], Avec.T), X, h_a0vec)
                else:
                    M = np.einsum("bp,pij->bij", noise[:, j, :m], As)
                    if drift:
                        M += ha0
                    X = np.einsum("bij,bj->bi", expm_skew(M), X)
            nrm = norms[j]
            if radial:
                r2 = np.einsum("bi,bi->b", X, X)
                fac = np.sqrt(np.clip(1.0 - r2, 0.0, None))
                X += (bhat + _rows_times(X, Bhat)) * h
                X += fac[:, None] * _rows_times(noise[:, j, m:], sqrt_alpha)
                _row_norms(X, sq, nrm)
                over = nrm > 1.0
                if np.any(over):
                    clamps += int(over.sum())
                    X[over] *= (_CLAMP / nrm[over])[:, None]
                    nrm[over] = np.linalg.norm(X[over], axis=1)
            else:
                _row_norms(X, sq, nrm)
            if sink is not None:
                piece[:, lead + j] = X
        if sink is not None:
            sink(lo + 1 - lead, piece)
        done = norms[:steps]
        np.maximum(max_radius, done.max(axis=0), out=max_radius)
        if not radial:
            done -= 1.0
            max_norm_dev = max(max_norm_dev, np.abs(done, out=done).max())
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
    clamps = 0
    for start in range(0, n_paths, block):
        ids = range(start, min(start + block, n_paths))
        x0s = np.tile(x0, (len(ids), 1))
        block_sink = None if sink is None else (
            lambda i, states, first=start: sink(first, times[i:i + states.shape[1]], states))
        Xt, mr, dev, cl = _run_block(drive, x0s, n_steps, h_eff, _streams(seed, ids),
                                     bhat, Bhat, sqrt_alpha, block_sink)
        terminal[ids.start:ids.stop] = Xt
        max_radius[ids.start:ids.stop] = mr
        max_norm_dev = max(max_norm_dev, dev)
        clamps += cl
    return EnsembleResult(
        times=times,
        terminal=terminal,
        seed=seed,
        scheme=scheme,
        n_paths=n_paths,
        max_norm_dev=float(max_norm_dev),
        max_radius=max_radius,
        clamp_fraction=clamps / (n_paths * n_steps),
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

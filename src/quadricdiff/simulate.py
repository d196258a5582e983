"""Structure-preserving simulation on the ball and sphere, and Monte Carlo moments.

Each state space has one entry, an ensemble of a drive: :func:`sphere_ensemble`
and :func:`ball_ensemble` (``model.ensemble`` runs a model through them).  Path
k of an ensemble is driven by the noise stream of path id k alone, so it is
bit-identical to row k of any larger ensemble with the same arguments, whatever
the block it runs in.  Kept states leave through a ``sink`` in path-major
pieces of whole paths or of one path, none larger than a noise chunk; one path
is ``n_paths=1`` with a sink (see :func:`sphere_ensemble`).

The tangential part of the dynamics is integrated by a geometric exponential
step ``X <- expm(A_0 h + sum_p A_p dW_p) X``: diagonal Pade approximants of a
skew matrix are exactly orthogonal, so sphere paths keep unit norm to
roundoff.  A block holds its states as d rows of B paths, so each step op
reads contiguous rows and matrices multiply the states from the left.  At
d = 2, 3 and 4 the degree-13 approximant, squarings included, is applied in
closed form, path by path, without forming matrices (:func:`_rot2_apply`,
:func:`_rot3_apply`, :func:`_rot4_apply`), by the angles it turns the
eigen-planes by (:func:`_half_turn`); every d above 4 goes through
:func:`expm_skew`.  Every rotation refuses a step whose 1-norm needs more than
52 squarings (:func:`_squarings`), an expm_skew one more than 3.  Ball schemes
interleave that rotation with an Euler-Maruyama radial substep, whose |x|^2,
like every norm, is one left-to-right sum of squares (:func:`_sq_norms`).
Noise is counter-based: each path owns a Philox stream whose key is the uint64 pair
(seed, path_id) and whose counter starts at 0, handed to Philox by one shared
seed-sequence object rather than built from OS entropy (:func:`_streams`); the
top 53 bits k of each draw give the midpoint (k + 1/2) * 2**-53 of a uniform
grid, mapped to a Gaussian through the inverse normal CDF, so ensembles are
reproducible and embarrassingly parallel.  A block of paths draws its noise in
time chunks of about ``_NOISE_VALUES`` values, each path's stream carrying
over from one chunk to the next, and holds two chunks at most, 8 MiB of
float64 in all, so the memory a block holds does not grow with the number of
steps; a block holds no more paths than fit one step's noise of each (a kept
block: one whole path's) into a chunk.  The streams are those of
:func:`path_normals` whatever the chunk length.  The calling thread draws the
uniforms of chunk k + 1 before it steps chunk k, and a helper thread maps
every chunk to normals (the inverse CDF releases the interpreter lock).  A
block chooses each radial product's rule once and writes the products into
buffers it reuses; each step stores its squared norms in the chunk's rows, and norm
bookkeeping (largest radius, largest deviation from the sphere) roots them
once per chunk.  Seeds and path ids are integers in [0, 2**64).
"""

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .cspace import _symmetric
from .generator import _exponent, _start_point
from .skew import _check_number, _integer, _upper_indices, skew_basis, skew_to_vec

__all__ = [
    "SkewDrive",
    "expm_skew",
    "path_normals",
    "sphere_ensemble",
    "ball_ensemble",
    "mc_moment",
]

_BLOCK = 4096
_CLAMP = 1.0 - 1e-15
# 1 + 2u, the double after 1 (u = 2**-53): |x|^2 > _ABOVE_ONE iff the correctly rounded
# sqrt(|x|^2) > 1, as sqrt(1 + 2u) rounds to 1 and sqrt(1 + 4u) to 1 + 2u.
_ABOVE_ONE = float(np.nextafter(1.0, 2.0))
# How far |x0| may miss the state space: the paths keep unit norm to about 1e-12.
_X0_TOL = 1e-12
# Noise values (float64, 4 MiB) in one chunk; a block holds two chunks at most,
# whatever n_steps is.
_NOISE_VALUES = 1 << 19
# Names the noise streams and step kernels that seeded outputs depend on, and
# moves with their bits.  "1": expm_skew at every d but 3; "2": closed-form
# rotation at d = 4; "3": closed-form rotation at d = 2, LAPACK's solve in
# expm_skew at n = 2 and 3 (drift-only Q), and the step's skew sum at d >= 5
# as one product with the drive's upper entries; "4": every d = 2, 3 and 4
# rotation from the half-angles of _half_turn, squaring rows included (d = 3
# loses its Cayley-Hamilton p, q recurrence, d = 4 its expm_skew rows); "5":
# states held as (d, B), every |x|^2 summed left to right (the radial
# factor's einsum goes), and the d = 2 rotation's one-row product by gemm.
_SCHEME_VERSION = "5"


@dataclass(frozen=True)
class SkewDrive:
    """Drift and diffusion directions (A_0; A_1..A_m), all skew-symmetric."""

    a0: np.ndarray
    diffusion: np.ndarray

    def __post_init__(self):
        a0 = np.asarray(self.a0, dtype=float)
        if a0.ndim != 2 or a0.shape[0] != a0.shape[1]:
            raise ValueError(f"a0 must be a square (d, d) matrix, got shape {a0.shape}")
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
            if dev > 1e-12 * np.abs(A).max():
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
    # waiting for the helper thread to map a chunk to normals), step_s
    # (rotation, radial substep and bookkeeping, not the sink) and clamps.
    stats: dict = field(default_factory=dict)


@dataclass
class MCMoment:
    estimate: float
    stderr: float
    n: int


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
# Past 3 squarings |expm_skew(M) x| misses 1 by over 16 u: the simulator refuses them.
_EXPM_SQUARINGS = 3


def _squarings(norm1, most=52):
    """Squaring count for each 1-norm: 0 up to theta_13, else ceil(log2(norm1 / theta_13)).

    ValueError unless every 1-norm is finite and at most theta_13 * 2**most: s
    squarings multiply the roundoff by 2**s, and past 52 no digit is left.
    """
    top = _PADE[13][1] * 2.0 ** most
    if not np.all(norm1 <= top):
        raise ValueError(f"M must be finite with a 1-norm of at most {top:.3g}, "
                         f"got a 1-norm of {np.max(norm1):.3g}")
    s = np.zeros(len(norm1), dtype=int)
    over = norm1 > _PADE[13][1]
    if np.any(over):
        s[over] = np.ceil(np.log2(norm1[over] / _PADE[13][1])).astype(int)
    return s


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
    R = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        R = R @ R
    return R


def expm_skew(M):
    """Matrix exponential of a stack of matrices by Pade scaling and squaring.

    Accepts shape (..., n, n); degree and scaling are chosen per matrix, so a
    matrix's exponential does not depend on its batch neighbors.  For skew
    inputs the diagonal Pade approximant is exactly orthogonal, so the result
    is orthogonal to roundoff; this is what makes the sphere scheme
    norm-preserving without renormalization.  ValueError unless M holds n x n
    matrices, n >= 1, each finite with a 1-norm of at most theta_13 * 2**52
    (see :func:`_squarings`).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2] or not M.shape[-1]:
        raise ValueError(f"M must be an n x n matrix, n >= 1, or a stack of them, "
                         f"got shape {M.shape}")
    single = M.ndim == 2
    if single:
        M = M[None]
    lead = M.shape[:-2]
    n = M.shape[-1]
    flat = M.reshape(-1, n, n)
    norms = np.abs(flat).sum(axis=-2).max(axis=-1)
    squarings = _squarings(norms)
    scaled = norms / 2.0 ** squarings
    # Degrees 3 and 7 are folded into 5 and 9: one extra matmul is cheaper
    # than fragmenting the batch into several Pade groups.
    degrees = np.full(len(flat), 13, dtype=int)
    for m in (9, 5):
        degrees[scaled <= _PADE[m][1]] = m

    out = np.empty_like(flat)
    # One group per (squarings, degree) pair; degrees are below 16.
    key = squarings * 16 + degrees
    for k in np.unique(key):
        idx = np.nonzero(key == k)[0]
        out[idx] = _pade_exp(flat[idx], int(k) % 16, int(k) // 16)
    out = out.reshape(*lead, n, n)
    return out[0] if single else out


def _half_turn(phi, s):
    """(cos beta, sin beta): r(M / 2^s)^(2^s) turns the eigen-plane i phi of M by 2 beta.

    r, the degree-13 diagonal Pade approximant, has the numerator V(z^2) + z W(z^2),
    so r(i phi) = exp(2i atan2(phi W(-phi^2), V(-phi^2))), and each squaring
    doubles the angle (Gallier and Xu 2002).  Rows with s = 0 take
    (V, phi W) / |(V, phi W)|, without trigonometry, so their bits do not depend
    on numpy's SIMD atan2, cos and sin, which differ between builds and CPUs.
    Every row takes degree 13 where expm_skew may take 5 or 9, so results
    differ from its by about an ulp.  phi may stack several angles per path,
    (k, B) against s's (B,): every op is elementwise, so each angle's bits are
    those of a call of its own.
    """
    phi = np.ldexp(phi, -s)
    x = -phi * phi
    cf = _PADE[13][0]
    v = cf[0] + x * (cf[2] + x * (cf[4] + x * (cf[6] + x * (cf[8] + x * (cf[10] + x * cf[12])))))
    w = cf[1] + x * (cf[3] + x * (cf[5] + x * (cf[7] + x * (cf[9] + x * (cf[11] + x * cf[13])))))
    w *= phi
    r = np.sqrt(v * v + w * w)
    co, si = v / r, w / r
    if s.any():
        s = np.broadcast_to(s, phi.shape)
        turned = s > 0
        beta = np.ldexp(np.arctan2(w[turned], v[turned]), s[turned])
        co[turned], si[turned] = np.cos(beta), np.sin(beta)
    return co, si


def _rot2_apply(w, X):
    """Rotation substep for d = 2 without forming matrices, path by path.

    The skew M with upper entry w has eigenvalues +-i w, so r(M), with
    expm_skew's squaring count, is the plane rotation by twice the angle of
    :func:`_half_turn`, here by the double-angle formulas.
    """
    w = w[0]
    co, si = _half_turn(w, _squarings(np.abs(w)))
    c2, s2 = co * co - si * si, 2.0 * co * si
    x0, x1 = X
    return np.stack((c2 * x0 + s2 * x1, c2 * x1 - s2 * x0))


def _rot3_apply(w, X):
    """Rotation substep for d = 3 without forming matrices, path by path.

    The skew M with upper entries (a, b, c) has eigenvalues 0 and +-i theta,
    theta^2 = a^2 + b^2 + c^2, and M^3 = -theta^2 M; so r(M), with
    expm_skew's squaring count, turns the plane of M by 2 beta
    (:func:`_half_turn`), and Rodrigues' formula gives
    R = I + (2 sin(beta) cos(beta) / theta) M + (2 sin(beta)^2 / theta^2) M^2.
    """
    a, b, c = w
    aa, ab, ac = np.abs(a), np.abs(b), np.abs(c)
    theta = np.sqrt(a * a + b * b + c * c)
    co, si = _half_turn(theta, _squarings(np.maximum(np.maximum(aa + ab, aa + ac), ab + ac)))
    f = np.divide(si, theta, out=np.zeros_like(theta), where=theta > 0)
    p, q = 2.0 * co * f, 2.0 * f * f
    x1c, x2c, x3c = X
    m1 = a * x2c + b * x3c
    m2 = -a * x1c + c * x3c
    m3 = -b * x1c - c * x2c
    mm1 = a * m2 + b * m3
    mm2 = -a * m1 + c * m3
    mm3 = -b * m1 - c * m2
    out = np.empty_like(X)
    out[0] = x1c + p * m1 + q * mm1
    out[1] = x2c + p * m2 + q * mm2
    out[2] = x3c + p * m3 + q * mm3
    return out


def _isoclinic(u, theta, co, si, X, self_dual):
    """co X + si N X / theta, path by path, N the 4 x 4 (anti-)self-dual skew matrix of u.

    N has upper entries (u0, u1, u2, s u2, -s u1, s u0), s = +1 if ``self_dual``
    else -1, so N^2 = -theta^2 I for theta = |u|.
    """
    f = np.divide(si, theta, out=np.zeros_like(theta), where=theta > 0)
    a, b, c = f * u[0], f * u[1], f * u[2]
    pm = np.add if self_dual else np.subtract
    x0, x1, x2, x3 = X
    out = np.empty_like(X)
    out[0] = co * x0 + (a * x1 + b * x2 + c * x3)
    out[1] = pm(co * x1 - a * x0, c * x2 - b * x3)
    out[2] = pm(co * x2 - b * x0, a * x3 - c * x1)
    out[3] = pm(co * x3 - c * x0, b * x1 - a * x2)
    return out


def _rot4_apply(w, X):
    """Rotation substep for d = 4 without forming matrices, path by path.

    Column b of ``w`` holds the upper entries of path b's skew M.  M = M+ + M-
    with commuting self-dual and anti-self-dual parts, (M+-)^2 = -theta+-^2 I, and
    the eigenvalues of M are i phi_1,2 = i(theta+ +- theta-).  r(M), with
    expm_skew's squaring count, turns those planes by 2 beta_1 and 2 beta_2
    (:func:`_half_turn`), so it is the product of the isoclinic rotations
    cos(beta_1 +- beta_2) I + sin(beta_1 +- beta_2) M+- / theta+-, whose
    cosines and sines come from the angle-sum formulas (Gallier and Xu 2002).
    """
    # expm_skew's column sums of |M|, in its order
    a01, a02, a03, a12, a13, a23 = np.abs(w)
    s = _squarings(np.maximum(np.maximum(a01 + a02 + a03, a01 + a12 + a13),
                              np.maximum(a02 + a12 + a23, a03 + a13 + a23)))
    m01, m02, m03, m12, m13, m23 = w
    up = (0.5 * (m01 + m23), 0.5 * (m02 - m13), 0.5 * (m03 + m12))
    um = (0.5 * (m01 - m23), 0.5 * (m02 + m13), 0.5 * (m03 - m12))
    tp = np.sqrt(up[0] * up[0] + up[1] * up[1] + up[2] * up[2])
    tm = np.sqrt(um[0] * um[0] + um[1] * um[1] + um[2] * um[2])
    (c1, c2), (s1, s2) = _half_turn(np.stack((tp + tm, tp - tm)), s)
    Y = _isoclinic(um, tm, c1 * c2 + s1 * s2, s1 * c2 - c1 * s2, X, False)
    return _isoclinic(up, tp, c1 * c2 - s1 * s2, s1 * c2 + c1 * s2, Y, True)


def _rot_expm(w, X):
    """expm_skew(M) X, path by path, for the skew M with upper entries w (d >= 5).

    einsum multiplies a contiguous (B, d) copy of X, so it keeps its order.
    ValueError if a path's M needs more than ``_EXPM_SQUARINGS`` squarings.
    """
    d = len(X)
    rows, cols = _upper_indices(d)
    M = np.zeros((X.shape[1], d, d))
    M[:, rows, cols] = w.T
    M[:, cols, rows] = -w.T
    _squarings(np.abs(M).sum(axis=1).max(axis=1), _EXPM_SQUARINGS)
    return np.einsum("bij,bj->bi", expm_skew(M), X.T.copy()).T.copy()


def _check_key(value, name):
    if not _integer(value) or not 0 <= int(value) < 1 << 64:
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {value!r}")
    return int(value)


class _PathKey:
    """The Philox key (seed, path_id) handed over as a numpy ``ISeedSequence``.

    ``Philox(path_key)`` copies ``generate_state(2, uint64)``, the ``words``
    array, into its key, so it equals ``Philox(key=words)`` at counter 0
    without the ``SeedSequence`` of OS entropy that ``Philox(key=...)``
    builds and discards.  One object serves every path: set ``words[1]`` to
    the path id before each construction.  :func:`_streams` registers the
    class as an ``ISeedSequence``, so that numpy.random loads with the first
    simulation, not with the package.
    """

    __slots__ = ("words",)

    def __init__(self, seed):
        self.words = np.array([seed, 0], dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a path key is 2 uint64 words, not {n_words!r} of {dtype!r}")
        return self.words


def _streams(seed, path_ids):
    """One Philox generator per path, keyed by the uint64 pair (seed, path_id)."""
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_PathKey)
    key = _PathKey(_check_key(seed, "seed"))
    if isinstance(path_ids, range):
        # A range holds only integers, none outside its two ends.
        for p in (path_ids[0], path_ids[-1]) if path_ids else ():
            _check_key(p, "path_id")
    else:
        path_ids = [_check_key(p, "path_id") for p in path_ids]
    streams = []
    for p in path_ids:
        key.words[1] = p
        streams.append(np.random.Generator(np.random.Philox(key)))
    return streams


def _uniforms_into(streams, out):
    """Fill out[row] with the next ``Generator.random`` draws of streams[row], in place."""
    for row, gen in enumerate(streams):
        gen.random(out=out[row])


def _normals_from_uniforms(out, ndtri, scale=1.0):
    """Map the uniforms in ``out`` to standard normals times ``scale``, in place.

    ``random`` turns the top 53 bits k of each raw draw into k * 2**-53; adding
    2**-54 gives the grid midpoint (k + 1/2) * 2**-53 exactly as rounded, since
    rounding commutes with scaling by a power of two.  The inverse normal CDF,
    ``ndtri`` (``scipy.special.ndtri``, which the caller imports), maps the
    midpoint to a standard normal.  ``out`` is the only buffer.
    """
    out += 2.0 ** -54
    ndtri(out, out=out)
    if scale != 1.0:
        out *= scale


def path_normals(seed, path_id, n_steps, n_cols):
    """Standard normals for one path: Philox keyed by (seed, path), inverse-CDF mapped.

    Row i holds the normals of step i; ensembles draw exactly these, chunk by chunk.
    ValueError unless n_steps and n_cols are nonnegative integers.
    """
    _check_number(n_steps, "n_steps", integer=True, zero=True)
    _check_number(n_cols, "n_cols", integer=True, zero=True)
    from scipy.special import ndtri

    out = np.empty((1, n_steps, n_cols))
    _uniforms_into(_streams(seed, [path_id]), out)
    _normals_from_uniforms(out, ndtri)
    return out[0]


def _grid(T, h, n_paths, name="n_paths"):
    if not (0 < T < np.inf and 0 < h < np.inf and T / h < np.inf):
        raise ValueError(f"need finite T > 0 and h > 0, got T = {T}, h = {h}")
    _check_number(n_paths, name, integer=True)
    n_steps = max(1, int(round(T / h)))
    return n_steps, T / n_steps


def _alpha_psd(w):
    """Whether alpha, with ascending eigenvalues w, is PSD: w_min >= -1e-10 w_max."""
    return bool(w[0] >= -1e-10 * w[-1])


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


def _sq_norms(X, out=None):
    """|x|^2 of each path x, a column of X: the squares of its d rows summed left to right.

    The order is the same at every d and on every build, where ``add.reduce``
    and ``einsum`` pick theirs by d and by the CPU.  The sums go into ``out``
    if it is given.
    """
    sq = X * X
    # x^2 + 0.0 is x^2: a square is never -0.
    out = np.add(sq[0], sq[1] if len(sq) > 1 else 0.0, out=out)
    for row in sq[2:]:
        out += row
    return out


def _product(M, B):
    """``f(X)``: M @ X for X of B paths (columns), in one buffer that every call reuses.

    Each entry is rounded as in a product of at least two rows and two paths.
    numpy multiplies a single row or a single column by BLAS gemv, which
    rounds otherwise than gemm, so a lone row of M (the d = 2 rotation's one
    upper entry) or a lone path of X goes in twice.  A one-column M has no
    sum: each entry is gemm's 0 + M[i, 0] X[0, j], here from one outer
    product, the 0 added so that a -0 product reads +0 as gemm's does.  The
    rule depends only on M's shape and B, so it is chosen here, once.
    """
    rows = len(M)
    if M.shape[1] == 1:
        col, out = M[:, 0], np.empty((rows, B))

        def outer(X):
            return np.add(np.multiply.outer(col, X[0], out=out), 0.0, out=out)
        return outer
    if rows > 1 and B > 1:
        out = np.empty((rows, B))
        return lambda X: np.matmul(M, X, out=out)
    M = np.tile(M, (1 + (rows == 1), 1))
    out = np.empty((len(M), B + (B == 1)))
    if B == 1:
        return lambda X: np.matmul(M, np.tile(X, 2), out=out)[:rows, :1]
    return lambda X: np.matmul(M, X, out=out)[:rows]


def _times_paths(M, X):
    """M @ X by the rule of :func:`_product`, in a new array."""
    return _product(M, X.shape[1])(X)


def _rotation(drive, h):
    """The rotation substep as ``f(dW, X)``, dW one step's (m, B) scaled noise; None if none.

    X holds a path per column, (d, B).  A drift-only drive multiplies by one
    precomputed expm(h A_0).  Otherwise the upper entries w of
    h A_0 + sum_p dW_p A_p, a column per path, come from one product
    Avec @ dW (h vec(A_0) added only if A_0 is not zero), and the rotation
    by them is applied in closed form at d = 2, 3 and 4, every path with the
    degree-13 approximant and expm_skew's squaring count, and by
    :func:`_rot_expm` at d >= 5.  Each refuses a path whose 1-norm
    :func:`_squarings` refuses, expm_skew past ``_EXPM_SQUARINGS``.
    """
    d, m = drive.d, drive.n_diffusion
    if m == 0:
        if not np.abs(drive.a0).max() > 0:
            return None
        _squarings(np.abs(drive.a0 * h).sum(axis=0).max(keepdims=True), _EXPM_SQUARINGS)
        Q = expm_skew(drive.a0 * h)
        return lambda dW, X: _times_paths(Q, X)
    Avec = np.array([skew_to_vec(A) for A in drive.diffusion]).T
    h_a0vec = h * skew_to_vec(drive.a0)[:, None]
    apply = {2: _rot2_apply, 3: _rot3_apply, 4: _rot4_apply}.get(d, _rot_expm)
    if not h_a0vec.any():
        return lambda dW, X: apply(_times_paths(Avec, dW), X)
    return lambda dW, X: apply(_times_paths(Avec, dW) + h_a0vec, X)


def _new_stats():
    return {"scheme_version": _SCHEME_VERSION, "chunks": 0, "chunk_steps": 0,
            "noise_bytes": 0, "noise_wait_s": 0.0, "step_s": 0.0, "clamps": 0}


def _noise_chunks(streams, n_steps, chunk, n_cols, sqh, stats):
    """Yield each chunk's (B, steps, n_cols) noise, normals times sqh, in step order.

    The uniforms of chunk k + 1 are drawn on the calling thread before chunk
    k is handed out, and a helper thread maps every chunk to normals, chunk 0
    included, while the caller steps the one before; two buffers take turns,
    or one if there is one chunk.  Close the generator to stop the helper.
    """
    # Imported here, on the calling thread and before the helper starts, so
    # that only a simulation loads scipy.special and concurrent.futures.
    from concurrent.futures import ThreadPoolExecutor
    from scipy.special import ndtri

    los = range(0, n_steps, chunk)
    bufs = [np.empty((len(streams), chunk, n_cols)) for _ in range(min(2, len(los)))]
    stats["noise_bytes"] = max(stats["noise_bytes"], sum(b.nbytes for b in bufs))

    def buffer(k):
        return bufs[k % len(bufs)][:, :min(chunk, n_steps - los[k])]

    def mapped(k):
        _uniforms_into(streams, buffer(k))
        return helper.submit(_normals_from_uniforms, buffer(k), ndtri, sqh)

    helper = ThreadPoolExecutor(1, thread_name_prefix="quadricdiff-noise")
    try:
        ready = mapped(0)
        for k in range(len(los)):
            following = mapped(k + 1) if k + 1 < len(los) else None
            t0 = perf_counter()
            ready.result()
            stats["noise_wait_s"] += perf_counter() - t0
            yield buffer(k)
            ready = following
    finally:
        helper.shutdown(wait=True, cancel_futures=True)


def _radii(r2):
    """Each path's largest radius, and the largest |radius - 1|, of (k, B) squared norms.

    sqrt(max |x|^2) and max(sqrt(max |x|^2) - 1, 1 - sqrt(min |x|^2)) take two
    roots in place of k B: a correctly rounded sqrt, x - 1 and 1 - x are
    monotone, so the results are those of rooting every entry.
    """
    top = np.sqrt(r2.max(axis=0))
    return top, max(top.max() - 1.0, 1.0 - np.sqrt(r2.min()))


def _run_block(drive, x0s, n_steps, h, streams, bhat, Bhat, sqrt_alpha, sink, stats=None):
    """Advance a block of paths; the radial substep runs iff bhat is not None.

    ``streams`` holds one noise stream per path (see :func:`_streams`).  The
    states X are (d, B), a path per column; steps read the path-major noise
    chunks, already scaled by sqrt(h) (see :func:`_noise_chunks`), through
    transposed views, and |X|^2 is not recomputed where X did not move.  The
    radial substep's two products choose their rule once per block and write
    into a buffer each (:func:`_product`).  Every step stores its |X|^2 in a row of the
    chunk's norms, rooted once per chunk (:func:`_radii`); the clamp compares
    |x|^2 with the double after 1, which is the test sqrt(|x|^2) > 1
    (``_ABOVE_ONE``), so only clamped paths are rooted.  ``sink(i, states)``,
    if given, receives each chunk's states from grid point i on, a new
    (B, k, d) array with x0 leading the first.  Counts and times are added
    to ``stats`` (see :class:`EnsembleResult`).
    """
    stats = _new_stats() if stats is None else stats
    d = drive.d
    m = drive.n_diffusion
    radial = bhat is not None
    n_cols = m + (d if radial else 0)
    B = len(streams)
    if radial:
        # One (d, B) copy: adding it costs half of broadcasting a column.
        bhat = np.repeat(bhat[:, None], B, axis=1)
        drift, kick, fac = _product(Bhat, B), _product(sqrt_alpha, B), np.empty(B)
    chunk = min(n_steps, max(1, _NOISE_VALUES // (B * max(1, n_cols))))
    norms = np.empty((chunk, B))

    X = np.array(np.asarray(x0s, dtype=float).T, order="C")
    rotate = _rotation(drive, h)
    r2 = _sq_norms(X)
    max_radius, max_norm_dev = _radii(r2[None])
    max_norm_dev = 0.0 if radial else max_norm_dev
    clamps = 0

    chunks = _noise_chunks(streams, n_steps, chunk, n_cols, np.sqrt(h), stats)
    try:
        for lo, noise in zip(range(0, n_steps, chunk), chunks):
            steps = noise.shape[1]
            if sink is not None:
                lead = int(lo == 0)
                piece = np.empty((B, lead + steps, d))
                piece[:, :lead] = X.T[:, None]
            t0 = perf_counter()
            for j in range(steps):
                if rotate is not None:
                    X = rotate(noise[:, j, :m].T, X)
                    r2 = _sq_norms(X, norms[j])
                if radial:
                    np.sqrt(np.maximum(np.subtract(1.0, r2, out=fac), 0.0, out=fac), out=fac)
                    tmp = drift(X)
                    tmp += bhat
                    tmp *= h
                    X += tmp
                    tmp = kick(noise[:, j, m:].T)
                    tmp *= fac
                    X += tmp
                    r2 = _sq_norms(X, norms[j])
                    if r2.max() > _ABOVE_ONE:
                        over = r2 > _ABOVE_ONE
                        clamps += int(over.sum())
                        X[:, over] *= _CLAMP / np.sqrt(r2[over])
                        r2[over] = _sq_norms(X[:, over])
                elif rotate is None:
                    norms[j] = r2    # a sphere path that does not move
                if sink is not None:
                    piece[:, lead + j] = X.T
            top, dev = _radii(norms[:steps])
            np.maximum(max_radius, top, out=max_radius)
            if not radial:
                max_norm_dev = max(max_norm_dev, dev)
            stats["step_s"] += perf_counter() - t0
            stats["chunks"] += 1
            stats["chunk_steps"] = max(stats["chunk_steps"], steps)
            if sink is not None:
                sink(lo + 1 - lead, piece)
    finally:
        chunks.close()
    stats["clamps"] += clamps
    return X.T, max_radius, max_norm_dev, clamps


def _drift_contracts(Bhat, h):
    """ValueError unless h rho(Bhat) < 2, rho the largest |eigenvalue| of Bhat.

    The radial drift step multiplies x by I + h Bhat, whose eigenvalues
    1 + h lam lie in (-1, 1] only then: past it the step overshoots and
    inflates its modes, the clamp holds most states at the sphere, and
    |x|^2 may overflow.
    """
    # Python floats: a product past the float range is inf, without a warning
    step = float(h) * float(np.abs(np.linalg.eigvalsh(Bhat)).max(initial=0.0))
    if not step < 2.0:
        raise ValueError(f"the drift step does not contract: h * rho(Bhat) = {step:.3g} "
                         f"for h = {h:.3g}; it must be below 2")


def _ensemble(scheme, drive, x0, T, h, seed, n_paths, bhat=None, Bhat=None,
              sqrt_alpha=None, sink=None):
    n_steps, h_eff = _grid(T, h, n_paths)
    if Bhat is not None:
        _drift_contracts(Bhat, h_eff)
    times = np.linspace(0.0, T, n_steps + 1)
    # One step's noise of every path of a block fits in a chunk; a kept block's
    # whole paths do, so its pieces are path-major.
    cols = max(1, drive.n_diffusion + (drive.d if bhat is not None else 0))
    block = min(_BLOCK, max(1, _NOISE_VALUES // (cols * (1 if sink is None else n_steps))))
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
    bhat, Bhat = np.asarray(bhat, dtype=float), np.asarray(Bhat, dtype=float)
    if bhat.size != d:
        raise ValueError(f"bhat must hold {d} numbers, got shape {bhat.shape}")
    if Bhat.shape != (d, d):
        raise ValueError(f"Bhat must be a {d} x {d} matrix, got shape {Bhat.shape}")
    bhat = bhat.reshape(d)
    if not (np.all(np.isfinite(bhat)) and np.all(np.isfinite(Bhat))):
        raise ValueError("bhat and Bhat must be finite")
    Bsym = _symmetric(Bhat, "Bhat must be symmetric; put the skew part into the drive")
    top = float(np.linalg.eigvalsh(Bsym)[-1])
    if top > 1e-12 * np.abs(Bsym).max():
        raise ValueError(f"Bhat must be negative semidefinite (max eig {top:.2e})")
    return bhat, Bsym, _psd_sqrt(alpha, d), _start_point(x0, d, "ball", _X0_TOL)


def ball_ensemble(bhat, Bhat, alpha, drive, x0, T, h, seed, n_paths, sink=None):
    """Ball paths: rotation substep by ``drive``, then an Euler-Maruyama radial substep.

    The radial substep adds ``(bhat + Bhat x) h`` and
    ``sqrt(max(0, 1 - |x|^2)) alpha^(1/2) dW``; ``Bhat`` is symmetric negative
    semidefinite and the skew part of the drift is the drive's A_0
    (``model.ensemble`` maps a model to these arguments).
    States that overshoot the sphere are pulled back just inside it, and
    ``clamp_fraction`` reports how often.  Requires finite coefficients, alpha
    positive semidefinite, a step h with h |lam| < 2 for every eigenvalue lam
    of Bhat (:func:`_drift_contracts`), and d finite numbers x0 with
    |x0| <= 1 + 1e-12.
    ``sink`` is that of :func:`sphere_ensemble`.
    """
    bhat, Bhat, sqa, x0 = _ball_args(bhat, Bhat, alpha, drive, x0)
    return _ensemble("ball", drive, x0, T, h, seed, n_paths, bhat=bhat, Bhat=Bhat,
                     sqrt_alpha=sqa, sink=sink)


def _eval_poly(q, states):
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
    vals = _eval_poly(q, states)
    n = len(vals)
    if n == 0:
        raise ValueError("states must hold at least one row")
    est = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return MCMoment(est, stderr, n)

"""Independent reference computations for the benchmark's correctness checks.

Everything here is plain numpy/scipy written from the definitions, and it
imports nothing from quadricdiff: kernel matrices come from the Plucker
relations, rotations act through Lambda^2(Q), moments come from closed forms
or small moment systems.  A check that compared against the program's own
helpers would pass whatever the program did.
"""

from itertools import combinations
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm

# Witness tolerances, as the solver documents them (tol = 1e-9).
TOL = 1e-9
# Kernel-shift coefficients are uniform in (-AMP, AMP).
AMP = 2.0
# Random (x, y) at which a Feasible verdict's factors are checked.
N_POINTS = 8
# Monte Carlo estimates must lie within N_SE standard errors.
N_SE = 4.0


def pairs(d):
    """Index pairs (i, j), i < j, 0-based, in the lexicographic vec order."""
    return list(combinations(range(d), 2))


def skew_vec(A):
    """Strict upper triangle of a d x d matrix, lexicographic order."""
    return np.asarray(A)[np.triu_indices(A.shape[0], 1)]


def vec_skew(v, d):
    A = np.zeros((d, d))
    A[np.triu_indices(d, 1)] = v
    return A - A.T


def wedge(x, y):
    """vec(x y^T - y x^T): a decomposable point of Lambda^2(R^d)."""
    return skew_vec(np.outer(x, y) - np.outer(y, x))


class Kernel(NamedTuple):
    """The Plucker matrices K_(ijkl) of one d, one per increasing 4-tuple.

    a^T K a = 2 (a_ij a_kl - a_ik a_jl + a_il a_jk), which vanishes on every
    decomposable a.  K_q has the entry SIGNS[t] at (rows[q, t], cols[q, t])
    and at its transpose, t = 0, 1, 2; the supports are disjoint, so the K are
    orthogonal with squared norm 6.  Kept sparse: a dense stack at d = 12
    would add 17 MB to the measuring process's peak RSS.
    """
    rows: np.ndarray     # (C(d,4), 3) vec index of the first pair
    cols: np.ndarray     # (C(d,4), 3) vec index of the second pair
    m: int


SIGNS = np.array([1.0, -1.0, 1.0])


def kernel(d):
    """The Kernel of dimension d; the three matchings of (i, j, k, l) in SIGNS order."""
    index = {p: n for n, p in enumerate(pairs(d))}
    matchings = [(index[(i, j)], index[(k, l)], index[(i, k)], index[(j, l)],
                  index[(i, l)], index[(j, k)])
                 for i, j, k, l in combinations(range(d), 4)]
    idx = np.array(matchings, dtype=np.intp).reshape(-1, 3, 2)
    return Kernel(idx[:, :, 0], idx[:, :, 1], len(index))


def kernel_inner(X, ker):
    """<K_q, X> for every q."""
    return (X[ker.rows, ker.cols] + X[ker.cols, ker.rows]) @ SIGNS


def kernel_combo(coef, ker):
    """sum_q coef_q K_q as a dense m x m matrix."""
    out = np.zeros((ker.m, ker.m))
    vals = np.outer(coef, SIGNS)
    out[ker.rows, ker.cols] = vals
    out[ker.cols, ker.rows] = vals
    return out


def kernel_part(X, ker):
    """Orthogonal projection of X onto span(K)."""
    return kernel_combo(kernel_inner(X, ker) / 6.0, ker)


def kernel_residual(X, ker):
    """Frobenius distance from X to span(K)."""
    return float(np.linalg.norm(X - kernel_part(X, ker)))


def random_rotation(rng, d):
    """Haar-distributed orthogonal matrix with determinant +1."""
    Q, R = np.linalg.qr(rng.standard_normal((d, d)))
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def lambda2(Q):
    """Matrix of A -> Q A Q^T on vec coordinates: entries Q_ik Q_jl - Q_il Q_jk."""
    P = pairs(Q.shape[0])
    I = np.array([p[0] for p in P])
    J = np.array([p[1] for p in P])
    return Q[np.ix_(I, I)] * Q[np.ix_(J, J)] - Q[np.ix_(I, J)] * Q[np.ix_(J, I)]


def rotate(H, L):
    return L @ H @ L.T


def kernel_shift(rng, ker):
    """A random element of span(K), coefficients uniform in (-AMP, AMP)."""
    return kernel_combo(rng.uniform(-AMP, AMP, len(ker.rows)), ker)


def counterexample_d6():
    """The d = 6 matrix with a nonnegative, non-SOS form, and its certificate.

    H = 2 I - sum v v^T - (K_1234 + K_2345)/2, and the certificate is built
    from the eigenvalues (1 - sqrt 3)/2 and the negative root mu of
    4 s^3 - 16 s^2 + 14 s + 1.
    """
    d = 6
    index = {p: n for n, p in enumerate(pairs(d))}
    H = 2.0 * np.eye(15)
    for terms in ((((0, 1), 1.0), ((1, 5), 1.0)),
                  (((3, 4), 1.0), ((3, 5), -1.0)),
                  (((0, 2), 1.0), ((1, 3), 1.0), ((2, 4), 1.0))):
        v = np.zeros(15)
        for p, c in terms:
            v[index[p]] = c
        H -= np.outer(v, v)
    quads = list(combinations(range(d), 4))
    coef = np.zeros(len(quads))
    coef[[quads.index((0, 1, 2, 3)), quads.index((1, 2, 3, 4))]] = 0.5
    H -= kernel_combo(coef, kernel(d))

    lam = (1.0 - np.sqrt(3.0)) / 2.0
    roots = np.roots([4.0, -16.0, 14.0, 1.0])
    mu = float(np.real(roots[np.argmin(np.real(roots))]))
    e = np.eye(15)
    v1 = 0.5 * e[1] - lam * e[6] + 0.5 * e[10]
    v2 = (mu / 2) * e[2] + mu * (2 - mu) * e[5] + 0.5 * (mu - 1) * e[12] + 0.5 * e[13]
    v3 = 0.5 * (1 - mu) * e[0] - (mu / 2) * e[7] + 0.5 * e[8] + mu * (mu - 2) * e[9]
    delta = mu * (mu - 2) * (2 * mu - 1) / lam
    B = delta * np.outer(v1, v1) + np.outer(v2, v2) + np.outer(v3, v3)
    return H, B / np.trace(B)


def charpoly_d6():
    """Coefficients of 2^-5 (s-2)^7 (2s^2-2s-1)(4s^3-16s^2+14s+1)^2, leading first."""
    poly = np.poly1d([1.0, -2.0]) ** 7 * np.poly1d([2.0, -2.0, -1.0]) \
        * np.poly1d([4.0, -16.0, 14.0, 1.0]) ** 2
    return poly.coeffs / 32.0


def pad(H, d_from, d_to, fill=0.0):
    """Embed an m x m matrix for d_from into d_to; new pairs get `fill` on the diagonal."""
    small = {p: n for n, p in enumerate(pairs(d_from))}
    big = pairs(d_to)
    out = np.diag([0.0 if p in small else fill for p in big])
    idx = [n for n, p in enumerate(big) if p in small]
    out[np.ix_(idx, idx)] = H
    return out


# -- verdict checks ---------------------------------------------------------

def feasible_ok(H, h_star, factors, ker, rng):
    """Feasible witness: h_star PSD, h_star - H in span(K), and the factors
    reproduce the biquadratic form: sum_p (y^T A_p x)^2 = a^T H a."""
    scale = max(1.0, float(np.linalg.norm(H)))
    if np.linalg.eigvalsh(h_star)[0] < -TOL:
        return False
    if kernel_residual(h_star - H, ker) > TOL * scale:
        return False
    d = factors[0].shape[0] if factors else 0
    for _ in range(N_POINTS):
        x, y = rng.standard_normal(d), rng.standard_normal(d)
        a = wedge(x, y)
        lhs = sum(float(y @ A @ x) ** 2 for A in factors)
        rhs = float(a @ H @ a)
        if abs(lhs - rhs) > 1e-8 * scale * float(a @ a):
            return False
    return True


def infeasible_ok(H, B, ker):
    """Infeasibility certificate: B PSD with unit trace, <K, B> = 0, <H, B> < 0."""
    if np.linalg.eigvalsh(B)[0] < -TOL or abs(np.trace(B) - 1.0) > TOL:
        return False
    if np.abs(kernel_inner(B, ker)).max(initial=0.0) > TOL:
        return False
    return float(np.sum(H * B)) < -TOL


# -- closed-form moments ----------------------------------------------------

def sphere_bm_mean(x0, T):
    """E[X_T] for Brownian motion on S^{d-1}: exp(-(d-1) T / 2) x0."""
    d = len(x0)
    return np.exp(-(d - 1) * T / 2.0) * np.asarray(x0)


def sphere_bm_second(x0, T):
    """E[X_T X_T^T] = I/d + exp(-d T) (x0 x0^T - I/d)."""
    d = len(x0)
    return np.eye(d) / d + np.exp(-d * T) * (np.outer(x0, x0) - np.eye(d) / d)


def affine_mean(b, B, x0, T):
    """exp(T B) x0 + int_0^T exp(s B) b ds, from one augmented exponential."""
    d = len(x0)
    M = np.zeros((d + 1, d + 1))
    M[:d, :d] = B
    M[:d, d] = b
    E = expm(T * M)
    return E[:d, :d] @ x0 + E[:d, d]


def jacobi_moments(b, B, sig2, x0, T):
    """(E X_T, E X_T^2) of dX = (b + B X) dt + sqrt(sig2 (1 - X^2)) dW.

    On (1, m1, m2): m1' = b + B m1, m2' = sig2 + 2 b m1 + (2 B - sig2) m2.
    """
    M = np.array([[0.0, 0.0, 0.0],
                  [b, B, 0.0],
                  [sig2, 2.0 * b, 2.0 * B - sig2]])
    m = expm(T * M) @ np.array([1.0, x0, x0 * x0])
    return m[1], m[2]


def within(estimate, stderr, exact):
    """Monte Carlo estimate within N_SE standard errors of the exact value."""
    estimate, stderr, exact = (np.asarray(v, dtype=float) for v in (estimate, stderr, exact))
    return bool(np.all(np.abs(estimate - exact) <= N_SE * stderr + 1e-12))

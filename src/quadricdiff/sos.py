"""Sum-of-squares feasibility for tangential coefficient maps.

Decides whether some kernel shift of H is positive semidefinite, which by the
biquadratic correspondence is equivalent to y^T c_H(x) y being a sum of
squares of bilinear forms.  The solver is first-order and dependency-free.
On the feasible side it runs Dykstra alternating projections between the
affine set H + span(kernel) and the PSD cone, then supergradient ascent of
the concave slice function t -> min eig(H + sum_q t_q K_q).  On the
infeasible side it runs Dykstra between the unit-trace PSD matrices and the
kernel-orthogonal subspace, started from the normalized projector onto the
bottom eigenspace at the best slice point.  The kernel basis acts through
index gathers.  Witnesses are re-verified independently before being
reported; an exhausted budget yields an Undecided verdict with residual
diagnostics, never a silent guess.
"""

from dataclasses import dataclass, field

import numpy as np

from .cspace import _PluckerKernel, biquadratic_eval, c_H_eval, cmap_from_h, cmap_from_pair
from .skew import skew_dim, vec_to_skew

__all__ = [
    "SosVerdict",
    "NonnegReport",
    "sos_check",
    "sos_decompose",
    "verify_certificate",
    "counterexample_d6",
    "nonneg_check",
    "reconstruct_cmap",
]

FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"
UNDECIDED = "Undecided"


@dataclass
class SosVerdict:
    """Outcome of a sum-of-squares feasibility check.

    On Feasible, ``h_star`` is a PSD point of H + span(kernel) and ``factors``
    are skew matrices with c_H(x) = sum_p A_p x x^T A_p^T.  On Infeasible,
    ``certificate`` is a PSD, unit-trace, kernel-orthogonal matrix B with
    <H, B> < 0.  ``residuals`` carries solver diagnostics in every case.
    """

    status: str
    d: int
    h_star: np.ndarray = None
    factors: list = None
    certificate: np.ndarray = None
    iterations: int = 0
    residuals: dict = field(default_factory=dict)

    def to_json(self):
        out = {
            "status": self.status,
            "iterations": int(self.iterations),
            "margins": {k: float(v) for k, v in self.residuals.items()},
        }
        witness = {}
        if self.h_star is not None:
            witness["h_star"] = np.asarray(self.h_star).tolist()
        if self.factors is not None:
            witness["factors"] = [np.asarray(A).tolist() for A in self.factors]
        if self.certificate is not None:
            witness["certificate"] = np.asarray(self.certificate).tolist()
        out["witness"] = witness
        return out


@dataclass
class NonnegReport:
    """One-sided multistart screen of the biquadratic form over the unit spheres."""

    negative: bool
    min_value: float
    x: np.ndarray
    y: np.ndarray

    @property
    def status(self):
        return "NegativeWitness" if self.negative else "NonnegativeUpTo"


def _d_from_m(m):
    d = int(round((1 + np.sqrt(1 + 8 * m)) / 2))
    if skew_dim(d) != m:
        raise ValueError(f"{m} is not C(d, 2) for any integer d")
    return d


def _proj_psd(X):
    w, V = np.linalg.eigh(X)
    return (V * np.clip(w, 0.0, None)) @ V.T


def _proj_simplex(v):
    """Euclidean projection of a vector onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, len(v) + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.clip(v - theta, 0.0, None)


def _proj_spectraplex(X):
    w, V = np.linalg.eigh(X)
    return (V * _proj_simplex(w)) @ V.T


def _eig_min(X):
    return float(np.linalg.eigvalsh(X)[0]) if X.size else 0.0


def _verify_feasible(H, h_star, kernel, tol):
    scale = max(1.0, np.linalg.norm(H))
    shift = h_star - H
    member = np.linalg.norm(shift - kernel.project(shift))
    return {
        "eig_min": _eig_min(h_star),
        "membership_residual": float(member),
    }, _eig_min(h_star) >= -tol and member <= tol * scale


def verify_certificate(H, B, tol=1e-9):
    """Independently check an infeasibility certificate.

    True iff B is PSD up to tol, orthogonal to every kernel basis matrix up
    to tol, and <H, B> < -tol.  The report carries all three margins.
    """
    H = np.asarray(H, dtype=float)
    B = np.asarray(B, dtype=float)
    kernel = _PluckerKernel(_d_from_m(H.shape[0]))
    korth = float(np.abs(kernel.inner(B)).max(initial=0.0))
    report = {
        "eig_min": _eig_min(B),
        "k_orth_max": korth,
        "inner": float(np.sum(H * B)),
    }
    ok = report["eig_min"] >= -tol and korth <= tol and report["inner"] < -tol
    return ok, report


def _slice_ascent(H, kernel, t0, accept_tol, budget, used):
    """Maximize min eig(H + sum_q t_q K_q) by adaptive Polyak supergradient steps.

    The function is concave in t; a supergradient at t is the vector of
    quadratic forms of the bottom eigenvector against the kernel basis.
    Stops as soon as the value clears -accept_tol/2, i.e. once a slice point
    is safely inside the cone, or when the step control collapses.
    """
    target = -0.5 * accept_tol
    t = np.asarray(t0, dtype=float).copy()

    def eig_bottom(tv):
        lam, V = np.linalg.eigh(H + kernel.combine(tv))
        return lam[0], V[:, 0]

    f, v = eig_bottom(t)
    t_best, f_best = t.copy(), f
    eps = max(0.05 * max(1.0, np.linalg.norm(H)), 10.0 * accept_tol)
    misses = 0
    it = 0
    while it < budget and f_best < target and eps > 1e-14:
        it += 1
        g = kernel.quadratic(v)
        gg = float(g @ g)
        if gg < 1e-18:
            break
        step = (f_best + eps - f) / gg
        t = t + step * g
        f, v = eig_bottom(t)
        if f > f_best:
            t_best, f_best = t.copy(), f
            misses = 0
        else:
            misses += 1
            if misses >= 15:
                eps *= 0.5
                misses = 0
                t, f = t_best.copy(), f_best
                _, v = eig_bottom(t)
    return t_best, f_best, used + it


def sos_check(H, tol=1e-9, max_iter=50000):
    """Decide whether H + (kernel shift) meets the PSD cone.

    Parameters
    ----------
    H : (m, m) array, symmetric, m = C(d, 2)
    tol : acceptance tolerance for witness residuals
    max_iter : total projection-iteration budget across all solver phases

    Returns
    -------
    SosVerdict
        Status Feasible with a re-verified PSD witness and skew factors,
        Infeasible with a re-verified certificate, or Undecided with
        diagnostics when the budget runs out with neither witness in hand.
    """
    H = np.asarray(H, dtype=float)
    m = H.shape[0]
    d = _d_from_m(m)
    if m == 0:
        return SosVerdict(FEASIBLE, d, h_star=H.copy(), factors=[], residuals={"eig_min": 0.0})
    H = 0.5 * (H + H.T)
    scale = max(1.0, float(np.linalg.norm(H)))
    margin = 1e-6 * scale
    accept_tol = min(tol, 1e-10 * scale)
    kernel = _PluckerKernel(d)
    used = 0

    def feasible_verdict(h_star, used):
        report, ok = _verify_feasible(H, h_star, kernel, tol)
        if not ok:
            return None
        factors = sos_decompose(h_star, tol)
        return SosVerdict(FEASIBLE, d, h_star=h_star, factors=factors,
                          iterations=used, residuals=report)

    def infeasible_verdict(B, used):
        ok, report = verify_certificate(H, B, tol)
        if not (ok and report["inner"] <= -margin):
            return None
        return SosVerdict(INFEASIBLE, d, certificate=B, iterations=used, residuals=report)

    # No kernel: the affine set is the single point H.
    if len(kernel) == 0:
        lam, V = np.linalg.eigh(H)
        used = 1
        if lam[0] >= -tol:
            h_star = H if lam[0] >= 0 else (V * np.clip(lam, 0.0, None)) @ V.T
            verdict = feasible_verdict(h_star, used)
            if verdict is not None:
                return verdict
        else:
            v = V[:, 0]
            verdict = infeasible_verdict(np.outer(v, v), used)
            if verdict is not None:
                return verdict
        return SosVerdict(UNDECIDED, d, iterations=used,
                          residuals={"eig_min": float(lam[0]), "margin": margin})

    # Cheap certificates before iterating.
    if np.trace(H) / m <= -margin:
        verdict = infeasible_verdict(np.eye(m) / m, 1)
        if verdict is not None:
            return verdict
    lam0 = _eig_min(H)
    if lam0 >= -accept_tol:
        verdict = feasible_verdict(_proj_psd(H) if lam0 < 0 else H.copy(), 1)
        if verdict is not None:
            return verdict

    # Primal phase one: Dykstra between the PSD cone and H + span(kernel).
    # Converges quickly when the projection of H onto the intersection is
    # well separated from the cone boundary; stagnates otherwise.
    primal_budget = min(300, max_iter // 4)
    x = H.copy()
    p = np.zeros_like(H)
    q = np.zeros_like(H)
    gap_hist = []
    stagnated = False
    while used < primal_budget:
        used += 1
        y = _proj_psd(x + p)
        p = x + p - y
        x = H + kernel.project((y + q) - H)
        q = (y + q) - x
        gap = float(np.linalg.norm(y - x))
        gap_hist.append(gap)
        if used % 10 == 0 or gap <= accept_tol * scale:
            if _eig_min(x) >= -accept_tol:
                verdict = feasible_verdict(x.copy(), used)
                if verdict is not None:
                    return verdict
            if len(gap_hist) > 200 and gap > 1e3 * accept_tol * scale:
                old = gap_hist[-200]
                if old > 0 and (old - gap) / old < 1e-2:
                    stagnated = True
                    break

    # Primal phase two: supergradient ascent of the concave slice function
    # t -> min eig(H + sum_q t_q K_q).  Any t with nonnegative value is an
    # exact-membership witness; the Dykstra iterate supplies the warm start.
    t_best, f_best, used = _slice_ascent(
        H, kernel, kernel.inner(x - H) / 6.0, accept_tol, min(max_iter - used, 4000), used)
    h_slice = H + kernel.combine(t_best)
    if f_best >= -accept_tol:
        verdict = feasible_verdict(h_slice, used)
        if verdict is not None:
            return verdict

    # Dual phase.  At a maximizer of the slice function zero is a
    # supergradient, so a unit-trace PSD matrix on the bottom eigenspace there
    # is kernel-orthogonal, with <H, B> equal to the negative slice value.
    # Dykstra between the spectraplex and the kernel-orthogonal subspace, both
    # trace-preserving, starts from the normalized projector onto the bottom
    # eigen-cluster of the slice point.
    lam, V = np.linalg.eigh(h_slice)
    U = V[:, lam <= lam[0] + 1e-8 * scale]
    B = U @ U.T / U.shape[1]
    r1 = np.zeros_like(B)
    r2 = np.zeros_like(B)
    while used < max_iter:
        used += 1
        Y = _proj_spectraplex(B + r1)
        r1 = B + r1 - Y
        B = Y + r2 - kernel.project(Y + r2)
        r2 = Y + r2 - B
        if used % 25 == 0 or used == max_iter:
            verdict = infeasible_verdict(B, used)
            if verdict is not None:
                return verdict
            if np.linalg.norm(Y - B) <= tol:
                break
    return SosVerdict(
        UNDECIDED,
        d,
        iterations=used,
        residuals={
            "primal_gap": float(np.linalg.norm(x - _proj_psd(x))),
            "primal_eig_min": _eig_min(x),
            "slice_eig_max": f_best,
            "dual_value": float(np.sum(H * B)),
            "dual_eig_min": _eig_min(B),
            "margin": margin,
            "stagnated_primal": float(stagnated),
        },
    )


def sos_decompose(H_star, tol=1e-9):
    """Skew factors A_1..A_r with sum_p A_p x x^T A_p^T = c_{H_star}(x).

    ``r`` is the numerical rank of H_star; eigenvalues below -tol raise a
    ValueError, small negatives are clipped.
    """
    H_star = np.asarray(H_star, dtype=float)
    m = H_star.shape[0]
    d = _d_from_m(m)
    if m == 0:
        return []
    lam, V = np.linalg.eigh(H_star)
    if lam[0] < -tol:
        raise ValueError(f"matrix is indefinite beyond tolerance: min eigenvalue {lam[0]:.3e}")
    lam = np.clip(lam, 0.0, None)
    cutoff = tol * max(lam[-1], 1.0)
    factors = []
    for p in range(m - 1, -1, -1):
        if lam[p] <= cutoff:
            break
        factors.append(vec_to_skew(np.sqrt(lam[p]) * V[:, p], d))
    return factors


def reconstruct_cmap(factors, d):
    """Coefficient tensor of sum_p A_p x x^T A_p^T."""
    C = np.zeros((d, d, d, d))
    for A in factors:
        C += 0.5 * cmap_from_pair(A, A)
    return C


def nonneg_check(H, samples=100, restarts=25, seed=0):
    """Multistart alternating eigenvector descent of the biquadratic form.

    For fixed x the best unit y is the bottom eigenvector of c_H(x), and by
    the symmetry of the form in (x, y) the same holds with roles swapped, so
    each alternation is monotone.  One-sided: a negative value below -1e-9
    yields a witness, otherwise only the smallest value found is reported.
    """
    H = np.asarray(H, dtype=float)
    d = _d_from_m(H.shape[0])
    rng = np.random.default_rng(seed)
    best_val = np.inf
    best_xy = (np.zeros(d), np.zeros(d))
    for _ in range(restarts):
        x = rng.standard_normal(d)
        x /= np.linalg.norm(x)
        val_prev = np.inf
        y = None
        for _ in range(samples):
            _, Vx = np.linalg.eigh(c_H_eval(H, x))
            y = Vx[:, 0]
            _, Vy = np.linalg.eigh(c_H_eval(H, y))
            x = Vy[:, 0]
            val = biquadratic_eval(H, x, y)
            if val_prev - val <= 1e-15 * max(1.0, abs(val)):
                break
            val_prev = val
        val = biquadratic_eval(H, x, y)
        if val < best_val:
            best_val, best_xy = val, (x.copy(), y.copy())
        if best_val < -1e-9:
            break
    return NonnegReport(best_val < -1e-9, float(best_val), best_xy[0], best_xy[1])


# The explicit dimension-six matrix whose biquadratic form is nonnegative but
# not a sum of squares.  Built from the Frobenius-commutator inequality
# 2(||X||^2 ||Y||^2 - tr(X^T Y)^2) - ||XY - YX||^2 >= 0 specialized to upper
# triangular 3x3 arguments, with two Plucker polynomials subtracted.

def _pair_vec(coeffs, d):
    from .skew import pi_index

    v = np.zeros(skew_dim(d))
    for (i, j), c in coeffs:
        v[pi_index(i, j, d) - 1] = c
    return v


def _counterexample_h():
    from .cspace import k_matrix

    m = 15
    H = 2.0 * np.eye(m)
    for coeffs in (
        (((1, 2), 1.0), ((2, 6), 1.0)),
        (((4, 5), 1.0), ((4, 6), -1.0)),
        (((1, 3), 1.0), ((2, 4), 1.0), ((3, 5), 1.0)),
    ):
        v = _pair_vec(coeffs, 6)
        H -= np.outer(v, v)
    # A Plucker polynomial is the quadratic form of half its kernel matrix.
    H -= 0.5 * k_matrix((1, 2, 3, 4), 6)
    H -= 0.5 * k_matrix((2, 3, 4, 5), 6)
    return H


def charpoly_reference():
    """Coefficients (leading first) of 2^-5 (s-2)^7 (2s^2-2s-1)(4s^3-16s^2+14s+1)^2."""
    poly = np.array([1.0])
    for _ in range(7):
        poly = np.convolve(poly, [1.0, -2.0])
    poly = np.convolve(poly, [2.0, -2.0, -1.0])
    cubic = np.array([4.0, -16.0, 14.0, 1.0])
    poly = np.convolve(poly, np.convolve(cubic, cubic))
    return poly / 32.0


def _negative_cubic_root(tol=1e-14):
    """Bisection for the single negative root of 4 s^3 - 16 s^2 + 14 s + 1 in (-1, 0)."""
    phi = lambda s: ((4.0 * s - 16.0) * s + 14.0) * s + 1.0
    lo, hi = -1.0, 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if phi(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class Counterexample:
    """The dimension-six matrix with a nonnegative, non-SOS biquadratic form."""

    h: np.ndarray
    certificate: np.ndarray
    report: dict


def counterexample_d6():
    """Construct the d = 6 counterexample and its infeasibility certificate.

    Returns the 15 x 15 matrix H, the PSD certificate B built from the
    negative eigenvalues (1 - sqrt(3))/2 and the negative root of
    4 s^3 - 16 s^2 + 14 s + 1, and a verification report: eigen-residuals,
    characteristic polynomial comparison, <H, B> and kernel orthogonality
    margins, and the component functions of c_H.
    """
    H = _counterexample_h()
    lam = (1.0 - np.sqrt(3.0)) / 2.0
    mu = _negative_cubic_root()
    e = np.eye(15)
    v1 = 0.5 * e[1] - lam * e[6] + 0.5 * e[10]
    v2 = (mu / 2.0) * e[2] + mu * (2.0 - mu) * e[5] + 0.5 * (mu - 1.0) * e[12] + 0.5 * e[13]
    v3 = 0.5 * (1.0 - mu) * e[0] - (mu / 2.0) * e[7] + 0.5 * e[8] + mu * (mu - 2.0) * e[9]
    delta = mu * (mu - 2.0) * (2.0 * mu - 1.0) / lam
    B = delta * np.outer(v1, v1) + np.outer(v2, v2) + np.outer(v3, v3)

    charpoly = np.poly(H)
    target = charpoly_reference()
    ok, cert_report = verify_certificate(H, B, 1e-9)
    report = {
        "lambda": lam,
        "mu": mu,
        "delta": delta,
        "eig_residuals": {
            "v1": float(np.linalg.norm(H @ v1 - lam * v1)),
            "v2": float(np.linalg.norm(H @ v2 - mu * v2)),
            "v3": float(np.linalg.norm(H @ v3 - mu * v3)),
        },
        "charpoly_max_diff": float(np.abs(charpoly - target).max()),
        "inner_hb": cert_report["inner"],
        "inner_formula": float(lam * delta * (v1 @ v1) + mu * (v2 @ v2) + mu * (v3 @ v3)),
        "k_orth_max": cert_report["k_orth_max"],
        "certificate_eig_min": cert_report["eig_min"],
        "certificate_valid": ok,
        "components": component_strings(cmap_from_h(H, 6)),
    }
    return Counterexample(H, B, report)


def component_strings(C, tol=1e-12):
    """Readable component functions of a coefficient tensor, e.g. 'x1^2 + 2 x2 x3'."""
    C = np.asarray(C)
    d = C.shape[0]
    out = {}
    for i in range(d):
        for j in range(i, d):
            terms = []
            M = C[i, j]
            for a in range(d):
                for b in range(a, d):
                    coef = M[a, a] if a == b else 2.0 * M[a, b]
                    if abs(coef) <= tol:
                        continue
                    mono = f"x{a + 1}^2" if a == b else f"x{a + 1} x{b + 1}"
                    mag = abs(coef)
                    mag_s = str(int(round(mag))) if abs(mag - round(mag)) < tol else f"{mag:g}"
                    head = "-" if coef < 0 else ("+" if terms else "")
                    body = mono if mag_s == "1" else f"{mag_s} {mono}"
                    terms.append(f"{head}{body}" if not terms else f"{head} {body}")
            out[f"c_{i + 1}{j + 1}"] = " ".join(terms) if terms else "0"
    return out

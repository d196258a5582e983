"""Sum-of-squares feasibility for tangential coefficient maps.

Decides whether some kernel shift of H is positive semidefinite, which by the
biquadratic correspondence is equivalent to y^T c_H(x) y being a sum of
squares of bilinear forms.  One function carries the decision: the convex
C^1 function phi(t) = 1/2 ||Pi_-(H + sum_q t_q K_q)||_F^2 (Pi_- the
projection onto the negative semidefinite cone, K_q the Plucker kernel
basis; Henrion-Malick 2011, Malick 2004).  Its gradient <K_q, Pi_-(Z)> costs
one eigendecomposition and one index gather.  Its first evaluation, at t = 0,
decides a PSD H and, with no kernel at d <= 3, every H; otherwise a
semismooth Newton-CG minimizes it: phi's gradient is strongly semismooth,
and its generalized Hessian is applied through the divided differences of
lambda -> min(lambda, 0) at the eigendecomposition phi already made (Qi-Sun
2006, Zhao-Sun-Toh 2010).  Where every PSD point of the affine set is rank
deficient, the set meets the PSD cone only on a proper face and that
iteration slows to linear (Sturm 2000; Drusvyatskiy-Wolkowicz 2017); the
spectrum of Z then splits into a cluster at 0, holding the negative
eigenvalues, and the rest.  A face step takes the cluster's eigenvectors U0
and makes Gauss-Newton steps on 1/2 ||U0^T Z(t) U0||^2, which drive the
cluster to 0 quadratically; it is kept while each step halves the cluster,
and the Newton-CG resumes when one does not.  Face steps count as
iterations, and each candidate is still a Z that phi evaluated, so the
stop tests below decide as before.  Any evaluated Z that is PSD up to
tolerance is a witness.  Where phi stays positive, the certificate is read
off the gradient: B0 = -Pi_-(Z) / tr(-Pi_-(Z)) is PSD and unit-trace, and
kernel-orthogonal at a stationary point; projected off the kernel and
shifted back to PSD it is checked as a certificate after every evaluation.
Witnesses are re-verified independently; a spent budget or a stalled line
search yields an Undecided verdict with residual diagnostics, never a silent
guess.
"""

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .cspace import (_check_h, _kernel, _symmetric, biquadratic_eval,
                     c_H_eval, cmap_from_h, k_matrix)
from .skew import _check_number, _upper_indices, pi_index, skew_dim, skew_to_vec

__all__ = [
    "sos_check",
    "verify_certificate",
    "counterexample_d6",
    "nonneg_check",
    "reconstruct_cmap",
]

FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"
UNDECIDED = "Undecided"
# Armijo's sufficient-decrease fraction and the smallest Newton step tried.
ARMIJO = 1e-4
STEP_FLOOR = 1e-6
# The face step: the least gap ratio that splits the cluster at 0 off the
# spectrum, the most face steps in a row, and the cap on their CG relative
# residual (see _newton_cg).
FACE_GAP = 2.0
FACE_STEPS = 8
FACE_CG = 0.01
_RESTARTS = 25           # nonneg_check's seeded random starts
_COMPONENT_TOL = 1e-12   # component_strings: a coefficient this near 0 or an integer is one


@dataclass
class SosVerdict:
    """Outcome of a sum-of-squares feasibility check.

    On Feasible, ``h_star`` is a PSD point of H + span(kernel) and ``factors``
    are skew matrices with c_H(x) = sum_p A_p x x^T A_p^T.  On Infeasible,
    ``certificate`` is a PSD, unit-trace, kernel-orthogonal matrix B with
    <H, B> < 0.  ``residuals`` carries solver diagnostics in every case.
    ``stats`` says what decided: ``phase`` ("precheck" or "smooth"),
    ``iterations`` (Newton and face steps in the smooth phase) and
    ``seconds`` per phase run, ``stop``, the reason the deciding phase
    stopped, and, once the smooth phase ran, ``cg_products``, the products of
    all its conjugate gradient solves, and ``face``: ``dim``, the size of the
    last eigenvalue cluster a face step was tried on (0 if none), ``steps``,
    the face steps among the iterations, and ``cg_products``, theirs among
    the products.  The CLI leaves ``stats`` out.
    """

    status: str
    d: int
    h_star: np.ndarray = None
    factors: list = None
    certificate: np.ndarray = None
    iterations: int = 0
    residuals: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)


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


def _eig_min(X):
    return float(np.linalg.eigvalsh(X)[0]) if X.size else 0.0


def _verify_feasible(H, h_star, kernel, tol):
    shift = h_star - H
    member = float(np.linalg.norm(shift - kernel.project(shift)))
    eig_min = _eig_min(h_star)
    return {
        "eig_min": eig_min,
        "membership_residual": member,
    }, eig_min >= -tol and member <= tol * np.linalg.norm(H)


def verify_certificate(H, B, tol=1e-9):
    """Independently check an infeasibility certificate.

    True iff B is PSD up to tol, orthogonal to every kernel basis matrix up
    to tol, and <H, B> < -tol.  The report carries all three margins.  B,
    evaluated as given, must be a finite (m, m) matrix symmetric to roundoff
    (the eigenvalue test reads one triangle), and tol a positive finite
    number; ValueError otherwise.
    """
    _check_number(tol, "tol")
    H, d = _check_h(H)
    _check_h(B, d, "B")
    B = np.asarray(B, dtype=float)
    _symmetric(B, "B must be symmetric")
    kernel = _kernel(d)
    korth = float(np.abs(kernel.inner(B)).max(initial=0.0))
    report = {
        "eig_min": _eig_min(B),
        "k_orth_max": korth,
        "inner": float(np.sum(H * B)),
    }
    ok = report["eig_min"] >= -tol and korth <= tol and report["inner"] < -tol
    return ok, report


def _repaired(N, g, kernel):
    """(B0 - P_K(B0) + eps I) / (1 + m eps) for B0 = N / tr(N), N = Pi_-(Z).

    ``g`` holds <K_q, N>.  Removing the kernel component lowers the smallest
    eigenvalue of the PSD unit-trace B0 by at most eps = ||P_K(B0)||_F, and
    every K_q has a zero diagonal, so the result is PSD, unit-trace and
    kernel-orthogonal: a certificate whenever its inner product with H is < 0.
    """
    tr = np.trace(N)
    eps = np.sqrt(g @ g / 6.0) / abs(tr)
    B = N / tr - kernel.combine(g / (6.0 * tr))
    B.flat[:: len(B) + 1] += eps
    return B / (1.0 + len(B) * eps)


def _hessian_product(kernel, lam, V, mu):
    """v -> K*(Pi_-'(Z)[K v]) + mu v at Z = V diag(lam) V^T, lam ascending.

    Pi_-'(Z)[W] = V (Omega o V^T W V) V^T, Omega the divided differences of
    lambda -> min(lambda, 0) (Daleckii-Krein): 1 between two negative
    eigenvalues, 0 between two nonnegative ones, and lam_i / (lam_i - lam_j)
    across, so only the k negative eigenvectors enter and a product costs
    O(m^2 k) besides one scatter and one gather.  V may be a block of
    eigenvectors: given the face's U0 with every lam_i = -1, Omega is 1 on
    the block and the product is K*(P K(v) P), P = U0 U0^T.
    """
    k = int(np.searchsorted(lam, 0.0))
    Vn = V[:, :k]
    # Omega's first k columns, the across block doubled: that block enters Y
    # and Y^T alike, and kernel.inner(X) = kernel.inner(X^T), so Y is never
    # symmetrized.
    omega = np.ones((len(lam), k))
    omega[k:] = 2.0 * lam[:k] / (lam[:k] - lam[k:, None])

    def product(v):
        return kernel.inner(V @ (omega * (V.T @ (kernel.combine(v) @ Vn))) @ Vn.T) + mu * v

    return product


def _cg(product, b, tol):
    """Conjugate gradients for product(x) = b from x = 0, to ||b - product(x)|| <= tol.

    Returns x and the products spent.  n steps solve an n-dimensional system
    in exact arithmetic; rounding may need more, so 2n bound them.  A
    semidefinite product stops at a direction of zero curvature.
    """
    x, r = np.zeros_like(b), b
    d, rr = r, float(r @ r)
    products = 0
    for _ in range(2 * len(b)):
        if rr <= tol * tol:
            break
        Hd = product(d)
        products += 1
        curvature = float(d @ Hd)
        if curvature <= 0.0:
            break
        a = rr / curvature
        x, r = x + a * d, r - a * Hd
        rr, rr_old = float(r @ r), rr
        d = r + (rr / rr_old) * d
    return x, products


def _face(lam, failed):
    """Size j of the eigenvalue cluster at 0, or 0 if the spectrum does not split.

    The cluster lam[:j] holds every negative eigenvalue and at least one
    nonnegative one, and j, not in ``failed``, maximizes the gap ratio
    lam[j] / max|lam[:j]|, which must reach FACE_GAP.
    """
    k = int(np.searchsorted(lam, 0.0))
    if k == 0 or k >= len(lam) - 1:
        return 0
    ratio = lam[k + 1:] / np.maximum(-lam[0], lam[k:-1])
    ratio[[j - k - 1 for j in failed if j > k]] = 0.0
    i = int(np.argmax(ratio))
    return k + 1 + i if ratio[i] >= FACE_GAP else 0


def _newton_cg(phi, kernel, t, state, max_iter, halt, accept_tol):
    """Semismooth Newton-CG with face steps on phi from t, where phi(t) = state.

    A Newton step solves (Hessian + mu I) p = -g by CG to the relative
    residual min(0.1, ||g||^(1/2)) with mu = min(1e-2, ||g||), then halves the
    step from 1 until phi meets the Armijo condition (Qi-Sun 2006;
    Zhao-Sun-Toh 2010).  Where every PSD point of the affine set is rank
    deficient, that iteration is only linear (Sturm 2000), and the spectrum
    splits: a cluster of j eigenvalues at 0, all the negative ones among
    them, set apart by a gap (``_face``).  Face steps then come first.  With
    U0 the cluster's eigenvectors and P = U0 U0^T, each is a Gauss-Newton
    step on psi(t) = 1/2 ||U0^T Z(t) U0||^2: one CG solve of
    K*(P K(p) P) = -K*(P Z P), to the relative residual
    max(min(FACE_CG, s / lam_j), accept_tol / (10 s)) for the cluster's
    largest |eigenvalue| s, and one evaluation of phi at t + p, whose
    eigendecomposition gives the next U0.  A face step is kept if it at
    least halves s, and FACE_STEPS may follow in a row; the first that does
    not is dropped, its j is not tried again, and a Newton step follows from
    the last kept point.  ``halt()`` runs after every evaluation of phi.
    Returns the steps of both kinds taken (at most ``max_iter``), their CG
    products, the stop reason ("budget spent", "stalled" when no Newton step
    of at least STEP_FLOOR lowers phi, or "no verified witness" when
    ``halt()`` held), and the face report of ``SosVerdict.stats``.
    """
    f, g, lam, V = state
    steps = products = 0
    face = {"dim": 0, "steps": 0, "cg_products": 0}
    failed = set()
    while steps < max_iter:
        j = _face(lam, failed)
        if j:
            face["dim"] = j
            size = max(-lam[0], lam[j - 1])
            for _ in range(min(FACE_STEPS, max_iter - steps)):
                U0 = V[:, :j]
                rhs = -kernel.inner((U0 * lam[:j]) @ U0.T)
                # A face step leaves the cluster at about ten times the
                # relative residual times its size: no need to go below what
                # reaches accept_tol.
                rtol = max(min(FACE_CG, size / lam[j]), accept_tol / (10.0 * size))
                p, used = _cg(_hessian_product(kernel, -np.ones(j), U0, 0.0), rhs,
                              rtol * float(np.sqrt(rhs @ rhs)))
                products += used
                face["cg_products"] += used
                face["steps"] += 1
                steps += 1
                trial = phi(t + p)
                if halt():
                    return steps, products, "no verified witness", face
                trial_size = max(-trial[2][0], trial[2][j - 1])
                if trial_size > 0.5 * size:
                    failed.add(j)
                    break
                t, size = t + p, trial_size
                f, g, lam, V = trial
            if steps == max_iter:
                break
        gnorm = float(np.sqrt(g @ g))
        p, used = _cg(_hessian_product(kernel, lam, V, min(1e-2, gnorm)), -g,
                      min(0.1, np.sqrt(gnorm)) * gnorm)
        products += used
        slope, step = float(g @ p), 1.0
        steps += 1
        while True:
            trial = phi(t + step * p)
            if halt():
                return steps, products, "no verified witness", face
            if trial[0] < f and trial[0] <= f + ARMIJO * step * slope:
                break
            step *= 0.5
            if step < STEP_FLOOR:
                return steps, products, "stalled", face
        t = t + step * p
        f, g, lam, V = trial
    return steps, products, "budget spent", face


# A huge H overflows norms and phi to inf, which are tested, not printed.
@np.errstate(over="ignore")
def sos_check(H, tol=1e-9, max_iter=50000):
    """Decide whether H + (kernel shift) meets the PSD cone.

    One decision path: after the trace pre-check, phi is evaluated at t = 0,
    where Z = H.  If H is PSD up to tolerance it is the witness, factored by
    ``_factors`` from the eigendecomposition phi made of it; H = 0 is decided
    there too, with no factor.  Otherwise a semismooth Newton-CG minimizes
    phi when there is a kernel (d >= 4), and at d <= 3, where the affine set
    is the single point H, that first evaluation is the whole problem.  The
    Newton-CG stops at the first Z that is PSD up to tolerance, at the first
    verified certificate, when its line search stalls, or when the budget is
    spent.  Every verdict is re-verified on the way out.

    Parameters
    ----------
    H : finite (m, m) array, m = C(d, 2); its symmetric part is used
    tol : acceptance tolerance for witness residuals, a positive finite number
    max_iter : iteration budget, a positive integer: Newton and face steps of
        the smooth phase.  The verdict's ``iterations`` is that count and
        never exceeds ``max_iter``; a verdict decided before iterating (the
        trace pre-check, PSD H, or any H at d <= 3) reports at most 1.

    Returns
    -------
    SosVerdict
        Status Feasible with a re-verified PSD witness and skew factors,
        Infeasible with a re-verified certificate, or Undecided with
        diagnostics when the budget runs out or the line search stalls with
        neither witness in hand.

    Raises ValueError for an H of another shape, with a non-finite entry, or
    so large that phi(0) is not finite, and for a bad tol or max_iter.
    """
    _check_number(tol, "tol")
    _check_number(max_iter, "max_iter", integer=True)
    stats = {"phase": "precheck", "iterations": {}, "seconds": {}}
    clock, counted = perf_counter(), 0

    def enter(phase, used):
        # Charge the time and iterations since the last call to the current phase.
        nonlocal clock, counted
        now = perf_counter()
        stats["seconds"][stats["phase"]] = now - clock
        stats["iterations"][stats["phase"]] = used - counted
        stats["phase"], clock, counted = phase, now, used

    def verdict_of(status, stop, used, **kw):
        enter(stats["phase"], used)
        stats["stop"] = stop
        return SosVerdict(status, d, iterations=used, stats=stats, **kw)

    H, d = _check_h(H)
    m = H.shape[0]
    if m == 0:
        return verdict_of(FEASIBLE, "feasible point found", 0, h_star=H, factors=[],
                          residuals={"eig_min": 0.0})
    scale = float(np.linalg.norm(H))
    margin = 1e-6 * scale
    accept_tol = min(tol, 1e-10 * scale)
    kernel = _kernel(d)

    def feasible_verdict(h_star, lam, V, used):
        report, ok = _verify_feasible(H, h_star, kernel, tol)
        if not ok:
            return None
        return verdict_of(FEASIBLE, "feasible point found", used, h_star=h_star,
                          factors=_factors(h_star, lam, V, d, tol), residuals=report)

    def infeasible_verdict(B, used):
        ok, report = verify_certificate(H, B, tol)
        if not (ok and report["inner"] <= -margin):
            return None
        return verdict_of(INFEASIBLE, "certificate verified", used, certificate=B, residuals=report)

    # A negative trace makes I/m a certificate without any eigendecomposition.
    if np.trace(H) / m <= -margin:
        verdict = infeasible_verdict(np.eye(m) / m, 1)
        if verdict is not None:
            return verdict

    # phi(t) = 1/2 ||Pi_-(Z)||_F^2, Z = H + sum_q t_q K_q.  ``best`` keeps the
    # first evaluated Z that is PSD up to accept_tol, with its eigendecomposition
    # for the factors, and the point of least phi.
    best = {"phi": np.inf, "Z": None}

    def phi(t):
        Z = H + kernel.combine(t)
        lam, V = np.linalg.eigh(Z)
        k = int(np.searchsorted(lam, 0.0))
        N = (V[:, :k] * lam[:k]) @ V[:, :k].T
        f = 0.5 * float(lam[:k] @ lam[:k])
        g = kernel.inner(N)
        if lam[0] >= -accept_tol and best["Z"] is None:
            best.update(Z=Z, eig=(lam, V))
        if f < best["phi"] and k:
            best.update(phi=f, eig_min=float(lam[0]), N=N, g=g)
        return f, g, lam, V

    def halt():
        # The two stop tests: a Z that is PSD up to accept_tol, or a
        # repaired candidate at the best point with <H, B> <= -margin that
        # keeps 90% of <H, B0>, so that certificates are nearly as strong as
        # the stationary one.
        if best["Z"] is not None:
            return True
        N = best["N"]
        target = min(-margin, 0.9 * np.vdot(H, N) / np.trace(N))
        return np.vdot(H, _repaired(N, best["g"], kernel)) <= target

    # phi(0) decides a PSD H (Z = H is the witness) and, with no kernel, every H.
    t = np.zeros(len(kernel))
    state = phi(t)
    if not np.isfinite(state[0]):
        raise ValueError(f"phi(0) = {state[0]} is not finite: the entries of H are too large")
    used, stop = 1, "no verified witness"
    if best["Z"] is None and len(kernel):
        enter("smooth", 0)
        used, stats["cg_products"], stop, stats["face"] = _newton_cg(
            phi, kernel, t, state, max_iter, halt, accept_tol)
    if best["Z"] is not None:
        verdict = feasible_verdict(best["Z"], *best["eig"], used)
        if verdict is not None:
            return verdict
    B = _repaired(best["N"], best["g"], kernel)
    verdict = infeasible_verdict(B, used)
    if verdict is not None:
        return verdict
    residuals = {"phi": best["phi"], "eig_min": best["eig_min"],
                 "grad_norm": float(np.linalg.norm(best["g"])),
                 "dual_value": float(np.sum(H * B)), "dual_eig_min": _eig_min(B), "margin": margin}
    return verdict_of(UNDECIDED, stop, used, residuals=residuals)


def _factors(H_star, lam, V, d, tol):
    """Skew factors A_1..A_r with sum_p A_p x x^T A_p^T = c_{H_star}(x), from
    eigh(H_star) = (lam, V), H_star symmetric.

    ``r`` is the number of eigenvalues above tol times the largest; largest
    first, each factor is the skew matrix of the eigenvector scaled by the
    root of its eigenvalue, all r of them scattered into one (r, d, d) stack.
    Eigenvalues below -tol raise a ValueError, small negatives are clipped.
    Where an eigenvalue of H_star overflows, H_star / 4^e is factored
    instead, e the least integer that keeps its spectrum finite, and every
    factor is scaled by 2^e: both are exact, the rank and the tolerances are
    taken in those scaled units, and e = 0 for any H_star whose spectrum is
    finite.
    """
    e = 0
    while not np.all(np.isfinite(lam)):
        e += 1
        lam, V = np.linalg.eigh(np.ldexp(H_star, -2 * e))
    if lam[0] < -tol:
        raise ValueError(f"matrix is indefinite beyond tolerance: min eigenvalue {lam[0]:.3e}")
    lam = np.clip(lam, 0.0, None)
    # lam ascends, so the eigenvalues above the cutoff are its last r
    r = int(np.count_nonzero(lam > tol * lam[-1]))
    top = np.ldexp(np.sqrt(lam[::-1][:r]) * V[:, ::-1][:, :r], e)
    rows, cols = _upper_indices(d)
    A = np.zeros((r, d, d))
    A[:, rows, cols] = top.T
    return list(A - np.swapaxes(A, 1, 2))


def reconstruct_cmap(factors, d):
    """Coefficient tensor of sum_p A_p x x^T A_p^T for skew A_p: :func:`cmap_from_h`
    of F^T F, F the matrix whose rows are the factors' vectors ``skew_to_vec(A_p)``."""
    F = np.array([skew_to_vec(A) for A in factors]).reshape(len(factors), skew_dim(d))
    return cmap_from_h(F.T @ F, d)


def _bottom_orthogonal(C, x):
    """A unit y in x-perp minimizing y.C.y, for a unit x, in the basis of x-perp: the last
    d - 1 columns of the Householder reflection taking e_1 to -sign(x_1) x."""
    v = x.copy()
    v[0] += 1.0 if x[0] >= 0.0 else -1.0
    Q = np.eye(len(x))[:, 1:] - np.outer(v, v[1:] / (0.5 * (v @ v)))
    _, V = np.linalg.eigh(Q.T @ C @ Q)
    return Q @ V[:, 0]


def nonneg_check(H):
    """Multistart alternating eigenvector descent of the biquadratic form over orthonormal pairs.

    The form depends only on x ^ y, so orthonormal pairs reach its minimum, and
    the descent cannot stop at y = x, where every tangential form vanishes.  For
    fixed x the best y is the bottom eigenvector of c_H(x) on x-perp, and
    likewise with roles swapped, so each alternation is monotone.  One-sided: a
    value below -1e-9 yields a witness, otherwise only the smallest value found
    over ``_RESTARTS`` seeded random starts is reported.
    """
    H, d = _check_h(H)
    if d < 2:   # no orthonormal pair; the form of the empty H is zero
        return NonnegReport(False, 0.0, np.ones(d), np.ones(d))
    rng = np.random.default_rng(0)
    best_val = np.inf
    best_xy = (np.zeros(d), np.zeros(d))
    for _ in range(_RESTARTS):
        x = rng.standard_normal(d)
        x /= np.linalg.norm(x)
        val_prev = np.inf
        y = None
        for _ in range(100):
            y = _bottom_orthogonal(c_H_eval(H, x), x)
            x = _bottom_orthogonal(c_H_eval(H, y), y)
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
    v = np.zeros(skew_dim(d))
    for (i, j), c in coeffs:
        v[pi_index(i, j, d) - 1] = c
    return v


def _counterexample_h():
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
    mu = float(np.roots([4.0, -16.0, 14.0, 1.0]).real.min())
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


def component_strings(C):
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
                    if abs(coef) <= _COMPONENT_TOL:
                        continue
                    mono = f"x{a + 1}^2" if a == b else f"x{a + 1} x{b + 1}"
                    mag = abs(coef)
                    mag_s = (str(int(round(mag))) if abs(mag - round(mag)) < _COMPONENT_TOL
                             else f"{mag:g}")
                    head = "-" if coef < 0 else ("+" if terms else "")
                    body = mono if mag_s == "1" else f"{mag_s} {mono}"
                    terms.append(f"{head}{body}" if not terms else f"{head} {body}")
            out[f"c_{i + 1}{j + 1}"] = " ".join(terms) if terms else "0"
    return out

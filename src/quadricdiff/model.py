"""Ball and sphere models, their validators, and :func:`ensemble`, which simulates them.

A ball model has diffusion ``a(x) = (1 - |x|^2) alpha + c_H(x)`` and drift
``b + B x``; a sphere model has ``a = c_H`` and drift ``B x`` subject to the
coefficient identity ``2 x^T B x + tr(c_H(x)) = 0``.  The admissibility and
boundary-attainment inequalities over the unit sphere are decided exactly by
a secular-equation maximizer, never by sampling: Newton's method on the
Lagrange multiplier's offset above the top eigenvalue, after an exact
power-of-two scaling that makes its every tolerance relative.
"""

from dataclasses import dataclass, field

import numpy as np

from .cspace import _float_array, _symmetric, _symmetric_part, h_from_json, trace_form
from .generator import _start_point
from .simulate import _X0_TOL, SkewDrive, _alpha_psd, _twin_gaps, ball_ensemble, sphere_ensemble
from .skew import _check_number, skew_dim
from . import sos as _sos

__all__ = [
    "BallModel",
    "SphereModel",
    "sphere_max_quadratic",
    "validate",
    "ensemble",
    "twin_path_experiment",
]


def _coefficients(model, **shapes):
    """Store the named coefficients as float arrays of the given shapes.

    Raises ValueError unless each one is an array of numbers of its shape and is finite.
    """
    for name, shape in shapes.items():
        given = getattr(model, name)
        value = _float_array(given)
        if value is None:
            raise ValueError(f"{name} must be an array of numbers, got {given!r:.80}")
        if value.shape != shape:
            raise ValueError(f"{name} must have shape {shape} for d = {model.d}, "
                             f"got {value.shape}")
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")
        object.__setattr__(model, name, value)


def _square_dim(A, name):
    """d of a (d, d) matrix A; ValueError if A is not two-dimensional with d >= 1."""
    if np.ndim(A) != 2 or not np.shape(A)[0]:
        raise ValueError(f"{name} must be a (d, d) matrix with d >= 1, got shape {np.shape(A)}")
    return np.shape(A)[0]


@dataclass(frozen=True)
class BallModel:
    """Unit-ball diffusion coefficients (alpha, H, b, B).

    Raises ValueError unless alpha and B are finite (d, d) with d >= 1, b finite
    (d,) and H finite (m, m), m = C(d, 2), and alpha is symmetric to roundoff.
    """

    alpha: np.ndarray
    H: np.ndarray
    b: np.ndarray
    B: np.ndarray
    space = "ball"   # a class constant, not a field

    def __post_init__(self):
        d = _square_dim(self.alpha, "alpha")
        m = skew_dim(d)
        _coefficients(self, alpha=(d, d), H=(m, m), b=(d,), B=(d, d))
        _symmetric(self.alpha, "alpha must be symmetric")

    @property
    def d(self):
        return np.asarray(self.alpha).shape[0]

    @classmethod
    def scalar(cls, kappa, nu, d):
        """dX = -kappa X dt + nu sqrt(1 - |X|^2) dW: alpha = nu^2 Id, H = 0, b = 0, B = -kappa Id.

        ValueError unless kappa, nu and nu^2 are positive and finite; ``nu ** 2``
        (not ``nu * nu``, which rounds otherwise) raises OverflowError on a float.
        """
        if not (0 < kappa < np.inf and 0 < nu < np.inf):
            raise ValueError(f"kappa and nu must be positive and finite, got {kappa}, {nu}")
        try:
            nu2 = nu ** 2
        except OverflowError:
            nu2 = np.inf
        if not 0 < nu2 < np.inf:
            raise ValueError(f"nu^2 must be positive and finite, got {nu2} for nu = {nu}")
        m = skew_dim(d)
        return cls(alpha=nu2 * np.eye(d), H=np.zeros((m, m)), b=np.zeros(d), B=-kappa * np.eye(d))


@dataclass(frozen=True)
class SphereModel:
    """Unit-sphere diffusion coefficients (H, B).

    Raises ValueError unless B is finite (d, d) with d >= 1 and H finite (m, m),
    m = C(d, 2).
    """

    H: np.ndarray
    B: np.ndarray
    space = "sphere"   # a class constant, not a field

    def __post_init__(self):
        d = _square_dim(self.B, "B")
        m = skew_dim(d)
        _coefficients(self, H=(m, m), B=(d, d))

    @property
    def d(self):
        return np.asarray(self.B).shape[0]


@dataclass
class TwinPathReport:
    """Divergence of same-noise path pairs started eps apart."""

    max_divergence: np.ndarray
    eps: float
    kappa_nu_ratio: float
    uniqueness_condition: bool   # kappa/nu^2 > threshold
    threshold: float             # sqrt(2) - 1
    T: float
    h: float


@dataclass
class SphereQuadReport:
    """Exact maximum of x^T M x + b^T x over the unit sphere."""

    max_value: float
    argmax: np.ndarray
    multiplier: float


@dataclass
class AttainmentReport:
    status: str               # "InteriorInvariant" | "MayAttainBoundary"
    margin: float
    argmax: np.ndarray


@dataclass
class ValidationReport:
    admissible: bool
    positivity: str           # "verified" | "refuted" | "unverified"
    checks: dict = field(default_factory=dict)
    boundary: AttainmentReport | None = None   # an admissible ball model's; else None


def sphere_max_quadratic(M, b):
    """Global maximum of x^T M x + b^T x over the unit sphere, by secular equation.

    (M, b) is first scaled by the power of two that brings its largest entry
    into [1/2, 1), which is exact, and the value and the multiplier are scaled
    back, so every tolerance inside is relative: scaling (M, b) by 2**k scales
    both by 2**k and leaves the argmax's bits alone.  The multiplier lam of
    ``2 M x + b = 2 lam x`` is found by Newton's method on its offset above
    the top eigenvalue of M (see ``_secular_max``), which also covers the
    hard case, b orthogonal to the leading eigenspace.  Raises ValueError
    unless M is a finite (d, d) matrix with d >= 1 and b d finite numbers, and
    if the maximum or the multiplier exceeds the float range.

    Returns
    -------
    SphereQuadReport
        max value, a unit argmax, and the multiplier; the stationarity
        residual ``|2 M x + b - 2 lam x|`` is at roundoff level.
    """
    M, b = np.asarray(M, dtype=float), np.asarray(b, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or not len(M):
        raise ValueError(f"M must be a square (d, d) matrix with d >= 1, got shape {M.shape}")
    if b.size != len(M):
        raise ValueError(f"b must hold {len(M)} numbers, got shape {b.shape}")
    b = b.reshape(len(M))
    if not (np.all(np.isfinite(M)) and np.all(np.isfinite(b))):
        raise ValueError("M and b must be finite")
    M = _symmetric_part(M)
    shift = int(np.frexp(max(np.abs(M).max(), np.abs(b).max()))[1])   # 0 for all zeros
    value, x, lam = _secular_max(np.ldexp(M, -shift), np.ldexp(b, -shift))
    with np.errstate(over="ignore"):
        value, lam = np.ldexp([value, lam], shift).tolist()
    if not (np.isfinite(value) and np.isfinite(lam)):
        raise ValueError("the maximum of x.M.x + b.x over the unit sphere, or its "
                         "multiplier, exceeds the float range")
    return SphereQuadReport(value, x, lam)


def _secular_max(M, b):
    """(max value, argmax, multiplier) of :func:`sphere_max_quadratic` for a symmetric M.

    In M's eigenbasis, c = V^T b; the eigenvalues equal to the top one form
    its eigenspace, and each other one lies a gap g_i > 0 below it, however
    small: a pole of its own costs no accuracy, where merging it into the top
    one would.  The unknown is the offset mu = lam - lam_top >= 0, a root of
    w(mu) = 1 with w(mu) = sum_rest c_i^2 / (4 (mu + g_i)^2) + (|c_top| / (2 mu))^2,
    the last term left out when c_top = 0.  1/sqrt(w) - 1 is increasing and
    concave (Cauchy-Schwarz), so Newton's method on it rises to the root
    without overshooting from any mu below it.  It starts at the largest lower
    bound that one term gives, max(0, max_i(|c_i| / 2 - g_i)) with g_top = 0:
    there the largest term is 1, so w >= 1 unless mu = 0, and no term exceeds
    1, so w cannot overflow however close a pole lies to the top.  When c_top = 0 and
    w(0) <= 1 (the hard case) mu stays 0.  The argmax's top part, of length
    tau, lies along c_top (or the last top eigenvector when c_top = 0) and is
    what |x| = 1 leaves.  The value is the Lagrange dual
    lam + sum_i c_i^2 / (4 (lam - lam_i)), which is stationary in lam at the
    root and so keeps the digits that the objective at the argmax loses; its
    top term |c_top|^2 / (4 mu) is taken as |c_top| tau / 2, equal at the root
    and 0 in the hard case.
    """
    lam, V = np.linalg.eigh(M)
    c = V.T @ b
    top = lam == lam[-1]
    c_top = np.linalg.norm(c[top])
    gap = lam[-1] - lam[~top]
    # w(mu) = |y|^2 with y = half / (mu + poles); zero weights, the top one's 0/0, left out
    half = 0.5 * np.append(c[~top], c_top)
    keep = half != 0.0
    half, poles = half[keep], np.append(gap, 0.0)[keep]
    mu = float((np.abs(half) - poles).max(initial=0.0))
    # w' overflows only beside a pole closer than 1e-308, where the step it
    # would give is of that order, far below the scaled problem's roundoff
    with np.errstate(over="ignore"):
        while True:
            y = half / (mu + poles)
            w = y @ y
            if not w > 1.0:
                break
            step = w * (np.sqrt(w) - 1.0) / (y @ (y / (mu + poles)))
            if not mu + step > mu:
                break
            mu += step
    rest = 0.5 * c[~top] / (mu + gap)
    tau = np.sqrt(max(0.0, 1.0 - rest @ rest))
    along = c[top] / c_top if c_top > 0.0 else np.eye(top.sum())[-1]
    x = V[:, ~top] @ rest + V[:, top] @ (tau * along)
    x /= np.linalg.norm(x)   # V is orthogonal to roundoff
    value = lam[-1] + mu + 0.5 * (c[~top] @ rest) + 0.5 * c_top * tau
    return float(value), x, float(lam[-1] + mu)


def _positivity(H, d):
    """(positivity, details, SOS verdict) of c_H; positivity is verified, refuted or unverified."""
    verdict = _sos.sos_check(H, max_iter=20000)
    if verdict.status == _sos.FEASIBLE:
        return "verified", {"sos_status": verdict.status}, verdict
    screen = _sos.nonneg_check(H)
    if screen.negative:
        return "refuted", {"sos_status": verdict.status, "negative_value": screen.min_value,
                           "witness_x": screen.x, "witness_y": screen.y}, verdict
    if verdict.status == _sos.INFEASIBLE and d <= 4:
        # Below dimension five a nonnegative form is always a sum of squares,
        # so SOS infeasibility refutes positivity outright.
        return "refuted", {"sos_status": verdict.status, "sos_complete_dim": True}, verdict
    return "unverified", {"sos_status": verdict.status, "min_found": screen.min_value}, verdict


def _drift_check(model, tol, boundary=False):
    """The report, with its "pass", of a model's drift condition, where tr c_H(x) = x.C.x.

    Ball: max over the unit sphere of ``b.x + x.(B_sym + C/2).x`` <= tol S, with
    alpha added to the matrix for the ``boundary`` inequality.  Sphere: the
    identity B + B^T + C = 0, checked as ``residual`` = 2 max |B_sym + C/2| <= tol S.
    S is the sum of the largest entries of the terms, |B_sym| + |C|/2 + |b|
    (+ |alpha| for the boundary step): a sum of sizes, not the size of the sum,
    which the sphere identity cancels.  So scaling every coefficient by c > 0
    leaves the verdict alone.  ValueError naming the condition if its matrix
    or residual overflows, and from :func:`sphere_max_quadratic` if the ball's
    maximum does.
    """
    sphere = model.space == "sphere"
    condition = ("residual of the sphere drift identity B + B^T + C = 0" if sphere else
                 "matrix B_sym + alpha + C/2 of the boundary inequality" if boundary else
                 "matrix B_sym + C/2 of the drift inequality")
    with np.errstate(over="ignore", invalid="ignore"):
        S = _symmetric_part(model.B)
        half_C = 0.5 * trace_form(model.H, model.d)
        M = (S + model.alpha if boundary else S) + half_C
        value = 2.0 * float(np.abs(M).max()) if sphere else M
    if not np.all(np.isfinite(value)):
        raise ValueError(f"the {condition} exceeds the float range")
    terms = (S, half_C) if sphere else (S, half_C, model.b) + ((model.alpha,) if boundary else ())
    # Python floats add to inf without a warning; past the float range S is its top
    bound = tol * min(sum(float(np.abs(t).max(initial=0.0)) for t in terms), np.finfo(float).max)
    if sphere:
        return {"pass": value <= bound, "residual": value}
    quad = sphere_max_quadratic(M, model.b)
    return {"pass": quad.max_value <= bound, "max_value": quad.max_value, "argmax": quad.argmax}


class ModelRefused(ValueError):
    """A model that admission refuses to drive; ``report`` is what the CLI prints: the
    ``error`` with the failed ``drift`` check, or with the ``sos_status`` short of Feasible."""

    def __init__(self, report):
        super().__init__(report["error"])
        self.report = report


def validate(model, tol=None):
    """Admissibility of a ball or sphere model, and an admissible ball model's boundary step.

    c_H positive semidefinite is three-valued: verified by the SOS check, else
    refuted by the numerical screen or, at d <= 4, by SOS infeasibility, else
    unverified.  The drift checks are :func:`_drift_check`'s at tol (None: 1e-7
    for a ball model, 1e-9 for a sphere model), and a ball model's alpha is PSD
    by the simulators' rule (see ``simulate._alpha_psd``).  tol is relative to
    the size of the drift's terms.  ``boundary`` is InteriorInvariant iff the
    drift maximum with alpha added passes the same test.
    ValueError naming ``tol`` unless it is a positive finite number.
    """
    return _admission(model, tol)[0]


# The benchmark's two names for validate: bench/workloads.py is their only caller.
validate_ball = validate_sphere = validate

_DEFAULT_TOL = {"ball": 1e-7, "sphere": 1e-9}


def _admission(model, tol=None):
    """(ValidationReport, SOS verdict) of a model, tol None taking its space's default.

    The one body of validate: one SOS check, and an admissible ball model's boundary step.
    """
    tol = _DEFAULT_TOL[model.space] if tol is None else tol
    _check_number(tol, "tol")
    drift = _drift_check(model, tol)
    positivity, pos_details, verdict = _positivity(model.H, model.d)
    admissible = drift["pass"] and positivity != "refuted"
    if model.space == "sphere":
        checks = {"drift_identity": drift, "positivity": pos_details}
        return ValidationReport(bool(admissible), positivity, checks), verdict
    w = np.linalg.eigvalsh(_symmetric_part(model.alpha))
    checks = {"alpha": {"pass": _alpha_psd(w), "min_eig": float(w[0])},
              "positivity": pos_details, "drift": drift}
    report = ValidationReport(bool(admissible and checks["alpha"]["pass"]), positivity, checks)
    if report.admissible:
        quad = _drift_check(model, tol, boundary=True)
        status = "InteriorInvariant" if quad["pass"] else "MayAttainBoundary"
        report.boundary = AttainmentReport(status, float(quad["max_value"]), quad["argmax"])
    return report, verdict


def _simulator_drive(model, tol=None):
    """(SkewDrive, Bhat) that the simulators run for a model; Bhat None for a sphere model.

    Admitted by :func:`_admission` at tol.  The drive, A_0 = skew(B) and the
    SOS witness A_1..A_r, drops B_sym: a failed drift check or positivity
    short of "verified" raises :class:`ModelRefused`.  The rotation's Ito drift is
    (A_0 + 1/2 sum A_p^2) x, so a ball's Bhat = B_sym + 1/2 sum A_p^T A_p.  Admission
    bounds its eigenvalues by tol S (see :func:`_drift_check`), not 0: the positive
    ones are clipped to 0.
    """
    report, verdict = _admission(model, tol)
    drift = report.checks["drift_identity" if model.space == "sphere" else "drift"]
    if not drift["pass"]:
        raise ModelRefused({"error": f"the {model.space} model's drift fails validation",
                            "drift": drift})
    if report.positivity != "verified":
        raise ModelRefused({"error": "no sum-of-squares representation found",
                            "sos_status": verdict.status})
    drive = SkewDrive(0.5 * (model.B - model.B.T), np.array(verdict.factors))
    if model.space == "sphere":
        return drive, None
    Bhat = _symmetric_part(model.B) + 0.5 * sum(A.T @ A for A in drive.diffusion)
    w, V = np.linalg.eigh(Bhat)
    up = w > 0.0   # none: Bhat - 0 keeps its bits
    return drive, Bhat - (V[:, up] * w[up]) @ V[:, up].T


def ensemble(model, x0, T, h, seed, n_paths, sink=None, tol=None):
    """The ``EnsembleResult`` of a model, admitted once at tol by :func:`_simulator_drive`
    (:class:`ModelRefused` if it is not), from ``sphere_ensemble`` or ``ball_ensemble``
    on the admitted drive; the other arguments are theirs."""
    drive, Bhat = _simulator_drive(model, tol)
    if model.space == "sphere":
        return sphere_ensemble(drive, x0, T, h, seed, n_paths, sink)
    return ball_ensemble(model.b, Bhat, model.alpha, drive, x0, T, h, seed, n_paths, sink)


def twin_path_experiment(kappa, nu, d, x0, T, h, n_seeds, seed=0, eps=0.0):
    """Same-noise path pairs of ``BallModel.scalar(kappa, nu, d)``, admitted like every model.

    For each of ``n_seeds`` independent noise streams, simulates X from x0 on
    the sphere and X~ from (1 - eps) x0 with the identical stream and records
    the largest gap sup_t |X_t - X~_t| (0 for eps = 0, bitwise), with the
    pathwise-uniqueness condition kappa/nu^2 > sqrt(2)-1.  The drive and Bhat
    are :func:`ensemble`'s for the model, so path k of X is path k of its
    ensemble from x0 at ``seed``.  ``simulate._twin_gaps`` runs all pairs
    side by side in one block of 2 n_seeds rows, keeping only the running
    maxima; its two noise buffers hold about ``simulate._NOISE_VALUES``
    values each, or one step each if one step's noise of all the rows is
    larger.  ValueError naming d unless
    it is a positive integer, then for x0, then for kappa and nu.
    """
    _check_number(d, "d", integer=True)
    x0 = _start_point(x0, d, "sphere", _X0_TOL)
    scalar = BallModel.scalar(kappa, nu, d)
    drive, Bhat = _simulator_drive(scalar)
    gap, h_eff = _twin_gaps(drive, Bhat, scalar.alpha, x0, eps, T, h, n_seeds, seed)
    ratio, threshold = kappa / nu ** 2, np.sqrt(2.0) - 1.0
    return TwinPathReport(gap, eps, ratio, bool(ratio > threshold), threshold, T, h_eff)


def model_from_json(obj):
    """Load a BallModel or SphereModel from its JSON dict.

    ``space`` is "ball" (the default) or "sphere".  Raises ValueError naming
    the key if one is missing or malformed.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"model must be a JSON object, got {obj!r:.80}")
    space = obj.get("space", "ball")
    if space not in ("ball", "sphere"):
        raise ValueError(f'space must be "ball" or "sphere", got {space!r:.80}')
    keys = ("d", "H", "B") if space == "sphere" else ("d", "H", "B", "alpha")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ValueError(f"a {space} model needs the keys {', '.join(keys)}; "
                         f"missing {', '.join(missing)}")
    H, d = h_from_json(obj)
    if space == "sphere":
        return SphereModel(H=H, B=obj["B"])
    return BallModel(alpha=obj["alpha"], H=H, b=obj.get("b", np.zeros(d)), B=obj["B"])

"""Coefficient bundles for ball and sphere diffusions and their validators.

A ball model has diffusion ``a(x) = (1 - |x|^2) alpha + c_H(x)`` and drift
``b + B x``; a sphere model has ``a = c_H`` and drift ``B x`` subject to the
coefficient identity ``2 x^T B x + tr(c_H(x)) = 0``.  The admissibility and
boundary-attainment inequalities over the unit sphere are decided exactly by
a secular-equation maximizer, never by sampling.
"""

from dataclasses import dataclass, field

import numpy as np

from .cspace import _symmetric, _symmetric_part, c_H_eval, h_from_json, h_to_json, trace_form
from .skew import skew_dim
from . import sos as _sos

__all__ = [
    "BallModel",
    "SphereModel",
    "sphere_max_quadratic",
    "validate_ball",
    "validate_sphere",
    "boundary_attainment",
    "model_from_json",
]


def _coefficients(model, **shapes):
    """Store the named coefficients as float arrays of the given shapes.

    Raises ValueError unless each one has its shape and is finite.
    """
    for name, shape in shapes.items():
        value = np.asarray(getattr(model, name), dtype=float)
        if value.shape != shape:
            raise ValueError(f"{name} must have shape {shape} for d = {model.d}, "
                             f"got {value.shape}")
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")
        object.__setattr__(model, name, value)


def _alpha_psd(w):
    """Whether alpha, with ascending eigenvalues w, is PSD: w_min >= -1e-10 max(1, w_max)."""
    return bool(w[0] >= -1e-10 * max(1.0, w[-1]))


def _square_dim(A, name):
    """d of a (d, d) matrix A; ValueError if A is not two-dimensional."""
    if np.ndim(A) != 2:
        raise ValueError(f"{name} must be a (d, d) matrix, got shape {np.shape(A)}")
    return np.shape(A)[0]


@dataclass(frozen=True)
class BallModel:
    """Unit-ball diffusion coefficients (alpha, H, b, B).

    Raises ValueError unless alpha and B are finite (d, d), b finite (d,) and
    H finite (m, m), m = C(d, 2), and alpha is symmetric to roundoff.
    """

    alpha: np.ndarray
    H: np.ndarray
    b: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        d = _square_dim(self.alpha, "alpha")
        m = skew_dim(d)
        _coefficients(self, alpha=(d, d), H=(m, m), b=(d,), B=(d, d))
        _symmetric(self.alpha, "alpha must be symmetric")

    @property
    def d(self):
        return np.asarray(self.alpha).shape[0]

    @property
    def space(self):
        return "ball"


@dataclass(frozen=True)
class SphereModel:
    """Unit-sphere diffusion coefficients (H, B).

    Raises ValueError unless B is finite (d, d) and H finite (m, m), m = C(d, 2).
    """

    H: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        d = _square_dim(self.B, "B")
        m = skew_dim(d)
        _coefficients(self, H=(m, m), B=(d, d))

    @property
    def d(self):
        return np.asarray(self.B).shape[0]

    @property
    def space(self):
        return "sphere"


@dataclass
class SphereQuadReport:
    """Exact maximum of x^T M x + b^T x over the unit sphere."""

    max_value: float
    argmax: np.ndarray
    multiplier: float


@dataclass
class ValidationReport:
    admissible: bool
    positivity: str           # "verified" | "refuted" | "unverified"
    checks: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "admissible": bool(self.admissible),
            "positivity": self.positivity,
            "checks": _jsonable(self.checks),
        }


@dataclass
class AttainmentReport:
    status: str               # "InteriorInvariant" | "MayAttainBoundary"
    margin: float
    argmax: np.ndarray

    def to_json(self):
        return {
            "status": self.status,
            "margin": float(self.margin),
            "argmax": np.asarray(self.argmax).tolist(),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def a_eval(model, x):
    """Diffusion matrix a(x) of a ball or sphere model."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.d,):
        raise ValueError(f"x must have dimension {model.d}, got shape {x.shape}")
    c = c_H_eval(model.H, x)
    if model.space == "ball":
        return (1.0 - float(x @ x)) * model.alpha + c
    return c


def drift_eval(model, x):
    """Drift vector of a ball (b + Bx) or sphere (Bx) model."""
    x = np.asarray(x, dtype=float)
    if model.space == "ball":
        return model.b + model.B @ x
    return model.B @ x


def _bracketed_root(f, lo, hi, xtol, rtol):
    """A root of f in [lo, hi], where f(lo) >= 0 >= f(hi).

    Illinois false position: the secant point of the bracket, with the
    retained end's value halved when the same end is kept twice in a row.  A
    secant point that is not finite, or any step after two steps that did not
    halve the bracket, is replaced by the midpoint, and every point keeps
    half the tolerance away from both ends, so a bracket end that has reached
    the root is crossed at once.  Stops once the bracket is no wider than
    xtol + rtol |x| (the tolerance of scipy's brentq) and returns its
    midpoint, or the end where f is exactly 0.
    """
    flo, fhi = f(lo), f(hi)
    kept, widths = 0, [np.inf, np.inf]
    while flo != 0.0 and fhi != 0.0:
        tol = xtol + rtol * max(abs(lo), abs(hi))
        if hi - lo <= tol:
            break
        with np.errstate(invalid="ignore"):
            x = lo + (hi - lo) * (flo / (flo - fhi))
        if not np.isfinite(x) or hi - lo > 0.5 * widths[0]:
            x = 0.5 * (lo + hi)
        x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        widths = [widths[1], hi - lo]
        fx = f(x)
        if fx >= 0.0:
            lo, flo = x, fx
            fhi = 0.5 * fhi if kept == 1 else fhi
            kept = 1
        else:
            hi, fhi = x, fx
            flo = 0.5 * flo if kept == -1 else flo
            kept = -1
    return lo if flo == 0.0 else hi if fhi == 0.0 else 0.5 * (lo + hi)


def sphere_max_quadratic(M, b):
    """Global maximum of x^T M x + b^T x over the unit sphere, by secular equation.

    Eigendecomposes M and root-finds the Lagrange multiplier of
    ``2 M x + b = 2 lam x`` on the interval above the top eigenvalue, with the
    standard hard-case branch when b is orthogonal to the leading eigenspace.
    When an entry of M or b exceeds 2**500, so that a squared norm could
    overflow, (M, b) is first scaled by a power of two, which is exact; the
    value and the multiplier are scaled back and the argmax does not move.
    Raises ValueError unless M and b are finite.

    Returns
    -------
    SphereQuadReport
        max value, a unit argmax, and the multiplier; the stationarity
        residual ``|2 M x + b - 2 lam x|`` is at roundoff level.
    """
    M = np.asarray(M, dtype=float)
    b = np.asarray(b, dtype=float).reshape(M.shape[0])
    if not (np.all(np.isfinite(M)) and np.all(np.isfinite(b))):
        raise ValueError("M and b must be finite")
    M = _symmetric_part(M)
    big = max(np.abs(M).max(initial=0.0), np.abs(b).max(initial=0.0))
    shift = int(np.frexp(big)[1]) if big > 2.0 ** 500 else 0
    value, x, lam = _secular_max(np.ldexp(M, -shift), np.ldexp(b, -shift))
    return SphereQuadReport(float(np.ldexp(value, shift)), x, float(np.ldexp(lam, shift)))


def _secular_max(M, b):
    """(max value, argmax, multiplier) of :func:`sphere_max_quadratic` for a symmetric M."""
    d = M.shape[0]
    lam_all, V = np.linalg.eigh(M)
    lam_top = lam_all[-1]
    bt = V.T @ b
    bnorm = np.linalg.norm(b)

    def value(x):
        return float(x @ M @ x + b @ x)

    if bnorm == 0.0:
        x = V[:, -1]
        return value(x), x, lam_top

    scale = max(abs(lam_all).max(), bnorm, 1.0)
    top = np.abs(lam_all - lam_top) <= 1e-12 * scale
    b_top = np.linalg.norm(bt[top])

    def x_of(lam, skip_top=False):
        denom = 2.0 * (lam - lam_all)
        coeff = np.zeros(d)
        mask = ~top if skip_top else np.ones(d, dtype=bool)
        with np.errstate(divide="ignore"):
            coeff[mask] = bt[mask] / denom[mask]
        return V @ coeff, coeff

    hard = b_top <= 1e-13 * bnorm

    def secular(lam):
        # 1 - 1/|x(lam)| has the sign of |x(lam)|^2 - 1 and is nearly linear
        # in lam near its root, where false position converges fast.
        _, coeff = x_of(lam, skip_top=hard)
        if not np.all(np.isfinite(coeff)):
            return 1.0
        with np.errstate(divide="ignore"):
            return float(1.0 - 1.0 / np.sqrt(coeff @ coeff))

    if hard:
        # Hard case: b has no weight on the leading eigenspace.
        x_perp, coeff = x_of(lam_top, skip_top=True)
        nrm = np.linalg.norm(coeff)
        if nrm <= 1.0:
            tau = np.sqrt(max(0.0, 1.0 - nrm ** 2))
            vtop = V[:, np.nonzero(top)[0][0]]
            x = x_perp + tau * vtop
            return value(x), x, lam_top
        # |x(lam_top)| > 1: the secular root lies strictly above lam_top.
        lo = lam_top
    else:
        # |x(lam)| blows up at lam_top and decreases to 0.
        lo = max(lam_top + 0.5 * b_top * (1.0 - 1e-12), np.nextafter(lam_top, np.inf))
        while secular(lo) < 0.0:
            lo = max(lam_top + 0.5 * (lo - lam_top), np.nextafter(lam_top, np.inf))
            if lo == np.nextafter(lam_top, np.inf):
                break
    hi = lam_top + 0.5 * bnorm * (1.0 + 1e-12) + 1e-30
    while secular(hi) > 0.0:
        hi = lam_top + 2.0 * (hi - lam_top)
    lam = _bracketed_root(secular, lo, hi, xtol=1e-15 * max(1.0, abs(lam_top)), rtol=8.9e-16)
    x, _ = x_of(lam, skip_top=hard)
    x = x / np.linalg.norm(x)
    return value(x), x, lam


def _positivity(H, d):
    """Three-valued positivity of c_H: verified, refuted, or unverified."""
    verdict = _sos.sos_check(H, max_iter=20000)
    if verdict.status == _sos.FEASIBLE:
        return "verified", {"sos_status": verdict.status}
    screen = _sos.nonneg_check(H)
    if screen.negative:
        return "refuted", {
            "sos_status": verdict.status,
            "negative_value": screen.min_value,
            "witness_x": screen.x,
            "witness_y": screen.y,
        }
    if verdict.status == _sos.INFEASIBLE and d <= 4:
        # Below dimension five a nonnegative form is always a sum of squares,
        # so SOS infeasibility refutes positivity outright.
        return "refuted", {"sos_status": verdict.status, "sos_complete_dim": True}
    return "unverified", {"sos_status": verdict.status, "min_found": screen.min_value}


def _drift_check(model, tol, boundary=False):
    """(pass, details) of a model's drift condition, where tr c_H(x) = x.C.x.

    Ball: max over the unit sphere of ``b.x + x.(B_sym + C/2).x`` <= tol, with
    alpha added to the matrix for the ``boundary`` inequality.  Sphere: the
    identity B + B^T + C = 0, checked as ``residual`` = 2 max |B_sym + C/2|.
    ValueError naming the condition if its matrix or residual overflows.
    """
    sphere = model.space == "sphere"
    condition = ("residual of the sphere drift identity B + B^T + C = 0" if sphere else
                 "matrix B_sym + alpha + C/2 of the boundary inequality" if boundary else
                 "matrix B_sym + C/2 of the drift inequality")
    with np.errstate(over="ignore", invalid="ignore"):
        S = _symmetric_part(model.B)
        M = (S + model.alpha if boundary else S) + 0.5 * trace_form(model.H, model.d)
        value = 2.0 * float(np.abs(M).max()) if sphere else M
    if not np.all(np.isfinite(value)):
        raise ValueError(f"the {condition} exceeds the float range")
    if sphere:
        return value <= tol, {"pass": value <= tol, "residual": value}
    quad = sphere_max_quadratic(M, model.b)
    ok = quad.max_value <= tol
    return ok, {"pass": ok, "max_value": quad.max_value, "argmax": quad.argmax}


def validate_ball(model, tol=1e-7):
    """Check admissibility of a ball model.

    Conditions: alpha PSD by the simulators' floor (see ``_alpha_psd``); c_H
    positive semidefinite (three-valued, via the SOS check with a one-sided
    numerical screen as fallback); and the drift inequality max over the unit sphere of
    ``b.x + x.(B_sym + C/2).x`` nonpositive, where tr c_H(x) = x.C.x.
    ValueError naming the inequality if its matrix exceeds the float range.
    """
    d = model.d
    w = np.linalg.eigvalsh(_symmetric_part(model.alpha)) if d else np.zeros(1)
    alpha_ok = _alpha_psd(w)

    positivity, pos_details = _positivity(model.H, d)
    drift_ok, drift = _drift_check(model, tol)

    return ValidationReport(
        admissible=bool(alpha_ok and drift_ok and positivity != "refuted"),
        positivity=positivity,
        checks={
            "alpha": {"pass": alpha_ok, "min_eig": float(w[0])},
            "positivity": pos_details,
            "drift": drift,
        },
    )


def validate_sphere(model, tol=1e-9):
    """Check the sphere drift identity B + B^T + C = 0 and positivity of c_H.

    ``residual`` is twice the largest entry of B_sym + C/2, which does not
    overflow where B + B^T does; ValueError if it exceeds the float range."""
    identity_ok, identity = _drift_check(model, tol)
    positivity, pos_details = _positivity(model.H, model.d)
    return ValidationReport(
        admissible=bool(identity_ok and positivity != "refuted"),
        positivity=positivity,
        checks={
            "drift_identity": identity,
            "positivity": pos_details,
        },
    )


def boundary_attainment(model, tol=1e-7):
    """Decide whether the open ball is invariant for an admissible ball model.

    InteriorInvariant iff max over the unit sphere of
    ``b.x + x.(B + alpha)_sym.x + tr(c_H(x))/2`` is nonpositive.

    Raises ValueError if the model fails validation first.
    """
    report = validate_ball(model, tol)
    if not report.admissible:
        raise ValueError("model is not admissible; run validate_ball for details")
    return _attainment(model, tol)


def _attainment(model, tol):
    """The sphere-maximum step of :func:`boundary_attainment`, for a validated model."""
    ok, quad = _drift_check(model, tol, boundary=True)
    status = "InteriorInvariant" if ok else "MayAttainBoundary"
    return AttainmentReport(status, float(quad["max_value"]), quad["argmax"])


def model_to_json(model):
    """Serialize a model to the {"space", "d", "alpha", "H", "b", "B"} schema."""
    out = {"space": model.space, "d": int(model.d)}
    out.update(h_to_json(model.H, model.d))
    out["B"] = model.B.tolist()
    if model.space == "ball":
        out["alpha"] = model.alpha.tolist()
        out["b"] = model.b.tolist()
    return out


def model_from_json(obj):
    """Load a BallModel or SphereModel from its JSON dict."""
    space = obj.get("space", "ball")
    H, d = h_from_json(obj)
    B = np.asarray(obj["B"], dtype=float)
    if space == "sphere":
        return SphereModel(H=H, B=B)
    alpha = np.asarray(obj["alpha"], dtype=float)
    b = np.asarray(obj.get("b", np.zeros(d)), dtype=float)
    return BallModel(alpha=alpha, H=H, b=b, B=B)

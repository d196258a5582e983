"""Lie-bracket closure of skew drives and smooth-density criteria.

The bracket-generated subspace of a drive (A_0; A_1..A_m) starts from the
diffusion directions and closes under commutators with every drive matrix.
A model's drive is A_0 = skew(B) with the diffusion directions of its SOS
representation.  Smooth transition densities on the sphere exist iff A_0 x_0
lies in the closure applied to x_0; for the ball the test lifts to dimension
d + 1 with border generators built from a factorization of alpha.
"""

from dataclasses import dataclass

import numpy as np

from .generator import _start_point
from .model import _simulator_drive
from .simulate import SkewDrive, _alpha_eigh
from .skew import _check_number, skew_dim

__all__ = [
    "bracket",
    "g_ideal",
    "density_check",
    "lift_drive",
]

_DEFAULT_TOL = 1e-9   # of the membership test on either space


@dataclass(frozen=True)
class LieSubspace:
    """Subspace of skew matrices with an orthonormal basis under the trace inner product."""

    d: int
    basis: np.ndarray      # (dim, d, d)
    dim: int
    ideal_residual: float = 0.0


@dataclass
class DensityReport:
    has_smooth_density: bool
    dim_g: int
    dim_h: int
    a0x0_in_gx0: bool
    membership_residual: float
    dim_gx0: int
    dim_hx0: int
    full_rotation: bool    # dim g equals C(d, 2)


def bracket(A, B):
    """Matrix commutator AB - BA; skew whenever both arguments are."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return A @ B - B @ A


def _orthonormal_rows(rows, tol):
    """Orthonormal basis, rows shaped alike, of the span of a stack of rows of any shape.

    The rank counts the singular values above ``tol`` times the largest one.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.size == 0:
        return np.zeros((0, *rows.shape[1:]))
    _, s, Vt = np.linalg.svd(rows.reshape(len(rows), -1), full_matrices=False)
    rank = int(np.sum(s > tol * s[0]))
    return Vt[:rank].reshape(rank, *rows.shape[1:])


def _norm(a):
    """``np.linalg.norm(a)`` after an exact power-of-two prescale by the largest entry, so
    that no square underflows or overflows; the same bits wherever neither happens."""
    shift = int(np.frexp(np.abs(a).max(initial=0.0))[1])   # 0 for all zeros
    return float(np.ldexp(np.linalg.norm(np.ldexp(a, -shift)), shift))


def _project_residual(A, basis):
    """Frobenius distance from A to the span of an orthonormal matrix basis."""
    if basis.shape[0] == 0:
        return float(np.linalg.norm(A))
    coeffs = np.tensordot(basis, A, axes=2)
    return float(np.linalg.norm(A - np.tensordot(coeffs, basis, axes=1)))


def g_ideal(drive, tol=1e-10):
    """Bracket closure of the diffusion directions, and its extension by A_0.

    Starting from span{A_1..A_m}, repeatedly adjoins [B, A_p] for basis
    elements B and all p = 0..m until the rank stabilizes; terminates within
    C(d, 2) rounds since the dimension strictly grows.  Also returns the
    extension by A_0 and verifies the ideal property (brackets of the closure
    with every drive matrix stay inside the closure, up to tol, a positive
    finite number).  Nonzero A_p enter at unit Frobenius norm: no test depends on scale.
    """
    _check_number(tol, "tol")
    d = drive.d

    def unit(As):
        return np.array([A / n for A in As if (n := _norm(A))]).reshape(-1, d, d)

    a0, diffusion = unit([drive.a0]), unit(drive.diffusion)
    gens = np.concatenate([a0, diffusion])
    basis = _orthonormal_rows(diffusion, tol)
    changed = len(basis) > 0
    while changed:
        new = [bracket(B, A) for B in basis for A in gens]
        enlarged = _orthonormal_rows(np.concatenate([basis, new]), tol)
        changed = len(enlarged) != len(basis)
        basis = enlarged

    ideal_residual = 0.0
    for B in basis:
        for A in gens:
            ideal_residual = max(ideal_residual, _project_residual(bracket(B, A), basis))
    g = LieSubspace(d, basis, basis.shape[0], ideal_residual)

    h_basis = _orthonormal_rows(np.concatenate([basis, a0]), tol)
    h = LieSubspace(d, h_basis, h_basis.shape[0])
    if ideal_residual > tol:
        raise ArithmeticError(
            f"bracket closure failed the ideal property (residual {ideal_residual:.3e})"
        )
    return g, h


def _density_report(drive, x0, tol, ball):
    """DensityReport of a sphere drive at a unit x0: is A_0 x_0 in the closure applied to x_0?

    That membership decides, unless ``ball`` says the drive is a ball drive
    lifted to the sphere; then the closure being all of Skew(d) decides.
    ``tol`` None takes ``_DEFAULT_TOL``; ValueError unless it is then a
    positive finite number.
    """
    tol = _DEFAULT_TOL if tol is None else tol
    _check_number(tol, "tol")
    g, h = g_ideal(drive, max(tol, 1e-12))
    a0x0 = drive.a0 @ x0
    size = _norm(a0x0)
    gx0 = g.basis @ x0
    if size == 0.0:
        member, resid = True, 0.0
    elif g.dim == 0:
        member, resid = False, size
    else:
        coeffs, _, _, _ = np.linalg.lstsq(gx0.T, a0x0, rcond=None)
        resid = _norm(gx0.T @ coeffs - a0x0)
        member = resid <= tol * size
    full = g.dim == skew_dim(drive.d)
    return DensityReport(
        has_smooth_density=full if ball else member,
        dim_g=g.dim,
        dim_h=h.dim,
        a0x0_in_gx0=member,
        membership_residual=resid,
        dim_gx0=len(_orthonormal_rows(gx0, 1e-10)),
        dim_hx0=len(_orthonormal_rows(h.basis @ x0, 1e-10)),
        full_rotation=full,
    )


def density_check(model, x0, tol=None):
    """Smooth-density criterion of a ball or sphere model at x0, in its state space.

    The model is admitted once, as ``model.validate`` admits it at ``tol``, or
    ``model.ModelRefused`` is raised; its drive is A_0 = skew(B) with the
    diffusion directions of its SOS witness.  ``tol`` None takes the model's
    drift default at admission and 1e-9 for the membership test.
    """
    drive, _ = _simulator_drive(model, tol)
    if model.space == "sphere":
        return _density_check_sphere(drive, x0, tol)
    return _density_check_ball(drive, model.alpha, x0, tol)


def _density_check_sphere(drive, x0, tol=None):
    """Sphere: is A_0 x_0 in the closure applied to x_0, span{B x_0} over its basis?

    Tested by least-squares projection, with ``tol`` relative to |A_0 x_0|, a positive
    finite number (None: 1e-9).  x0 must be d finite numbers with |x0| = 1 to 1e-9.
    """
    return _density_report(drive, _start_point(x0, drive.d, "sphere", 1e-9), tol, ball=False)


def lift_drive(drive, alpha):
    """Embed a ball drive into dimension d + 1 with border generators from alpha.

    Each drive matrix becomes its block-diagonal extension, and every factor
    a_i of alpha = sum a_i a_i^T (eigenvectors scaled by root eigenvalues,
    eigenvalues up to 1e-12 times the largest dropped) contributes a generator
    rotating into the extra coordinate.  alpha must be a finite, symmetric,
    positive semidefinite d x d matrix.
    """
    d, m = drive.d, drive.n_diffusion
    w, V = _alpha_eigh(alpha, d)
    keep = w > 1e-12 * w[-1]
    factors = (V[:, keep] * np.sqrt(w[keep])).T
    lifted = np.zeros((1 + m + len(factors), d + 1, d + 1))   # A_0, the A_p, the borders
    lifted[:1 + m, :d, :d] = np.concatenate([drive.a0[None], drive.diffusion])
    lifted[1 + m:, :d, d] = factors
    lifted[1 + m:, d, :d] = -factors
    return SkewDrive(lifted[0], lifted[1:])


def _density_check_ball(drive, alpha, x0, tol=None):
    """Ball: is the closure of the drive lifted to dimension d + 1 all of Skew(d + 1)?

    x0 must be d finite numbers with |x0| <= 1 + 1e-9, and ``tol`` a positive finite
    number (None: 1e-9)."""
    x0 = _start_point(x0, drive.d, "ball", 1e-9)
    lifted = lift_drive(drive, alpha)
    z0 = np.concatenate([x0, [np.sqrt(max(0.0, 1.0 - float(x0 @ x0)))]])
    return _density_report(lifted, z0 / np.linalg.norm(z0), tol, ball=True)

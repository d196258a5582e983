"""Lie-bracket closure of skew drives and smooth-density criteria.

The bracket-generated subspace of a drive (A_0; A_1..A_m) starts from the
diffusion directions and closes under commutators with every drive matrix.
Smooth transition densities on the sphere exist iff A_0 x_0 lies in the
closure applied to x_0; for the ball the test lifts to dimension d + 1 with
border generators built from a factorization of alpha.
"""

from dataclasses import dataclass

import numpy as np

from .generator import _start_point
from .simulate import SkewDrive, _alpha_eigh
from .skew import _check_number, skew_dim

__all__ = [
    "bracket",
    "g_ideal",
    "density_check_sphere",
    "density_check_ball",
    "lift_drive",
]

_DEFAULT_TOL = 1e-9   # of the membership test in both density checks


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
        return np.array([A / n for A in As if (n := np.linalg.norm(A))]).reshape(-1, d, d)

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
    gx0 = g.basis @ x0
    if np.linalg.norm(a0x0) == 0.0:
        member, resid = True, 0.0
    elif g.dim == 0:
        member, resid = False, float(np.linalg.norm(a0x0))
    else:
        coeffs, _, _, _ = np.linalg.lstsq(gx0.T, a0x0, rcond=None)
        resid = float(np.linalg.norm(gx0.T @ coeffs - a0x0))
        member = resid <= tol * np.linalg.norm(a0x0)
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


def density_check_sphere(drive, x0, tol=None):
    """Smooth-density criterion on the sphere: is A_0 x_0 in the closure applied to x_0?

    Membership is tested by least-squares projection of A_0 x_0 onto
    span{B x_0} over the closure basis, with tolerance ``tol`` relative to |A_0 x_0|, a
    positive finite number (None: 1e-9).  x0 must be d finite numbers with |x0| = 1 to 1e-9.
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
    d = drive.d
    w, V = _alpha_eigh(alpha, d)
    factors = [np.sqrt(wi) * V[:, i] for i, wi in enumerate(w) if wi > 1e-12 * w[-1]]

    def embed(A):
        out = np.zeros((d + 1, d + 1))
        out[:d, :d] = A
        return out

    def border(a):
        out = np.zeros((d + 1, d + 1))
        out[:d, d] = a
        out[d, :d] = -a
        return out

    diffusion = [embed(A) for A in drive.diffusion] + [border(a) for a in factors]
    return SkewDrive(embed(drive.a0), np.array(diffusion))


def density_check_ball(drive, alpha, x0, tol=None):
    """Smooth-density criterion for the mean-reverting ball dynamics.

    Lifts the drive to the sphere in dimension d + 1 and reports a smooth
    interior density iff the lifted closure is all of Skew(d + 1).  x0 must be
    d finite numbers with |x0| <= 1 + 1e-9, and ``tol`` a positive finite
    number (None: 1e-9).
    """
    x0 = _start_point(x0, drive.d, "ball", 1e-9)
    lifted = lift_drive(drive, alpha)
    z0 = np.concatenate([x0, [np.sqrt(max(0.0, 1.0 - float(x0 @ x0)))]])
    nz = np.linalg.norm(z0)
    z0 = z0 / nz if nz > 0 else z0
    return _density_report(lifted, z0, tol, ball=True)

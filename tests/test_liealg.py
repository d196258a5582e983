import numpy as np
import pytest

from quadricdiff.liealg import (
    bracket,
    _density_check_ball,
    _density_check_sphere,
    g_ideal,
    lift_drive,
)
from quadricdiff.simulate import SkewDrive
from quadricdiff.skew import skew_dim

from refs import elementary_skew

rng = np.random.default_rng(808)


def block_example():
    # commuting pair: a rotation in the (1,2) plane and one in the (3,4) plane
    A0 = np.zeros((4, 4))
    A0[0, 1], A0[1, 0] = 1.0, -1.0
    A1 = np.zeros((4, 4))
    A1[2, 3], A1[3, 2] = 1.0, -1.0
    return A0, A1


def test_bracket_basics():
    A = elementary_skew(1, 3)
    assert np.array_equal(bracket(A, A), np.zeros((3, 3)))
    S12, S13, S23 = (elementary_skew(p, 3) for p in (1, 2, 3))
    got = bracket(S12, S23)
    assert np.array_equal(got, S12 @ S23 - S23 @ S12)
    assert np.array_equal(got, S13)  # e1 e3^T - e3 e1^T, entrywise
    with pytest.raises(ValueError):
        bracket(np.zeros((2, 2)), np.zeros((3, 3)))


def test_bracket_commuting_blocks():
    A0, A1 = block_example()
    assert np.abs(bracket(A0, A1)).max() == 0.0


def test_closure_elementary_drive_fills_skew():
    for d in (3, 4, 5, 6):
        g, h = g_ideal(SkewDrive.elementary(d))
        assert g.dim == skew_dim(d)
        assert h.dim == skew_dim(d)
        assert g.ideal_residual <= 1e-10


def test_closure_block_example_dims():
    A0, A1 = block_example()
    g, h = g_ideal(SkewDrive(A0, A1[None]))
    assert (g.dim, h.dim) == (1, 2)


def test_closure_empty_diffusion():
    A0, _ = block_example()
    g, h = g_ideal(SkewDrive(A0, np.zeros((0, 4, 4))))
    assert g.dim == 0 and h.dim == 1


def test_closure_terminates_and_is_monotone():
    for _ in range(10):
        d = 5
        As = rng.standard_normal((2, d, d))
        As = As - As.transpose(0, 2, 1)
        A0 = rng.standard_normal((d, d))
        g, h = g_ideal(SkewDrive(A0 - A0.T, As))
        assert 0 < g.dim <= skew_dim(d)
        assert g.dim <= h.dim <= g.dim + 1


def test_density_sphere_full_rotation():
    for d in (3, 4, 5, 6):
        x0 = np.zeros(d)
        x0[0] = 1.0
        rep = _density_check_sphere(SkewDrive.elementary(d), x0)
        assert rep.has_smooth_density and rep.full_rotation
        assert rep.dim_g == skew_dim(d)


def test_density_sphere_block_example():
    A0, A1 = block_example()
    drive = SkewDrive(A0, A1[None])
    generic = np.array([0.5, 0.5, 0.5, 0.5])
    rep = _density_check_sphere(drive, generic)
    assert not rep.has_smooth_density
    assert (rep.dim_g, rep.dim_h) == (1, 2)
    # starting point in the kernel of the drift rotation: A0 x0 = 0
    rep = _density_check_sphere(drive, np.array([0.0, 0.0, 1.0, 0.0]))
    assert rep.has_smooth_density and rep.a0x0_in_gx0


def test_density_sphere_rejects_off_sphere():
    with pytest.raises(ValueError):
        _density_check_sphere(SkewDrive.elementary(3), np.array([0.5, 0, 0]))


def test_density_checks_reject_a_bad_x0():
    drive = SkewDrive.elementary(3)
    bad = ([np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [1.0, 0.0], [1.0, 0.0, 0.0, 0.0],
           [[1.0, 0.0, 0.0]])
    for x0 in bad + ([5.0, 0.0, 0.0], [1.0 + 1e-6, 0.0, 0.0]):
        with pytest.raises(ValueError):
            _density_check_ball(drive, np.eye(3), x0)
        with pytest.raises(ValueError):
            _density_check_sphere(drive, x0)
    with pytest.raises(ValueError):
        _density_check_sphere(drive, [1.0 - 1e-6, 0.0, 0.0])
    # the closed ball is the ball's state space, the boundary included
    for x0 in ([0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [1.0, 0.0, 0.0]):
        assert _density_check_ball(drive, np.eye(3), x0).has_smooth_density
    # a tolerance is a positive finite number
    x0 = [1.0, 0.0, 0.0]
    for tol in (-1.0, 0.0, np.nan, np.inf):
        for check in (lambda: _density_check_sphere(drive, x0, tol),
                      lambda: _density_check_ball(drive, np.eye(3), x0, tol),
                      lambda: g_ideal(drive, tol)):
            with pytest.raises(ValueError, match="^tol must be a positive finite number"):
                check()


def test_density_invariant_under_orthogonal_conjugation():
    for _ in range(15):
        d = 4
        As = rng.standard_normal((2, d, d))
        As = As - As.transpose(0, 2, 1)
        A0 = rng.standard_normal((d, d))
        A0 = A0 - A0.T
        drive = SkewDrive(A0, As)
        x0 = rng.standard_normal(d)
        x0 /= np.linalg.norm(x0)
        r1 = _density_check_sphere(drive, x0)
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        conj = SkewDrive(Q @ A0 @ Q.T, np.einsum("ij,pjk,lk->pil", Q, As, Q))
        r2 = _density_check_sphere(conj, Q @ x0)
        assert r1.has_smooth_density == r2.has_smooth_density
        assert (r1.dim_g, r1.dim_h) == (r2.dim_g, r2.dim_h)


def test_lift_drive_shapes():
    drive = SkewDrive.elementary(2)
    lifted = lift_drive(drive, np.eye(2))
    assert lifted.d == 3
    assert lifted.n_diffusion == drive.n_diffusion + 2
    # degenerate alpha contributes only its range
    lifted = lift_drive(drive, np.diag([1.0, 0.0]))
    assert lifted.n_diffusion == drive.n_diffusion + 1


def test_density_ball_isotropic_alpha_fills():
    rep = _density_check_ball(SkewDrive.zero(2), np.eye(2), np.array([1.0, 0.0]))
    assert rep.has_smooth_density and rep.dim_g == skew_dim(3)


def test_density_ball_degenerate_alpha_blocked():
    # without radial noise the lift never reaches the extra coordinate
    rep = _density_check_ball(SkewDrive.elementary(2), np.zeros((2, 2)),
                             np.array([1.0, 0.0]))
    assert not rep.has_smooth_density
    assert rep.dim_g == skew_dim(2)


def test_density_ball_block_example_embedded():
    A0, A1 = block_example()
    rep = _density_check_ball(SkewDrive(A0, A1[None]), np.zeros((4, 4)),
                             np.array([0.0, 0.0, 1.0, 0.0]))
    assert not rep.has_smooth_density


def test_density_ball_reports_lifted_h_and_residual():
    # rotation drift in the (1,2) plane, radial noise only along e3: the lifted
    # closure is span{E34}, and A_0 adds the commuting E12 to h alone
    drive = SkewDrive(elementary_skew(1, 3), np.zeros((0, 3, 3)))
    x0 = np.array([0.3, 0.4, 0.5])
    rep = _density_check_ball(drive, np.diag([0.0, 0.0, 1.0]), x0)
    assert (rep.dim_g, rep.dim_h) == (1, 2)
    assert (rep.dim_gx0, rep.dim_hx0) == (1, 2)
    z0 = np.append(x0, np.sqrt(1.0 - x0 @ x0))
    assert rep.membership_residual == pytest.approx(np.hypot(z0[0], z0[1]), rel=1e-12)
    assert not rep.a0x0_in_gx0 and not rep.has_smooth_density


def test_orthonormal_rows_counts_the_rank_span_dim_counted():
    from quadricdiff.liealg import _orthonormal_rows

    def span_dim(vectors, tol):
        # the rank count of the former second copy, kept as the reference
        if len(vectors) == 0:
            return 0
        s = np.linalg.svd(np.asarray(vectors), compute_uv=False)
        if len(s) == 0 or s[0] == 0.0:
            return 0
        return int(np.sum(s > tol * s[0]))

    gen = np.random.default_rng(2024)
    for _ in range(300):
        n, k = gen.integers(1, 10, size=2)
        r = gen.integers(0, min(n, k) + 1)
        rows = gen.standard_normal((n, r)) @ gen.standard_normal((r, k))
        rows *= 10.0 ** gen.integers(-6, 7)
        basis = _orthonormal_rows(rows, 1e-10)
        assert len(basis) == span_dim(rows, 1e-10) == r
        assert np.allclose(basis @ basis.T, np.eye(r), atol=1e-12)
        # a stack of matrices keeps its shape: the rank of the flattened rows
        stack = _orthonormal_rows(rows.reshape(n, k, 1) * np.ones(2), 1e-10)
        assert stack.shape == (r, k, 2)
    assert _orthonormal_rows(np.zeros((0, 3)), 1e-10).shape == (0, 3)
    assert _orthonormal_rows(np.zeros((2, 3, 3)), 1e-10).shape == (0, 3, 3)

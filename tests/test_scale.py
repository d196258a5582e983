"""Time change: scaling every coefficient by c = 2^k runs the same diffusion at speed c.

SOS feasibility of c H, the positive semidefiniteness of alpha, the symmetry and
skewness of the inputs and the bracket closure that decides smooth densities do
not depend on c, so no verdict may.  Drives scale by c (A_0) and sqrt(c) (A_p).
"""

import numpy as np
import pytest

from quadricdiff.cspace import h_from_c
from quadricdiff.liealg import _density_check_ball, _density_check_sphere, lift_drive
from quadricdiff.model import BallModel, SphereModel, _simulator_drive, validate
from quadricdiff.simulate import SkewDrive, _ball_args
from quadricdiff.skew import skew_dim
from quadricdiff.sos import sos_check

from refs import elementary_skew

KS = (-60, -40, -20, 0, 20, 40)


def _instances():
    # GG^T (feasible), -GG^T (infeasible) and sym(G) at d = 3, 4 and 6
    rng = np.random.default_rng(5)
    out = []
    for i in range(30):
        m = skew_dim((3, 4, 6)[i % 3])
        G = rng.standard_normal((m, m))
        out.append((G @ G.T, -G @ G.T, 0.5 * (G + G.T))[i // 3 % 3])
    return out


INSTANCES = _instances()
AT_ONE = [sos_check(H) for H in INSTANCES]


@pytest.mark.parametrize("k", KS)
def test_sos_check_feasible_only_if_feasible_at_scale_one(k):
    assert {v.status for v in AT_ONE} >= {"Feasible", "Infeasible"}
    for i, (H, one) in enumerate(zip(INSTANCES, AT_ONE)):
        v = sos_check(np.ldexp(H, k))
        if one.status == "Feasible":
            assert (v.status, len(v.factors)) == ("Feasible", len(one.factors)), (i, k)
        else:
            assert v.status != "Feasible", (i, k, one.status)


@pytest.mark.parametrize("k", KS)
def test_slowed_sphere_brownian_motion_keeps_its_noise(k):
    c = 2.0 ** k
    mdl = SphereModel(H=c * np.eye(3), B=-c * np.eye(3))
    drive, _ = _simulator_drive(mdl)   # a refused model raises
    assert drive.n_diffusion == 3


# Below about 2^-512 the squares of A_0's entries leave the normal range, and below
# about 2^-537 they are 0: every norm is taken after a power-of-two prescale.
@pytest.mark.parametrize("k", KS + (-520, -540, -600))
def test_density_verdicts_do_not_depend_on_speed(k):
    c = 2.0 ** k
    # commuting blocks: A_0 x_0 leaves the closure at a generic point
    A0 = c * elementary_skew(1, 4)
    A1 = np.sqrt(c) * elementary_skew(6, 4)
    rep = _density_check_sphere(SkewDrive(A0, A1[None]), np.full(4, 0.5))
    assert not rep.has_smooth_density and (rep.dim_g, rep.dim_h) == (1, 2)
    # a rotation drift and radial noise along e3 only, lifted to the sphere
    drive = SkewDrive(c * elementary_skew(1, 3), np.zeros((0, 3, 3)))
    rep = _density_check_ball(drive, c * np.diag([0.0, 0.0, 1.0]), [0.3, 0.4, 0.5])
    assert (rep.dim_g, rep.dim_h, rep.dim_gx0, rep.dim_hx0) == (1, 2, 1, 2)
    assert not rep.has_smooth_density


@pytest.mark.parametrize("k", KS)
def test_drift_verdicts_do_not_depend_on_speed(k):
    c = 2.0 ** k
    # drift pointing outward everywhere, maximum 1.5 c over the sphere: refused
    outward = validate(BallModel(alpha=c * np.eye(2), H=[[c]], b=np.zeros(2), B=c * np.eye(2)))
    assert not outward.checks["drift"]["pass"] and not outward.admissible
    # maximum 5e-8 c against terms of size c: admitted, and the boundary may be reached
    edge = validate(BallModel(alpha=c * np.eye(2), H=[[c]], b=np.zeros(2),
                              B=-0.49999995 * c * np.eye(2)))
    assert edge.admissible and edge.boundary.status == "MayAttainBoundary"
    # a sphere drift identity missed by 2e-3 c, against terms of size about c
    skewed = validate(SphereModel(H=c * np.eye(3), B=-0.999 * c * np.eye(3)))
    assert not skewed.checks["drift_identity"]["pass"] and not skewed.admissible


@pytest.mark.parametrize("k", KS)
def test_bad_inputs_are_refused_at_every_scale(k):
    c = 2.0 ** k
    with pytest.raises(ValueError, match="skew"):
        SkewDrive(c * np.eye(3), [])
    alpha = c * np.diag([1.0, -1e-6])
    with pytest.raises(ValueError, match="not positive semidefinite"):
        lift_drive(SkewDrive.zero(2), alpha)
    report = validate(BallModel(alpha=alpha, H=np.zeros((1, 1)), b=np.zeros(2),
                                     B=-np.eye(2)))
    assert not report.checks["alpha"]["pass"] and not report.admissible
    with pytest.raises(ValueError, match="symmetric"):
        BallModel(alpha=c * np.array([[1.0, 0.0], [0.05, 1.0]]), H=np.zeros((1, 1)),
                  b=np.zeros(2), B=-np.eye(2))


def test_zero_inputs_pass_every_relative_test():
    for d in (3, 4, 6):
        m = skew_dim(d)
        v = sos_check(np.zeros((m, m)))
        assert v.status == "Feasible" and v.factors == []
        assert np.array_equal(h_from_c(np.zeros((d,) * 4)), np.zeros((m, m)))
    zero = np.zeros((2, 2))
    report = validate(BallModel(alpha=zero, H=np.zeros((1, 1)), b=np.zeros(2), B=zero))
    assert report.checks["alpha"]["pass"]
    assert lift_drive(SkewDrive.zero(2), zero).n_diffusion == 0
    bhat, Bhat, sqa, _ = _ball_args(np.zeros(2), zero, zero, SkewDrive.zero(2), np.zeros(2))
    assert not (bhat.any() or Bhat.any() or sqa.any())
    drive = SkewDrive(np.zeros((3, 3)), np.zeros((2, 3, 3)))
    rep = _density_check_sphere(drive, [1.0, 0.0, 0.0])
    assert rep.dim_g == 0 and rep.has_smooth_density   # A_0 x_0 = 0 is in the closure

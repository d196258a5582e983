import json

import numpy as np
import pytest

from quadricdiff.cspace import trace_form
from quadricdiff.model import (
    BallModel,
    SphereModel,
    model_from_json,
    sphere_max_quadratic,
    validate,
)
from quadricdiff.skew import skew_dim

from refs import a_eval, drift_eval, model_to_json

rng = np.random.default_rng(55)


def sphere_bm(d):
    return SphereModel(H=np.eye(skew_dim(d)), B=-0.5 * (d - 1) * np.eye(d))


def test_a_eval_ball_center_and_boundary():
    d = 3
    alpha = np.diag([1.0, 2.0, 3.0])
    mdl = BallModel(alpha=alpha, H=np.eye(3), b=np.zeros(3), B=np.zeros((3, 3)))
    assert np.allclose(a_eval(mdl, np.zeros(3)), alpha)
    x = np.array([1.0, 0.0, 0.0])
    # radial part vanishes on the sphere
    assert np.allclose(a_eval(mdl, x), np.eye(3) - np.outer(x, x), atol=1e-13)


def test_a_eval_sphere_projection():
    mdl = sphere_bm(3)
    x = np.array([1.0, 0.0, 0.0])
    assert np.allclose(a_eval(mdl, x), np.eye(3) - np.outer(x, x), atol=1e-13)
    assert np.allclose(drift_eval(mdl, x), -x)


def test_sphere_max_quadratic_rayleigh():
    r = sphere_max_quadratic(np.diag([1.0, 2.0, 3.0]), np.zeros(3))
    assert r.max_value == pytest.approx(3.0, abs=1e-12)
    assert abs(r.argmax[2]) == pytest.approx(1.0, abs=1e-10)
    assert r.multiplier == pytest.approx(3.0, abs=1e-10)


def test_sphere_max_quadratic_linear():
    r = sphere_max_quadratic(np.zeros((3, 3)), np.array([1.0, 0.0, 0.0]))
    assert r.max_value == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(r.argmax, [1.0, 0.0, 0.0], atol=1e-10)


def test_sphere_max_quadratic_hard_case_adjacent_grid_oracle():
    M = np.diag([2.0, 1.0])
    b = np.array([0.0, 1.0])
    r = sphere_max_quadratic(M, b)
    th = np.linspace(0.0, 2 * np.pi, 1_000_001)
    vals = 2 * np.cos(th) ** 2 + np.sin(th) ** 2 + np.sin(th)
    assert r.max_value == pytest.approx(vals.max(), abs=1e-9)


def test_sphere_max_quadratic_true_hard_case():
    # b orthogonal to the leading eigenspace, small enough to stay interior
    M = np.diag([2.0, 1.0])
    b = np.array([0.0, 0.2])
    r = sphere_max_quadratic(M, b)
    th = np.linspace(0.0, 2 * np.pi, 1_000_001)
    vals = 2 * np.cos(th) ** 2 + np.sin(th) ** 2 + 0.2 * np.sin(th)
    assert r.max_value == pytest.approx(vals.max(), abs=1e-9)
    assert r.multiplier == pytest.approx(2.0, abs=1e-9)


def test_sphere_max_quadratic_stationarity_property():
    for _ in range(200):
        d = int(rng.choice([1, 2, 3, 5, 6]))
        M = rng.standard_normal((d, d))
        M = 0.5 * (M + M.T)
        b = rng.standard_normal(d) * float(rng.choice([0.0, 1e-12, 1e-6, 1.0, 20.0]))
        r = sphere_max_quadratic(M, b)
        assert np.linalg.norm(r.argmax) == pytest.approx(1.0, abs=1e-12)
        resid = np.linalg.norm(2 * M @ r.argmax + b - 2 * r.multiplier * r.argmax)
        assert resid <= 1e-8 * max(1.0, np.linalg.norm(M), np.linalg.norm(b))
        xs = rng.standard_normal((500, d))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        sampled = (np.einsum("ki,ij,kj->k", xs, M, xs) + xs @ b).max()
        assert r.max_value >= sampled - 1e-9


def test_sphere_max_quadratic_grid_oracle_d2_d3():
    n_grid = 200_000
    idx = np.arange(n_grid) + 0.5
    phi = np.arccos(1 - 2 * idx / n_grid)
    ang = np.pi * (1 + 5 ** 0.5) * idx
    fib = np.stack([np.cos(ang) * np.sin(phi), np.sin(ang) * np.sin(phi), np.cos(phi)], 1)
    th = np.linspace(0.0, 2 * np.pi, 400_001)
    circ = np.stack([np.cos(th), np.sin(th)], 1)
    for _ in range(100):
        d = int(rng.choice([2, 3]))
        M = rng.standard_normal((d, d))
        M = 0.5 * (M + M.T)
        b = rng.standard_normal(d)
        r = sphere_max_quadratic(M, b)
        xs = circ if d == 2 else fib
        k = (np.einsum("ki,ij,kj->k", xs, M, xs) + xs @ b).argmax()
        x = xs[k]
        for _ in range(300):
            g = 2 * M @ x + b
            g -= (g @ x) * x
            x = x + 0.05 * g
            x /= np.linalg.norm(x)
        polished = float(x @ M @ x + b @ x)
        assert r.max_value >= polished - 1e-7
        assert r.max_value <= polished + 1e-7 * max(1.0, abs(polished))


def test_validate_ball_jacobi():
    # the two endpoint inequalities b + B <= 0 and -b + B <= 0
    ok = BallModel(alpha=[[0.64]], H=np.zeros((0, 0)), b=[0.2], B=[[-1.0]])
    rep = validate(ok)
    assert rep.admissible
    bad = BallModel(alpha=[[0.64]], H=np.zeros((0, 0)), b=[1.2], B=[[-1.0]])
    assert not validate(bad).admissible


def test_validate_ball_isotropic_threshold():
    # oracle: trace of c_Id is (d-1)|x|^2, so the drift condition is
    # -lam + (d-1)/2 <= 0 on the unit sphere
    for d in (2, 3, 4):
        lam = 0.5 * (d - 1)
        m = skew_dim(d)
        good = BallModel(alpha=np.eye(d), H=np.eye(m), b=np.zeros(d), B=-lam * np.eye(d))
        rep = validate(good)
        assert rep.admissible and rep.positivity == "verified"
        C = trace_form(np.eye(m), d)
        assert np.allclose(C, (d - 1) * np.eye(d), atol=1e-12)
        bad = BallModel(alpha=np.eye(d), H=np.eye(m), b=np.zeros(d),
                        B=-(lam - 0.2) * np.eye(d))
        assert not validate(bad).admissible


def test_validate_ball_drift_violation_margin():
    mdl = BallModel(alpha=np.eye(3), H=np.zeros((3, 3)), b=np.array([2.0, 0, 0]),
                    B=np.zeros((3, 3)))
    rep = validate(mdl)
    assert not rep.admissible
    assert rep.checks["drift"]["max_value"] == pytest.approx(2.0, abs=1e-9)


def test_validate_sphere_cases():
    assert validate(sphere_bm(3)).admissible
    skew = np.array([[0.0, 1.0, 0], [-1.0, 0, 0], [0, 0, 0]])
    assert validate(SphereModel(H=np.zeros((3, 3)), B=skew)).admissible
    bad = SphereModel(H=np.zeros((3, 3)), B=np.eye(3))
    assert not validate(bad).admissible


def test_boundary_attainment_scalar_dichotomy():
    for kap, expect in ((2.0, "InteriorInvariant"), (0.2, "MayAttainBoundary")):
        mdl = BallModel(alpha=np.eye(2), H=np.zeros((1, 1)), b=np.zeros(2),
                        B=-kap * np.eye(2))
        assert validate(mdl).boundary.status == expect


def test_boundary_attainment_jacobi_margin():
    s2 = 0.8
    mdl = BallModel(alpha=[[s2]], H=np.zeros((0, 0)), b=[0.0], B=[[-s2 / 2]])
    rep = validate(mdl).boundary
    assert rep.status == "MayAttainBoundary"
    assert rep.margin == pytest.approx(s2 / 2, abs=1e-9)


def test_boundary_attainment_strong_reversion():
    for d in (2, 3, 6):
        mdl = BallModel(alpha=np.eye(d), H=np.eye(skew_dim(d)), b=np.zeros(d),
                        B=-10.0 * np.eye(d))
        assert validate(mdl).boundary.status == "InteriorInvariant"


def test_boundary_attainment_requires_admissibility():
    bad = BallModel(alpha=np.eye(3), H=np.zeros((3, 3)), b=np.array([2.0, 0, 0]),
                    B=np.zeros((3, 3)))
    rep = validate(bad)
    assert not rep.admissible and rep.boundary is None
    assert validate(sphere_bm(3)).boundary is None


# The models of the boundary tests above, with the tolerance each is validated at.
BOUNDARY_MODELS = (
    [(BallModel(alpha=np.eye(2), H=np.zeros((1, 1)), b=np.zeros(2), B=-kap * np.eye(2)), 1e-7)
     for kap in (2.0, 0.2)]
    + [(BallModel(alpha=[[0.8]], H=np.zeros((0, 0)), b=[0.0], B=[[-0.4]]), 1e-7)]
    + [(BallModel(alpha=np.eye(d), H=np.eye(skew_dim(d)), b=np.zeros(d), B=-10.0 * np.eye(d)),
        1e-7) for d in (2, 3, 6)]
    + [(BallModel(alpha=[[1.0]], H=np.zeros((0, 0)), b=[0.0], B=[[-1.0 + 1e-5]]), tol)
       for tol in (1e-7, 1e-3)]
    + [(BallModel(alpha=[[nu ** 2]], H=np.zeros((0, 0)), b=[0.0], B=[[-kappa]]), 1e-7)
       for kappa, nu in ((2.0, 1.0), (1.0, 1.0), (0.2, 1.0))]
    + [(BallModel(alpha=[[0.49]], H=np.zeros((0, 0)), b=[0.0], B=[[-1.0]]), 1e-7),
       (BallModel(alpha=0.5 * np.eye(3), H=np.eye(3), b=np.zeros(3), B=-2 * np.eye(3)), 1e-7)]
)


@pytest.mark.parametrize("case", range(len(BOUNDARY_MODELS)))
def test_validate_ball_boundary_is_one_sphere_maximum_after_one_sos_check(case, monkeypatch):
    # The boundary step is the maximum of b.x + x.((B_sym + alpha) + C/2).x over
    # the unit sphere, in that operand order, and validate reaches it with
    # the one sos_check of its admission.
    from quadricdiff import sos
    from quadricdiff.cspace import _symmetric_part

    mdl, tol = BOUNDARY_MODELS[case]
    calls = []
    original = sos.sos_check
    monkeypatch.setattr(sos, "sos_check", lambda *a, **k: calls.append(1) or original(*a, **k))
    rep = validate(mdl, tol)
    assert rep.admissible and len(calls) == 1
    quad = sphere_max_quadratic((_symmetric_part(mdl.B) + mdl.alpha)
                                + 0.5 * trace_form(mdl.H, mdl.d), mdl.b)
    assert rep.boundary.status == ("InteriorInvariant" if quad.max_value <= tol
                                   else "MayAttainBoundary")
    assert rep.boundary.margin == quad.max_value
    assert np.array_equal(rep.boundary.argmax, quad.argmax)


def test_positivity_refuted_with_a_witness():
    # SOS-infeasible at d = 5 (<H, B> = -0.045), with a negative value the screen finds
    from quadricdiff.cspace import biquadratic_eval

    G = np.random.default_rng(0).standard_normal((10, 10))
    H = (G + G.T) / 2 + 2 * np.eye(10)
    rep = validate(BallModel(alpha=np.zeros((5, 5)), H=H, b=np.zeros(5), B=-10 * np.eye(5)))
    assert rep.positivity == "refuted" and not rep.admissible and rep.boundary is None
    pos = rep.checks["positivity"]
    assert pos["sos_status"] == "Infeasible" and pos["negative_value"] < -1e-9
    assert biquadratic_eval(H, pos["witness_x"], pos["witness_y"]) == pos["negative_value"]


def test_positivity_unverified_on_a_nonnegative_form_that_is_not_sos():
    # counterexample_d6 is nonnegative and not SOS: no witness either way
    from quadricdiff.sos import counterexample_d6

    H = counterexample_d6().h
    mdl = BallModel(alpha=np.eye(6), H=H, b=np.zeros(6),
                    B=-0.5 * trace_form(H, 6) - np.eye(6))
    rep = validate(mdl)
    assert rep.admissible and rep.positivity == "unverified"
    pos = rep.checks["positivity"]
    assert pos["sos_status"] == "Infeasible" and pos["min_found"] >= -1e-9
    assert rep.boundary.status == "InteriorInvariant"


def test_a_eval_psd_on_ball_when_admissible():
    for d in (2, 3):
        mdl = BallModel(alpha=np.eye(d), H=np.eye(skew_dim(d)), b=np.zeros(d),
                        B=-d * np.eye(d))
        rep = validate(mdl)
        assert rep.admissible and rep.positivity == "verified"
        for _ in range(500):
            x = rng.standard_normal(d)
            r = rng.uniform() ** (1 / d)
            x = r * x / np.linalg.norm(x)
            assert np.linalg.eigvalsh(a_eval(mdl, x))[0] >= -1e-9


def test_model_json_roundtrip():
    mdl = BallModel(alpha=np.eye(3), H=np.eye(3) * 2.0, b=np.array([0.1, 0, 0]),
                    B=-2.0 * np.eye(3))
    obj = json.loads(json.dumps(model_to_json(mdl)))
    back = model_from_json(obj)
    assert back.space == "ball"
    assert np.allclose(back.alpha, mdl.alpha) and np.allclose(back.H, mdl.H)
    assert np.allclose(back.b, mdl.b) and np.allclose(back.B, mdl.B)
    sp = sphere_bm(4)
    back = model_from_json(json.loads(json.dumps(model_to_json(sp))))
    assert back.space == "sphere" and np.allclose(back.B, sp.B)


def test_models_refuse_non_finite_or_misshapen_coefficients():
    ball = {"alpha": np.eye(3), "H": np.eye(3), "b": np.zeros(3), "B": -np.eye(3)}
    sphere = {"H": np.eye(3), "B": -np.eye(3)}
    for cls, good in ((BallModel, ball), (SphereModel, sphere)):
        cls(**good)
        for name in good:
            for bad in (np.nan, np.inf, -np.inf):
                coeffs = dict(good, **{name: np.array(good[name], dtype=float)})
                coeffs[name].flat[-1] = bad
                with pytest.raises(ValueError, match="finite"):
                    cls(**coeffs)
    misshapen = [(BallModel, dict(ball, alpha=np.ones(3))),
                 (BallModel, dict(ball, alpha=np.ones((3, 2)))),
                 (BallModel, dict(ball, H=np.eye(2))),
                 (BallModel, dict(ball, b=np.zeros((1, 3)))),
                 (BallModel, dict(ball, b=np.zeros(2))),
                 (BallModel, dict(ball, B=np.eye(2))),
                 (SphereModel, dict(sphere, B=np.ones(3))),
                 (SphereModel, dict(sphere, H=np.eye(6)))]
    for cls, coeffs in misshapen:
        with pytest.raises(ValueError, match="shape"):
            cls(**coeffs)
    # and validate refuses a tolerance that is not a positive finite number
    for mdl in (BallModel(**ball), SphereModel(**sphere)):
        for tol in (-1.0, 0.0, np.nan, np.inf, "1e-9"):
            with pytest.raises(ValueError, match="^tol must be a positive finite number"):
                validate(mdl, tol)


def test_dimension_zero_is_refused_by_name():
    # the unit sphere of R^0 is empty: it has no maximum, and no model lives on it
    with pytest.raises(ValueError, match=r"^M must be a square \(d, d\) matrix with d >= 1"):
        sphere_max_quadratic(np.zeros((0, 0)), np.zeros(0))
    with pytest.raises(ValueError, match=r"^alpha must be a \(d, d\) matrix with d >= 1"):
        BallModel(alpha=np.zeros((0, 0)), H=np.zeros((0, 0)), b=np.zeros(0), B=np.zeros((0, 0)))
    with pytest.raises(ValueError, match=r"^B must be a \(d, d\) matrix with d >= 1"):
        SphereModel(H=np.zeros((0, 0)), B=np.zeros((0, 0)))


def test_a_eval_and_drift_eval_refuse_a_misshapen_or_non_finite_x():
    ball = BallModel(alpha=np.eye(3), H=np.eye(3), b=np.zeros(3), B=-np.eye(3))
    for mdl in (ball, sphere_bm(3)):
        for evaluate in (a_eval, drift_eval):
            for x in (np.ones(4), np.ones(2), np.ones((3, 1))):
                with pytest.raises(ValueError, match="^x must have dimension 3"):
                    evaluate(mdl, x)
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match="^x must be finite"):
                    evaluate(mdl, [0.5, bad, 0.0])


def test_sphere_max_quadratic_rescales_huge_coefficients():
    r = sphere_max_quadratic(np.diag([1.0, 2.0]), np.array([1e200, 1e200]))
    assert r.max_value == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-12)
    assert np.allclose(r.argmax, [2 ** -0.5, 2 ** -0.5], rtol=0, atol=1e-12)
    assert r.multiplier == pytest.approx(1e200 / np.sqrt(2.0), rel=1e-12)
    for M, b, name in ((np.diag([np.nan, 1.0]), np.zeros(2), "finite"),
                       (np.eye(2), np.array([np.inf, 0.0]), "finite"),
                       (np.eye(3), [1.0, 2.0], "b must hold 3 numbers"),
                       (np.ones((2, 3)), [1.0, 2.0], "M must be a square"),
                       (np.ones(3), [1.0, 2.0, 3.0], "M must be a square"),
                       (1e308 * np.eye(2), [1e308, 1e308], "exceeds the float range")):
        with pytest.raises(ValueError, match=name):
            sphere_max_quadratic(M, b)


def test_validate_returns_on_huge_finite_coefficients():
    import signal

    def stuck(*_):
        raise TimeoutError("validate_ball did not return within 20 s")

    mdl = BallModel(alpha=np.eye(2), H=np.eye(1), b=np.array([1e308, 1e308]),
                    B=-1e308 * np.eye(2))
    previous = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(20)
    try:
        rep = validate(mdl)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    # max of b.x - 1e308 |x|^2 + c_H/2 on the sphere is (sqrt(2) - 1) 1e308
    drift = rep.checks["drift"]
    assert not rep.admissible and not drift["pass"]
    assert drift["max_value"] == pytest.approx((np.sqrt(2.0) - 1.0) * 1e308, rel=1e-12)

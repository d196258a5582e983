"""One state-space contract for every entry that takes a start point x0.

Each entry refuses an x0 that is not d finite numbers, or whose norm misses
its state space (1 on the sphere, at most 1 on the ball) by more than the
entry's tolerance: 1e-12 for the simulators, 1e-9 for ``moment`` and the
density checks.  It refuses non-finite coefficients too.  A library entry
raises ValueError; a CLI command prints an ``"error"`` key as strict JSON and
exits 0.  Points within half the tolerance are accepted.
"""

import json
import re
from contextlib import redirect_stdout
from io import StringIO

import numpy as np
import pytest

from quadricdiff.cli import main
from quadricdiff.generator import moment
from quadricdiff.liealg import density_check_ball, density_check_sphere
from quadricdiff.model import BallModel, SphereModel, model_to_json, validate_ball, validate_sphere
from quadricdiff.simulate import (
    SkewDrive,
    ball_ensemble,
    scalar_ball_ensemble,
    sphere_ensemble,
    twin_path_experiment,
)

NAN, INF = float("nan"), float("inf")
# Not three finite numbers (the CLI flattens its --x0, so a (1, 3) x0 is library-only).
MALFORMED = ([NAN, 0.0, 0.0], [INF, 0.0, 0.0], [1.0, 0.0], [1.0, 0.0, 0.0, 0.0])
ROW = [[1.0, 0.0, 0.0]]
X0_ERROR = (r"x0 must be 3 finite numbers|"
            r"\|x0\| = \S+ (does not lie on the unit sphere|lies outside the closed unit ball)")
RUN = (0.01, 1e-3, 0, 2)
DRIVE = SkewDrive.elementary(3)
SPHERE = SphereModel(H=np.eye(3), B=-np.eye(3))
BALL = BallModel(alpha=0.5 * np.eye(3), H=np.eye(3), b=np.zeros(3), B=-2 * np.eye(3))


def nan_at(array, index=(0, 0)):
    out = np.array(array, dtype=float)
    out[index] = NAN
    return out


def nan_drive():
    return SkewDrive(nan_at(np.zeros((3, 3))), np.zeros((0, 3, 3)))


def ball_from_zero(bhat=np.zeros(3), Bhat=-np.eye(3), alpha=np.eye(3)):
    return lambda: ball_ensemble(bhat, Bhat, alpha, DRIVE, np.zeros(3), *RUN)


# name: (space, tolerance, run(x0), calls that must raise for a non-finite coefficient)
LIBRARY = {
    "sphere_ensemble": (
        "sphere", 1e-12, lambda x0: sphere_ensemble(DRIVE, x0, *RUN),
        [lambda: sphere_ensemble(nan_drive(), [1.0, 0.0, 0.0], *RUN),
         lambda: SkewDrive(np.zeros((3, 3)), nan_at(np.zeros((1, 3, 3)), (0, 0, 1)))]),
    "ball_ensemble": (
        "ball", 1e-12, lambda x0: ball_ensemble(np.zeros(3), -np.eye(3), np.eye(3), DRIVE, x0,
                                                *RUN),
        [ball_from_zero(bhat=nan_at(np.zeros(3), 0)), ball_from_zero(Bhat=nan_at(-np.eye(3))),
         ball_from_zero(alpha=nan_at(np.eye(3))), ball_from_zero(alpha=np.diag([INF, 1, 1]))]),
    "scalar_ball_ensemble": (
        "ball", 1e-12, lambda x0: scalar_ball_ensemble(2.0, 1.0, DRIVE, x0, *RUN),
        [lambda: scalar_ball_ensemble(INF, 1.0, DRIVE, np.zeros(3), *RUN),
         lambda: scalar_ball_ensemble(2.0, INF, DRIVE, np.zeros(3), *RUN),
         lambda: scalar_ball_ensemble(NAN, 1.0, DRIVE, np.zeros(3), *RUN)]),
    "twin_path_experiment": (
        "sphere", 1e-12, lambda x0: twin_path_experiment(1.0, 1.0, DRIVE, x0, *RUN[:2], 2),
        [lambda: twin_path_experiment(INF, 1.0, DRIVE, [1.0, 0.0, 0.0], *RUN[:2], 2)]),
    "moment_sphere": ("sphere", 1e-9, lambda x0: moment(SPHERE, {(1, 0, 0): 1.0}, x0, 0.5), []),
    "moment_ball": ("ball", 1e-9, lambda x0: moment(BALL, {(1, 0, 0): 1.0}, x0, 0.5), []),
    "density_check_sphere": ("sphere", 1e-9, lambda x0: density_check_sphere(DRIVE, x0), []),
    "density_check_ball": (
        "ball", 1e-9, lambda x0: density_check_ball(DRIVE, np.eye(3), x0),
        [lambda: density_check_ball(DRIVE, nan_at(np.eye(3)), [0.5, 0.0, 0.0])]),
}


def radii(space, tol):
    """(accepted, refused) norms at the edges of the state space, and huge ones."""
    accepted = [1.0 + 0.5 * tol, 1.0 - 0.5 * tol]
    # x0 . x0 overflows for the last two
    refused = [1.0 + 2.0 * tol, 1e200, 1.7e308]
    if space == "sphere":
        refused += [1.0 - 2.0 * tol, 0.5]
    else:
        accepted += [0.0, 0.5]
        refused += [5.0]
    return accepted, refused


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_library_entry_keeps_the_state_space_contract(name):
    space, tol, run, bad_coefficients = LIBRARY[name]
    accepted, refused = radii(space, tol)
    for r in accepted:
        run(np.array([r, 0.0, 0.0]))
    for x0 in MALFORMED + (ROW,) + tuple([r, 0.0, 0.0] for r in refused):
        with pytest.raises(ValueError, match=X0_ERROR):
            run(x0)
    for call in bad_coefficients:
        with pytest.raises(ValueError, match="finite"):
            call()


def strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def x0_flag(x):
    return ["--x0", json.dumps(x)]


def cli(argv):
    buf = StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return strict_json(buf.getvalue())


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("contract")
    # BallModel refuses a NaN alpha, so the poisoned file is written directly.
    bad_alpha = dict(model_to_json(BALL), alpha=nan_at(BALL.alpha).tolist())
    files = {}
    for name, obj in (("sphere", model_to_json(SPHERE)), ("ball", model_to_json(BALL)),
                      ("bad_alpha", bad_alpha)):
        files[name] = str(tmp / f"{name}.json")
        with open(files[name], "w") as fh:
            json.dump(obj, fh)
    return files


SIM = ["--T", "0.01", "--h", "1e-3", "--paths", "2", "--seed", "0"]
SCALAR = ["simulate", "--scheme", "scalar"] + SIM
TWIN = ["twin", "--T", "0.01", "--h", "1e-3", "--seeds", "2", "--seed", "0"]
# name: (space, tolerance, argv without --x0, argv lists that carry a non-finite coefficient)
COMMANDS = {
    "simulate_sphere": ("sphere", 1e-12, lambda m: ["simulate", "--model", m["sphere"],
                                                    "--scheme", "sphere"] + SIM, []),
    "simulate_ball": (
        "ball", 1e-12, lambda m: ["simulate", "--model", m["ball"], "--scheme", "ball"] + SIM,
        [lambda m: ["simulate", "--model", m["bad_alpha"], "--scheme", "ball"] + SIM]),
    "simulate_scalar": (
        "ball", 1e-12, lambda m: SCALAR + ["--kappa", "2", "--nu", "1"],
        [lambda m: SCALAR + ["--kappa", "inf", "--nu", "1"],
         lambda m: SCALAR + ["--kappa", "2", "--nu", "inf"]]),
    "moments": ("sphere", 1e-9, lambda m: ["moments", "--model", m["sphere"], "--t", "0.5",
                                           "--q", '{"terms": [{"exp": [1, 0, 0], "coef": 1}]}'],
                []),
    "density_sphere": ("sphere", 1e-9, lambda m: ["density", "--model", m["sphere"]], []),
    "density_ball": ("ball", 1e-9, lambda m: ["density", "--model", m["ball"]],
                     [lambda m: ["density", "--model", m["bad_alpha"]]]),
    "twin": ("sphere", 1e-12, lambda m: TWIN + ["--kappa", "1", "--nu", "1"],
             [lambda m: TWIN + ["--kappa", "inf", "--nu", "1"]]),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_command_keeps_the_state_space_contract(models, name):
    space, tol, argv, bad_coefficients = COMMANDS[name]
    # without a model, the length of --x0 is the dimension
    malformed = MALFORMED if "--model" in argv(models) else MALFORMED[:2]
    accepted, refused = radii(space, tol)
    for r in accepted:
        assert "error" not in cli(argv(models) + x0_flag([r, 0.0, 0.0])), r
    for x in malformed + tuple([r, 0.0, 0.0] for r in refused):
        out = cli(argv(models) + x0_flag(x))
        assert set(out) == {"error"} and re.match(X0_ERROR, out["error"]), (x, out)
    for bad in bad_coefficients:
        out = cli(bad(models) + x0_flag([0.5, 0.0, 0.0] if space == "ball" else [1.0, 0.0, 0.0]))
        assert set(out) == {"error"} and "finite" in out["error"], out



def test_non_finite_results_are_errors_in_strict_json(models, tmp_path):
    # q = x1 on the d = 1 Jacobi model with B = 50 overflows to inf by t = 1e3,
    # and with B = 1e300 already inside the exponential's scaling
    q = '{"terms": [{"exp": [1], "coef": 1}]}'
    for B in (50.0, 1e300):
        path = tmp_path / f"jacobi_{B}.json"
        path.write_text(json.dumps({"space": "ball", "d": 1, "alpha": [[1.0]], "H": [],
                                    "b": [0.0], "B": [[B]]}))
        out = cli(["moments", "--model", str(path), "--q", q, "--x0", "[0.5]", "--t", "1e3"])
        assert set(out) == {"error"} and "not finite" in out["error"], out
    mdl = BallModel(alpha=[[1.0]], H=np.zeros((0, 0)), b=[0.0], B=[[50.0]])
    with pytest.raises(ValueError, match="not finite"):
        moment(mdl, {(1,): 1.0}, [0.5], 1e3)
    for argv in (["validate", "--model", models["bad_alpha"]],
                 ["moments", "--model", models["bad_alpha"], "--t", "0.5", "--x0", "[0.5,0,0]",
                  "--q", '{"terms": [{"exp": [1, 0, 0], "coef": 1}]}']):
        out = cli(argv)
        assert set(out) == {"error"} and "finite" in out["error"], out
    for H in ("[[NaN]]", "[[Infinity]]", "[[-1e308]]"):
        for command in ("sos-check", "decompose"):
            out = cli([command, "--H", H, "--d", "2"])
            assert set(out) == {"error"} and "finite" in out["error"], out
    assert cli(["sos-check", "--H", "[[1e308]]", "--d", "2"])["status"] == "Feasible"


# alpha: (validate's verdict, and whether the engines accept it).  Inside the engines'
# floor -1e-10 max(1, w_max), outside it, and asymmetric beyond roundoff.
ALPHAS = {
    "wide_spectrum": (np.diag([1e6, 1.0, -5e-6]), True),
    "tiny_negative": (np.diag([1.0, 1.0, -5e-11]), True),
    "negative": (np.diag([1.0, 1.0, -1e-6]), False),
}


@pytest.mark.parametrize("name", sorted(ALPHAS))
def test_validate_and_the_engines_agree_on_alpha(name):
    alpha, psd = ALPHAS[name]
    report = validate_ball(BallModel(alpha=alpha, H=np.zeros((3, 3)), b=np.zeros(3),
                                     B=-np.eye(3)))
    assert report.checks["alpha"] == {"pass": psd, "min_eig": np.linalg.eigvalsh(alpha)[0]}
    assert report.admissible == psd
    engines = (ball_from_zero(alpha=alpha),
               lambda: density_check_ball(SkewDrive.zero(3), alpha, np.zeros(3)))
    for engine in engines:
        if psd:
            engine()
        else:
            with pytest.raises(ValueError, match="not positive semidefinite"):
                engine()


def test_asymmetric_alpha_is_refused_everywhere():
    alpha = np.array([[1.0, 10.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="alpha must be symmetric"):
        BallModel(alpha=alpha, H=np.zeros((3, 3)), b=np.zeros(3), B=-np.eye(3))
    for engine in (ball_from_zero(alpha=alpha),
                   lambda: density_check_ball(SkewDrive.zero(3), alpha, np.zeros(3))):
        with pytest.raises(ValueError, match="alpha must be symmetric"):
            engine()
    # an asymmetry at roundoff passes, as it does for Bhat
    alpha[0, 1] = 1e-14
    BallModel(alpha=alpha, H=np.zeros((3, 3)), b=np.zeros(3), B=-np.eye(3))
    ball_from_zero(alpha=alpha)()


def test_sphere_identity_overflow_is_a_named_error(tmp_path):
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(model_to_json(SphereModel(H=[[1.0]], B=-1e308 * np.eye(2)))))
    out = cli(["validate", "--model", str(path)])
    assert set(out) == {"error"} and "sphere drift identity" in out["error"], out
    with pytest.raises(ValueError, match="sphere drift identity"):
        validate_sphere(SphereModel(H=[[1.0]], B=-1e308 * np.eye(2)))
    # twice the largest entry of B_sym + C/2 = -0.5e308 I + I/2, the bits of |B + B^T + C|
    report = validate_sphere(SphereModel(H=[[1.0]], B=-0.5e308 * np.eye(2)))
    assert not report.admissible
    assert report.checks["drift_identity"]["residual"] == 2.0 * 0.5e308


def test_ball_drift_overflow_is_a_named_error(tmp_path):
    # B_sym + C/2 = 1.7e308 I + 0.5e308 I overflows; the error names the inequality
    mdl = BallModel(alpha=np.eye(2), H=[[1e308]], b=np.zeros(2), B=1.7e308 * np.eye(2))
    path = tmp_path / "ball.json"
    path.write_text(json.dumps(model_to_json(mdl)))
    out = cli(["validate", "--model", str(path)])
    assert out == {"error": "the matrix B_sym + C/2 of the drift inequality exceeds the "
                            "float range"}, out
    with pytest.raises(ValueError, match="drift inequality"):
        validate_ball(mdl)


# Models whose drift validate rejects: (model, x0, the drift check's key and value).
# The sphere identity's residual is |2 B_sym + C| = |10 I + 2 I|; the ball's drift
# maximum is b.x - x.x at x = (1, 0).
BAD_DRIFT = {
    "sphere": (SphereModel(H=np.eye(3), B=5 * np.eye(3)), [1.0, 0.0, 0.0], "residual", 12.0),
    "ball": (BallModel(alpha=np.eye(2), H=[[1.0]], b=[2.0, 0.0], B=-1.5 * np.eye(2)),
             [0.5, 0.0], "max_value", 1.0),
}


@pytest.mark.parametrize("space", sorted(BAD_DRIFT))
def test_simulate_and_density_refuse_a_drift_that_validate_rejects(tmp_path, space):
    # the drive keeps only skew(B) and the SOS factors, so B_sym would be dropped
    mdl, x0, key, value = BAD_DRIFT[space]
    assert not (validate_sphere if space == "sphere" else validate_ball)(mdl).admissible
    path = tmp_path / f"{space}.json"
    path.write_text(json.dumps(model_to_json(mdl)))
    for argv in (["simulate", "--model", str(path), "--scheme", space] + SIM,
                 ["density", "--model", str(path)]):
        out = cli(argv + x0_flag(x0))
        assert out["error"] == f"the {space} model's drift fails validation", out
        assert out["drift"]["pass"] is False and out["drift"][key] == value, out

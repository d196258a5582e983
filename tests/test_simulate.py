import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm
from scipy.special import ndtri

from kept import Kept, kept_run
from quadricdiff import simulate
from quadricdiff.generator import moment
from quadricdiff.model import BallModel, SphereModel, ensemble, twin_path_experiment
from quadricdiff.simulate import (
    SkewDrive,
    _eval_poly as eval_poly,
    ball_ensemble,
    expm_skew,
    mc_moment,
    path_normals,
    sphere_ensemble,
)
from quadricdiff.skew import skew_basis, skew_dim, vec_to_skew

rng = np.random.default_rng(404)


def test_skew_drive_validation():
    with pytest.raises(ValueError):
        SkewDrive(np.eye(2), np.zeros((0, 2, 2)))
    drv = SkewDrive.elementary(3)
    assert drv.d == 3 and drv.n_diffusion == 3
    assert np.array_equal(drv.a0, np.zeros((3, 3)))


def test_expm_skew_matches_scipy():
    for d in (2, 3, 5, 8):
        M = rng.standard_normal((15, d, d))
        M = M - M.transpose(0, 2, 1)
        M *= rng.uniform(0.001, 10.0, size=(15, 1, 1))
        R = expm_skew(M)
        for i in range(15):
            assert np.allclose(R[i], scipy_expm(M[i]), atol=1e-12)
            # a matrix's exponential must not depend on its batch neighbors
            assert np.array_equal(expm_skew(M[i]), R[i])
        orth = np.abs(np.einsum("bij,bkj->bik", R, R) - np.eye(d)).max()
        assert orth < 1e-13


def test_path_normals_deterministic_and_stream_separated():
    a = path_normals(42, 0, 100, 3)
    b = path_normals(42, 0, 100, 3)
    assert np.array_equal(a, b)
    c = path_normals(42, 1, 100, 3)
    assert not np.array_equal(a, c)
    d = path_normals(43, 0, 100, 3)
    assert not np.array_equal(a, d)
    # standard normal sanity
    big = path_normals(7, 0, 20000, 2).ravel()
    assert abs(big.mean()) < 0.03 and abs(big.std() - 1.0) < 0.03


def test_sphere_deterministic_rotation():
    A0 = np.array([[0.0, 1.0, 0], [-1.0, 0, 0], [0, 0, 0]])
    drive = SkewDrive(A0, np.zeros((0, 3, 3)))
    x0 = np.array([1.0, 0.0, 0.0])
    s, paths = kept_run(sphere_ensemble, drive, x0, T=1.0, h=1e-3, seed=1, n_paths=1)
    assert np.linalg.norm(paths[0, -1] - scipy_expm(A0) @ x0) < 1e-12
    assert s.max_norm_dev < 1e-12


def test_sphere_norm_preservation_and_determinism():
    drive = SkewDrive.elementary(3)
    x0 = np.array([0.0, 0.0, 1.0])
    s1, s2, s3 = (kept_run(sphere_ensemble, drive, x0, T=1.0, h=1e-3, seed=seed,
                           n_paths=1)[1][0] for seed in (7, 7, 8))
    assert np.array_equal(s1, s2)
    assert np.abs(np.linalg.norm(s1, axis=1) - 1.0).max() <= 1e-12
    assert not np.array_equal(s1, s3)
    with pytest.raises(ValueError):
        sphere_ensemble(drive, np.array([0.5, 0, 0]), 1.0, 1e-3, 1, 1)


def test_ensemble_path_zero_matches_single_path():
    drive = SkewDrive.elementary(3)
    x0 = np.array([1.0, 0.0, 0.0])
    _, s = kept_run(sphere_ensemble, drive, x0, T=0.3, h=1e-3, seed=5, n_paths=1)
    _, ens = kept_run(sphere_ensemble, drive, x0, T=0.3, h=1e-3, seed=5, n_paths=4)
    assert np.array_equal(ens[0], s[0])


def test_ball_ensemble_matches_single():
    drive = SkewDrive.elementary(2)
    args = (np.array([0.05, 0.0]), -np.eye(2), 0.2 * np.eye(2), drive,
            np.zeros(2), 0.3, 1e-3)
    _, p = kept_run(ball_ensemble, *args, seed=9, n_paths=1)
    _, ens = kept_run(ball_ensemble, *args, seed=9, n_paths=3)
    assert np.array_equal(ens[0], p[0])


def _block_runs(n_paths):
    """(result, paths) of sphere, ball with a drive, scalar, drift-only sphere and
    drift-only ball ensembles of n_paths; the last ball's Bhat and alpha are not
    diagonal, so its products of a state with them round."""
    e3 = SkewDrive(0.7 * skew_basis(3)[0], skew_basis(3))
    x3 = np.array([0.0, 0.6, 0.8])
    a4 = sum(c * A for c, A in zip((0.9, -0.3, 0.5, 0.2, -1.1, 0.4), skew_basis(4)))
    drift4 = SkewDrive(a4, np.zeros((0, 4, 4)))
    x4 = np.array([0.25, -0.25, 0.25, 0.25])
    return [
        kept_run(sphere_ensemble, e3, x3, 0.03, 1e-3, 5, n_paths),
        kept_run(ball_ensemble, np.array([0.1, 0.0, -0.2]), -np.eye(3), 0.5 * np.eye(3), e3,
                 0.5 * x3, 0.03, 1e-3, 6, n_paths),
        kept_run(ensemble, BallModel.scalar(0.2, 1.0, 2), [0.6, 0.79], 0.05, 1e-2, 7, n_paths),
        kept_run(sphere_ensemble, SkewDrive(np.array([[0.0, 1.5], [-1.5, 0.0]]),
                                            np.zeros((0, 2, 2))),
                 [0.6, 0.8], 0.02, 1e-3, 5, n_paths),
        kept_run(ball_ensemble, np.zeros(4), -np.eye(4) - 0.3, 0.5 * np.eye(4) + 0.2, drift4,
                 x4, 0.02, 1e-3, 8, n_paths),
    ]


def test_path_does_not_depend_on_its_neighbours(monkeypatch):
    # In blocks of 3, row 6 runs alone among 7 paths and beside row 7 among 8;
    # in one block of 8, rows 3-6 also sit at other positions of their block.
    single_block = _block_runs(8)
    monkeypatch.setattr(simulate, "_BLOCK", 3)
    sevens = _block_runs(7)
    for seven, one, eight, whole in zip(sevens, _block_runs(1), _block_runs(8), single_block):
        seven, seven_paths = seven
        for k in range(7):
            for other, paths in ((one, eight, whole) if k == 0 else (eight, whole)):
                assert seven_paths[k].tobytes() == paths[k].tobytes(), (seven.scheme, k)
                assert seven.terminal[k].tobytes() == other.terminal[k].tobytes()
                assert seven.max_radius[k] == other.max_radius[k]
    assert sevens[2][0].clamp_fraction > 0, "the scalar case must clamp"


def test_sphere_mc_matches_generator_moment():
    # law check: elementary drive is spherical Brownian motion, E[X_T] = e^{-(d-1)T/2} x0
    for d in (3, 2):
        drive = SkewDrive.elementary(d)
        x0 = np.eye(d)[0]
        e = (1,) + (0,) * (d - 1)
        ens = sphere_ensemble(drive, x0, T=1.0, h=2e-3, seed=31, n_paths=20000)
        est = mc_moment(ens.terminal, {e: 1.0})
        model = SphereModel(H=np.eye(skew_dim(d)), B=-0.5 * (d - 1) * np.eye(d))
        target = moment(model, {e: 1.0}, x0, 1.0)
        assert target == pytest.approx(np.exp(-0.5 * (d - 1)), abs=1e-12), d
        assert abs(est.estimate - target) <= 3 * est.stderr + 5e-3, d


def test_ball_pure_rotation_keeps_radius():
    drive = SkewDrive.elementary(2)
    _, p = kept_run(ball_ensemble, np.zeros(2), np.zeros((2, 2)), np.zeros((2, 2)), drive,
                    np.array([0.5, 0.0]), 1.0, 1e-3, seed=3, n_paths=1)
    assert np.abs(np.linalg.norm(p[0], axis=1) - 0.5).max() <= 1e-12


def test_ball_states_stay_inside():
    drive = SkewDrive.zero(2)
    p, paths = kept_run(ball_ensemble, np.array([0.3, 0.0]), -0.5 * np.eye(2), np.eye(2),
                        drive, np.zeros(2), 2.0, 1e-3, seed=11, n_paths=1)
    assert np.linalg.norm(paths[0], axis=1).max() <= 1.0
    assert 0.0 <= p.clamp_fraction <= 1.0


def test_ball_rejects_bad_arguments():
    drive = SkewDrive.zero(2)
    with pytest.raises(ValueError):
        ball_ensemble(np.zeros(2), np.eye(2), np.eye(2), drive, np.zeros(2), 1.0, 1e-3, 0, 1)
    with pytest.raises(ValueError):
        ball_ensemble(np.zeros(2), -np.eye(2), np.eye(2), drive,
                      np.array([1.2, 0.0]), 1.0, 1e-3, 0, 1)
    with pytest.raises(ValueError, match="Bhat"):
        ball_ensemble(np.zeros(2), -np.ones(2), np.eye(2), drive, np.zeros(2), 1.0, 1e-3, 0, 1)
    with pytest.raises(ValueError, match="bhat"):
        ball_ensemble(np.zeros(3), -np.eye(2), np.eye(2), drive, np.zeros(2), 1.0, 1e-3, 0, 1)


def test_clamp_rarely_fires_when_interior_invariant():
    # strong reversion keeps paths off the boundary; the clamp is a rare event
    ens = ensemble(BallModel.scalar(2.0, 1.0, 1), np.array([0.0]), T=2.0, h=2e-3,
                   seed=23, n_paths=2000)
    assert ens.clamp_fraction < 0.01


def test_scalar_ball_reduces_to_jacobi():
    ens = ensemble(BallModel.scalar(2.0, 1.0, 1), np.array([0.5]), T=1.0, h=1e-3,
                   seed=5, n_paths=20000)
    est = mc_moment(ens.terminal, {(1,): 1.0})
    mdl = BallModel(alpha=[[1.0]], H=np.zeros((0, 0)), b=[0.0], B=[[-2.0]])
    target = moment(mdl, {(1,): 1.0}, np.array([0.5]), 1.0)
    assert abs(est.estimate - target) <= 3 * est.stderr + 2e-3


def test_scalar_ball_y_diagnostics():
    kappa, nu, d = 2.0, 1.0, 2
    s, paths = kept_run(ensemble, BallModel.scalar(kappa, nu, d), np.array([0.5, 0.0]), T=1.0,
                        h=1e-3, seed=5, n_paths=1)
    r2 = np.einsum("ni,ni->n", paths[0], paths[0])
    y = 1.0 - r2
    h = s.times[1] - s.times[0]
    # in-sample drift residual of the closed Y dynamics is noise-level
    resid = np.mean(np.diff(y) - (2.0 * kappa * r2[:-1] - d * nu ** 2 * y[:-1]) * h)
    assert abs(resid) < 5e-3
    for bad in ((-1.0, 1.0), (1.0, 0.0)):
        with pytest.raises(ValueError):
            ensemble(BallModel.scalar(*bad, d), np.array([0.5, 0.0]), 1.0, 1e-3, 0, 1)


def test_weak_consistency_richardson():
    # halving h once bounds the time-discretization bias
    mdl = BallModel(alpha=[[1.0]], H=np.zeros((0, 0)), b=[0.0], B=[[-2.0]])
    target = moment(mdl, {(1,): 1.0}, np.array([0.5]), 1.0)
    ests = []
    for h in (4e-3, 2e-3):
        ens = ensemble(BallModel.scalar(2.0, 1.0, 1), np.array([0.5]), T=1.0, h=h,
                       seed=17, n_paths=40000)
        ests.append(mc_moment(ens.terminal, {(1,): 1.0}))
    bias_scale = abs(ests[0].estimate - ests[1].estimate) + ests[0].stderr
    assert abs(ests[1].estimate - target) <= 3 * ests[1].stderr + 2 * bias_scale + 1e-3


def test_a_drift_step_that_cannot_contract_is_refused():
    # x <- (I + h Bhat) x contracts only while h rho(Bhat) < 2: at kappa h = 2.1 most
    # steps were clamped, and at kappa = 1e308 |x|^2 overflowed with a warning
    below = np.nextafter(8.0, 0.0)   # kappa h just below 2 at h = 0.25
    for kappa, h, runs in ((below, 0.25, True), (8.0, 0.25, False), (1e308, 0.01, False)):
        for d in (1, 3):
            x0 = np.full(d, 0.5 / np.sqrt(d))
            calls = [lambda: ensemble(BallModel.scalar(kappa, 1.0, d), x0, 0.5, h, 0, 4),
                     lambda: ball_ensemble(np.zeros(d), -kappa * np.eye(d), np.eye(d),
                                           SkewDrive.elementary(d), x0, 0.5, h, 0, 4),
                     lambda: twin_path_experiment(kappa, 1.0, d, np.eye(d)[0], 0.5, h, 2,
                                                  eps=0.5)]
            for call in calls:
                if runs:
                    call()
                else:
                    with pytest.raises(ValueError, match="drift step does not contract"):
                        call()


def test_twin_paths_identical_with_zero_eps():
    rep = twin_path_experiment(1.0, 1.0, 1, np.array([1.0]), T=0.5, h=1e-3,
                               n_seeds=4, eps=0.0)
    assert np.all(rep.max_divergence == 0.0)
    assert rep.uniqueness_condition  # 1.0 > sqrt(2) - 1


def test_twin_paths_small_eps_stays_small():
    rep = twin_path_experiment(1.0, 1.0, 1, np.array([1.0]), T=1.0, h=1e-4,
                               n_seeds=3, eps=1e-10)
    assert np.all(rep.max_divergence <= 1e-4)
    assert rep.kappa_nu_ratio == pytest.approx(1.0)


def test_twin_condition_flag():
    rep = twin_path_experiment(0.3, 1.0, 1, np.array([1.0]), T=0.1, h=1e-3,
                               n_seeds=2, eps=0.0)
    assert not rep.uniqueness_condition  # 0.3 < sqrt(2) - 1 = 0.41421...
    with pytest.raises(ValueError):
        twin_path_experiment(1.0, 1.0, 1, np.array([0.5]), 0.1, 1e-3, 2)
    # the second start (1 - eps) x0 must lie in the closed ball too
    for eps in (-0.5, 2.5):
        with pytest.raises(ValueError):
            twin_path_experiment(1.0, 1.0, 1, np.array([1.0]), 0.1, 1e-3, 2, eps=eps)
    # d is refused by name before x0 is read, and x0 before kappa and nu
    for d in (0, -1, 2.5, True, "1"):
        with pytest.raises(ValueError, match="^d must be a positive integer"):
            twin_path_experiment(np.inf, 1.0, d, [], 0.1, 1e-3, 2)
    with pytest.raises(ValueError, match="^x0 must be 2 finite numbers"):
        twin_path_experiment(np.inf, 1.0, 2, [1.0], 0.1, 1e-3, 2)


def test_mc_moment_and_eval_poly():
    states = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(eval_poly({(1, 1): 1.0}, states), [2.0, 12.0])
    assert np.array_equal(eval_poly({(np.int64(2), 1.0): 1.0}, states), [2.0, 36.0])
    est = mc_moment(np.ones((10, 2)), {(0, 0): 1.0})
    assert est.estimate == 1.0 and est.stderr == 0.0 and est.n == 10
    ens = sphere_ensemble(SkewDrive.elementary(3), np.array([1.0, 0, 0]),
                          T=0.2, h=1e-2, seed=3, n_paths=500)
    q_norm = {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0}
    est = mc_moment(ens.terminal, q_norm)
    assert est.estimate == pytest.approx(1.0, abs=1e-12)
    assert est.stderr <= 1e-12


def test_eval_poly_rejects_malformed_exponents():
    states = np.array([[0.5, 0.2, 0.1], [0.3, 0.4, 0.9]])
    for e in ((1,), (1, 0), (1, 0, 0, 0), (-1, 0, 0), (0.5, 0, 0), ("a", 0, 0)):
        with pytest.raises(ValueError, match="exponent"):
            eval_poly({e: 1.0}, states)
        with pytest.raises(ValueError, match="exponent"):
            mc_moment(states, {e: 1.0})


def _chunk_runs():
    """Every _run_block branch, on a few paths and steps; returns all outputs."""
    e3 = SkewDrive(0.7 * skew_basis(3)[0], skew_basis(3))
    e5 = SkewDrive.elementary(5)
    turn = SkewDrive(np.array([[0.0, 1.5], [-1.5, 0.0]]), np.zeros((0, 2, 2)))
    x3 = np.array([0.0, 0.6, 0.8])
    ens = [
        sphere_ensemble(e3, x3, 0.05, 1e-3, 3, 5),                      # _rot3_apply
        sphere_ensemble(e5, np.eye(5)[0], 0.02, 1e-3, 4, 3),             # expm_skew
        sphere_ensemble(turn, np.array([0.6, 0.8]), 0.02, 1e-3, 5, 2),  # constant
        ball_ensemble(np.array([0.1, 0.0, -0.2]), -np.eye(3), 0.5 * np.eye(3), e3,
                      0.5 * x3, 0.03, 1e-3, 6, 4),                       # radial + drive
        ensemble(BallModel.scalar(2.0, 1.0, 1), [0.5], 0.05, 1e-3, 7, 3),
    ]
    last, last_paths = kept_run(ensemble, BallModel.scalar(1.0, 0.5, 2), [0.3, 0.1],
                                0.041, 1e-3, 8, 3)
    ens.append(last)
    out = [np.concatenate([r.terminal.ravel(), r.max_radius,
                           [r.max_norm_dev, r.clamp_fraction]]) for r in ens]
    out.append(last_paths.ravel())
    out.append(kept_run(ball_ensemble, np.zeros(2), -np.eye(2), np.eye(2),
                        SkewDrive.elementary(2), np.array([0.2, 0.1]), 0.037, 1e-3, 9,
                        1)[1][0].ravel())
    out.append(kept_run(sphere_ensemble, e3, x3, 0.031, 1e-3, 10, 8)[1][7].ravel())
    out.append(twin_path_experiment(1.0, 1.0, 2, np.array([0.6, 0.8]), 0.03, 1e-3, 3,
                                    seed=11, eps=1e-3).max_divergence)
    return out


def test_noise_chunk_length_does_not_change_outputs(monkeypatch):
    ref = _chunk_runs()
    for values in (1, 7, 100):
        monkeypatch.setattr(simulate, "_NOISE_VALUES", values)
        for a, b in zip(ref, _chunk_runs()):
            assert a.tobytes() == b.tobytes(), values


def test_path_normals_is_the_integers_stream():
    for seed in (0, 42, 2 ** 63 - 1):
        for pid in (0, 5):
            gen = np.random.Generator(np.random.Philox(key=np.array([seed, pid], np.uint64)))
            u = (gen.integers(0, 2 ** 53, size=(50, 3), dtype=np.int64) + 0.5) * 2.0 ** -53
            assert path_normals(seed, pid, 50, 3).tobytes() == ndtri(u).tobytes()
    assert path_normals(2 ** 64 - 1, 0, 4, 2).shape == (4, 2)
    assert not np.array_equal(path_normals(2 ** 64 - 1, 0, 4, 2), path_normals(0, 0, 4, 2))
    assert not np.array_equal(path_normals(2 ** 63, 0, 4, 2), path_normals(2 ** 63 + 1, 0, 4, 2))


def test_streams_are_philox_keyed_by_seed_and_path_id():
    ids = [0, 1, 2 ** 63, 2 ** 64 - 1]
    for seed in (0, 2 ** 64 - 1):
        # the shared key is rewritten for every later stream: the first keeps its own
        streams = simulate._streams(seed, ids)
        for pid, gen in zip(ids, streams):
            ref = np.random.Philox(key=np.array([seed, pid], dtype=np.uint64))
            got, want = gen.bit_generator.state["state"], ref.state["state"]
            assert got["key"].tolist() == want["key"].tolist() == [seed, pid]
            assert got["counter"].tolist() == want["counter"].tolist() == [0, 0, 0, 0]
            assert gen.random(9).tobytes() == np.random.Generator(ref).random(9).tobytes()
    key = simulate._PathKey(5)
    for n_words, dtype in ((1, np.uint64), (4, np.uint64), (2, np.uint32)):
        with pytest.raises(ValueError, match="2 uint64 words"):
            key.generate_state(n_words, dtype)


def test_streams_hold_no_more_memory_than_keyed_philox():
    def held(build):
        tracemalloc.start()
        try:
            streams = build()
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(streams) == 4096
        return size

    def keyed(n):
        return [np.random.Generator(np.random.Philox(key=np.array([3, p], dtype=np.uint64)))
                for p in range(n)]

    # warmed up outside the count: numpy.random's import and first-use caches
    keyed(2), simulate._streams(3, range(2))
    # about 2.5 MB each; the one key that all streams share is 0.2 kB, where
    # one small object per stream would add hundreds of kB
    assert held(lambda: simulate._streams(3, range(4096))) <= held(lambda: keyed(4096)) + 1024


def test_bool_seed_and_path_id_are_refused():
    drive, x0 = SkewDrive.elementary(3), np.array([1.0, 0.0, 0.0])
    for flag in (True, False):
        with pytest.raises(ValueError, match="^seed must be an integer"):
            sphere_ensemble(drive, x0, 0.1, 1e-2, flag, 2)
        with pytest.raises(ValueError, match="^path_id must be an integer"):
            path_normals(0, flag, 3, 2)


def test_ensemble_noise_is_the_path_normals_stream():
    # radial-only Brownian motion from the centre: each increment reveals its normal
    n, steps, h = 3, 40, 1e-6
    _, paths = kept_run(ball_ensemble, np.zeros(1), np.zeros((1, 1)), np.eye(1),
                        SkewDrive.zero(1), [0.0], steps * h, h, 13, n)
    x = paths[:, :, 0]
    z = np.diff(x, axis=1) / (np.sqrt(1.0 - x[:, :-1] ** 2) * np.sqrt(h))
    for pid in range(n):
        assert np.allclose(z[pid], path_normals(13, pid, steps, 1)[:, 0], rtol=1e-6, atol=1e-6)


def test_simulation_rejects_bad_inputs():
    drive = SkewDrive.elementary(3)
    x0 = np.array([1.0, 0.0, 0.0])
    for seed in (-1, 2 ** 64, 2.7, "3", None):
        with pytest.raises(ValueError):
            sphere_ensemble(drive, x0, 0.1, 1e-2, seed, 2)
        with pytest.raises(ValueError):
            path_normals(seed, 0, 3, 2)
    with pytest.raises(ValueError):
        path_normals(0, -1, 3, 2)
    for n_steps, n_cols, name in ((-1, 3, "n_steps"), (2.5, 3, "n_steps"),
                                  (3, -1, "n_cols"), (3, 2.5, "n_cols")):
        with pytest.raises(ValueError, match=f"^{name} must be a nonnegative integer"):
            path_normals(0, 0, n_steps, n_cols)
    with pytest.raises(ValueError):
        sphere_ensemble(drive, x0, 0.1, 1e-2, 0, 0)
    for n in (2.5, True):
        with pytest.raises(ValueError, match="n_paths"):
            sphere_ensemble(drive, x0, 0.1, 1e-2, 0, n)
    with pytest.raises(ValueError, match="n_seeds"):
        twin_path_experiment(1.0, 1.0, 1, np.array([1.0]), 0.1, 1e-2, 0)
    for a0 in (np.zeros((3, 2)), np.zeros(3)):
        with pytest.raises(ValueError, match="a0"):
            SkewDrive(a0, np.zeros((0, 3, 3)))
    with pytest.raises(ValueError, match="states"):
        mc_moment(np.zeros((0, 3)), {(0, 0, 0): 1.0})
    for shape in ((2, 3), (0, 0)):
        with pytest.raises(ValueError, match="M must be an n x n matrix"):
            expm_skew(np.zeros(shape))
    for T, h in ((np.inf, 1e-2), (1.0, np.inf), (np.nan, 1e-2), (1.0, np.nan), (1e300, 1e-300)):
        with pytest.raises(ValueError):
            sphere_ensemble(drive, x0, T, h, 0, 2)


def test_block_noise_memory_is_bounded():
    tracemalloc.start()
    try:
        ensemble(BallModel.scalar(2.0, 1.0, 3), np.zeros(3), 2.0, 1e-3, 1, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # all of the noise at once would be 1024 x 2000 x 3 x 8 B = 49 MB
    assert peak < 24e6


def test_sink_pieces_are_path_major_and_no_larger_than_a_noise_chunk(monkeypatch):
    # 300 noise values hold 20 steps of 5 three-column paths, or 100 steps of one.
    monkeypatch.setattr(simulate, "_NOISE_VALUES", 300)
    for n_paths, T, n_pieces in ((12, 0.02, 3), (3, 0.5, 15)):
        kept = Kept()
        ens = ensemble(BallModel.scalar(2.0, 1.0, 3), np.zeros(3), T, 1e-3, 1,
                       n_paths, sink=kept)
        assert kept.paths.shape == (n_paths, len(ens.times), 3)
        assert kept.times.tobytes() == ens.times.tobytes()
        assert len(kept.pieces) == n_pieces
        for first, times, states in kept.pieces:
            n, k, _ = states.shape
            assert n * (k - (times[0] == 0.0)) * 3 <= 300


def _twin_from_two_ensembles(kappa, nu, d, x0, T, h, n_seeds, seed, eps):
    """max_divergence from two whole kept ensembles of the model, X from x0 and X~ from
    (1 - eps) x0."""
    model, run = BallModel.scalar(kappa, nu, d), (T, h, seed, n_seeds)
    _, a = kept_run(ensemble, model, x0, *run)
    _, b = kept_run(ensemble, model, (1.0 - eps) * x0, *run)
    return np.linalg.norm(a - b, axis=2).max(axis=1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_twin_divergence_matches_two_ensembles(monkeypatch, d):
    x0 = np.ones(d) / np.sqrt(d)
    for eps in (0.0, 1e-3, 1e-8):
        for seed in range(5):
            args = (1.0, 0.7, d, x0, 0.05, 1e-3, 5, seed, eps)
            ref = _twin_from_two_ensembles(*args)
            with monkeypatch.context() as patch:
                # The twin runs its pairs as one block of 10 rows, which _BLOCK = 5
                # does not split; 8 d noise values step it in chunks of one step,
                # where unpatched it takes all 50 steps in one chunk.
                patch.setattr(simulate, "_BLOCK", 5)
                patch.setattr(simulate, "_NOISE_VALUES", 8 * d)
                split = twin_path_experiment(*args[:7], seed=seed, eps=eps).max_divergence
            whole = twin_path_experiment(*args[:7], seed=seed, eps=eps).max_divergence
            assert whole.tobytes() == ref.tobytes(), (eps, seed)
            assert split.tobytes() == ref.tobytes(), (eps, seed)
            assert (ref == 0).all() == (eps == 0.0)


def test_twin_memory_does_not_grow_with_steps(monkeypatch):
    monkeypatch.setattr(simulate, "_NOISE_VALUES", 1 << 10)
    for steps in (1000, 4000):
        tracemalloc.start()
        try:
            twin_path_experiment(1.0, 1.0, 2, np.array([0.6, 0.8]), 1.0,
                                 1.0 / steps, 16, seed=1, eps=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two whole 16-path ensembles would be 2 x 16 x 1001 x 2 x 8 B = 0.5 MB at
        # 1000 steps, and four times that at 4000
        assert peak < 1e6, steps


def _reference_streams(seed, path_ids):
    """Bare Philox streams and the uint64 fill below: the noise before Generator.random."""
    return [np.random.Philox(key=np.array([seed, p], dtype=np.uint64)) for p in path_ids]


def _reference_normals_into(streams, raw, out):
    for row, bg in enumerate(streams):
        raw[row] = bg.random_raw(raw.shape[1:])
    np.right_shift(raw, 11, out=raw)
    np.add(raw, 0.5, out=out)
    out *= 2.0 ** -53
    ndtri(out, out=out)


# The closed-form rotations at d = 2, 3 and 4 (each tested against expm_skew
# below).
_KERNELS = {2: simulate._rot2_apply, 3: simulate._rot3_apply, 4: simulate._rot4_apply}


def _reference_run_block(drive, x0s, n_steps, h, streams, bhat, Bhat, sqrt_alpha, paths,
                         noise_values):
    """The step loop of _run_block as it was before per-chunk bookkeeping, verbatim."""
    expm_skew = simulate.expm_skew
    _CLAMP, _normals_into = simulate._CLAMP, _reference_normals_into
    d = drive.d
    m = drive.n_diffusion
    radial = bhat is not None
    n_cols = m + (d if radial else 0)
    B = len(streams)
    chunk = min(n_steps, max(1, noise_values // max(1, B * n_cols)))
    raw = np.empty((B, chunk, n_cols), dtype=np.uint64)
    noise = np.empty((B, chunk, n_cols))

    X = np.array(x0s, dtype=float)
    if paths is not None:
        paths[:, 0] = X
    sqh = np.sqrt(h)
    As = drive.diffusion
    rotate = m > 0 or np.abs(drive.a0).max() > 0
    Q_const = expm_skew(drive.a0 * h) if (rotate and m == 0) else None
    closed = rotate and m > 0 and d in _KERNELS
    if closed:
        from quadricdiff.skew import skew_to_vec

        Avec = np.array([skew_to_vec(A) for A in As])
        h_a0vec = h * skew_to_vec(drive.a0)
        if not h_a0vec.any():
            h_a0vec = None
    norms = np.linalg.norm(X, axis=1)
    max_radius = norms.copy()
    max_norm_dev = np.abs(norms - 1.0).max() if not radial else 0.0
    clamps = 0

    for step in range(n_steps):
        j = step % chunk
        if j == 0 and n_cols:
            # The last chunk may be shorter; slicing past chunk clamps to it.
            left = n_steps - step
            _normals_into(streams, raw[:, :left], noise[:, :left])
        if rotate:
            if m == 0:
                X = X @ Q_const.T
            elif closed:
                dW = noise[:, j, :m] * sqh
                # A lone column goes in twice, for gemm, as in simulate._product.
                w = (dW @ np.tile(Avec, 1 + (Avec.shape[1] == 1)))[:, :Avec.shape[1]]
                X = _KERNELS[d]((w if h_a0vec is None else w + h_a0vec).T, X.T).T
            else:
                dW = noise[:, j, :m] * sqh
                M = np.einsum("bp,pij->bij", dW, As)
                if np.abs(drive.a0).max() > 0:
                    M += drive.a0 * h
                Q = expm_skew(M)
                X = np.einsum("bij,bj->bi", Q, X)
        if radial:
            r2 = np.add.reduce(X * X, axis=1)
            fac = np.sqrt(np.clip(1.0 - r2, 0.0, None))
            dWr = noise[:, j, m:] * sqh
            X = X + (bhat + X @ Bhat.T) * h + fac[:, None] * (dWr @ sqrt_alpha.T)
            nrm = np.linalg.norm(X, axis=1)
            over = nrm > 1.0
            if np.any(over):
                clamps += int(over.sum())
                X[over] *= (_CLAMP / nrm[over])[:, None]
            np.maximum(max_radius, np.linalg.norm(X, axis=1), out=max_radius)
        else:
            nrm = np.linalg.norm(X, axis=1)
            max_norm_dev = max(max_norm_dev, np.abs(nrm - 1.0).max())
            np.maximum(max_radius, nrm, out=max_radius)
        if paths is not None:
            paths[:, step + 1] = X
    return X, max_radius, max_norm_dev, clamps


def _reference_cases():
    """(name, drive, x0, ball arguments or None, n_paths, n_steps, h) for each branch."""
    a3 = 0.7 * skew_basis(3)[0] - 0.4 * skew_basis(3)[2]
    a4 = sum(c * A for c, A in zip((0.9, -0.3, 0.5, 0.2, -1.1, 0.4), skew_basis(4)))
    e3 = np.array([0.0, 0.6, 0.8])
    e4 = np.array([0.5, -0.5, 0.5, 0.5])
    scalar = lambda d, kappa, nu: (np.zeros(d), -kappa * np.eye(d), nu ** 2 * np.eye(d))
    # Two non-elementary directions at d = 2: the rotation's one upper entry is
    # a one-row product with two terms.
    d2 = SkewDrive(np.zeros((2, 2)), np.array([0.8, -1.3])[:, None, None] * skew_basis(2)[0])
    return [
        ("sphere d2 two directions", d2, np.array([0.6, 0.8]), None, 5, 37, 1e-3),
        ("sphere d3 one path", SkewDrive.elementary(3), e3, None, 1, 37, 1e-3),
        ("ball d3 drive, clamps, one path", SkewDrive(a3, skew_basis(3)), 0.999 * e3,
         scalar(3, 0.2, 1.0), 1, 60, 1e-2),
        ("sphere d3", SkewDrive.elementary(3), e3, None, 5, 37, 1e-3),
        ("sphere d3 A0", SkewDrive(a3, skew_basis(3)), e3, None, 5, 37, 1e-3),
        ("sphere d4 A0", SkewDrive(a4, skew_basis(4)), e4, None, 4, 23, 2e-3),
        ("ball d3 drive, clamps", SkewDrive(a3, skew_basis(3)), 0.999 * e3,
         scalar(3, 0.2, 1.0), 6, 60, 1e-2),
        ("jacobi d1", SkewDrive.zero(1), np.array([0.5]), scalar(1, 2.0, 1.0), 7, 41, 1e-3),
        ("constant-rotation ball", SkewDrive(np.array([[0.0, 1.5], [-1.5, 0.0]]),
                                             np.zeros((0, 2, 2))),
         np.array([0.3, 0.4]), (np.array([0.1, -0.2]), -np.eye(2), 0.5 * np.eye(2)),
         3, 29, 1e-3),
    ]


# 1 << 20 values, like the default _NOISE_VALUES, hold every case in one chunk.
@pytest.mark.parametrize("noise_values", [1, 7, 1 << 20])
def test_run_block_matches_reference_loop(monkeypatch, noise_values):
    monkeypatch.setattr(simulate, "_NOISE_VALUES", noise_values)
    for name, drive, x0, ball, n, steps, h in _reference_cases():
        if ball is None:
            radial = (None, None, None)
        else:
            bhat, Bhat, sqa, x0 = simulate._ball_args(*ball, drive, x0)
            radial = (bhat, Bhat, sqa)
        x0s = np.tile(x0, (n, 1))
        got_paths = np.empty((n, steps + 1, drive.d))
        ref_paths = np.empty_like(got_paths)

        def into(i, states):
            # A block's chunks span all its paths: pieces are time-major here.
            got_paths[:, i:i + states.shape[1]] = states

        got = simulate._run_block(drive, x0s, steps, h, simulate._streams(11, range(n)),
                                  *radial, into)
        ref = _reference_run_block(drive, x0s, steps, h, _reference_streams(11, range(n)),
                                   *radial, ref_paths, noise_values)
        for g, r in zip(got[:3], ref[:3]):
            assert np.asarray(g).tobytes() == np.asarray(r).tobytes(), name
        assert got[3] == ref[3], name
        assert got_paths.tobytes() == ref_paths.tobytes(), name
        # without kept paths the loop takes the same steps
        bare = simulate._run_block(drive, x0s, steps, h, simulate._streams(11, range(n)),
                                   *radial, None)
        assert bare[0].tobytes() == ref[0].tobytes(), name
        if name.startswith("ball"):
            assert ref[3] > 0, "the clamp case must clamp"


def _gemm_times_paths(M, X):
    """M @ X with every product, one-column ones included, through gemm."""
    rows, paths = len(M), X.shape[1]
    return (np.tile(M, (1 + (rows == 1), 1)) @ np.tile(X, 1 + (paths == 1)))[:rows, :paths]


def _left_to_right(x):
    total = float(x[0]) * float(x[0])
    for v in x[1:]:
        total = total + float(v) * float(v)
    return total


@pytest.mark.parametrize("d", range(1, 10))
def test_squared_norm_sums_left_to_right(d):
    # One |x|^2 for the radial factor, the start norms, the step norms and the
    # clamp: x_1^2 + x_2^2 + ... in that order, one path or many, where
    # add.reduce and einsum pick their order by d and by the CPU.
    X = np.random.default_rng(d).standard_normal((d, 500)) * np.logspace(-3, 3, 500)
    want = np.array([_left_to_right(x) for x in X.T])
    assert simulate._sq_norms(X).tobytes() == want.tobytes()
    assert simulate._sq_norms(X[:, 7:8]).tobytes() == want[7:8].tobytes()
    # and the step loop's norms are these: each path's largest radius is
    # that of one of its kept states, the clamped ones included
    drive, x0, ball = _clamping_ball(d, 200 + d)
    result, paths = kept_run(ball_ensemble, *ball, drive, x0, 0.3, 1e-2, 5, 6)
    assert result.clamp_fraction > 0
    radii = np.sqrt([[_left_to_right(x) for x in path] for path in paths])
    assert result.max_radius.tobytes() == radii.max(axis=1).tobytes()


def test_midpoint_map_is_exact():
    # fl(k 2**-53 + 2**-54) == fl(k + 1/2) 2**-53: rounding commutes with 2**-53
    special = np.array([0, 1, 2 ** 52 - 1, 2 ** 52, 2 ** 52 + 1, 2 ** 53 - 1], dtype=np.uint64)
    draws = np.random.default_rng(53).integers(0, 2 ** 53, size=100_000, dtype=np.uint64)
    for k in (special, draws):
        new = k.astype(float) * 2.0 ** -53 + 2.0 ** -54
        old = np.add(k, 0.5) * 2.0 ** -53
        assert new.tobytes() == old.tobytes()


def _clamping_ball(d, seed):
    """A ball drive, start point and (bhat, Bhat, alpha) whose paths hit the sphere often.

    alpha and Bhat are not diagonal, so the products of a state with them round.
    """
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, d))
    alpha = A @ A.T / d + 0.3 * np.eye(d)
    G = rng.standard_normal((d, d))
    Bhat = -0.05 * (G @ G.T) / d - 0.02 * np.eye(d)
    bhat = rng.uniform(-0.2, 0.2, d)
    drive = SkewDrive.zero(1) if d == 1 else SkewDrive(0.7 * skew_basis(d)[0], skew_basis(d))
    x0 = rng.standard_normal(d)
    return drive, 0.995 * x0 / np.linalg.norm(x0), (bhat, Bhat, alpha)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("chunk", [None, 7])
def test_run_block_matches_reference_loop_at_1024_paths(monkeypatch, d, chunk):
    # numpy takes other inner loops for 1024 rows than for a few.  Chunks of 7
    # steps split the 30 steps five ways, so the helper thread maps chunk k + 1
    # while chunk k is stepped.
    drive, x0, ball = _clamping_ball(d, 100 + d)
    noise_values = simulate._NOISE_VALUES if chunk is None else 1024 * 7 * (drive.n_diffusion + d)
    monkeypatch.setattr(simulate, "_NOISE_VALUES", noise_values)
    n, steps, h = 1024, 30, 1e-2
    bhat, Bhat, sqa, x0 = simulate._ball_args(*ball, drive, x0)
    x0s = np.tile(x0, (n, 1))
    got_paths = np.empty((n, steps + 1, d))
    ref_paths = np.empty_like(got_paths)

    def into(i, states):
        got_paths[:, i:i + states.shape[1]] = states

    stats = simulate._new_stats()
    got = simulate._run_block(drive, x0s, steps, h, simulate._streams(3, range(n)),
                              bhat, Bhat, sqa, into, stats)
    ref = _reference_run_block(drive, x0s, steps, h, _reference_streams(3, range(n)),
                               bhat, Bhat, sqa, ref_paths, noise_values)
    for g, r in zip(got[:3], ref[:3]):
        assert np.asarray(g).tobytes() == np.asarray(r).tobytes()
    assert got[3] == ref[3] == stats["clamps"]
    assert ref[3] > 0.02 * n * steps, "the case must clamp often"
    assert got_paths.tobytes() == ref_paths.tobytes()
    assert stats["chunks"] == (1 if chunk is None else 5)


def _noise_threads():
    return [t for t in threading.enumerate() if t.name.startswith("quadricdiff-noise")]


def test_noise_helper_thread_ends_with_its_block(monkeypatch):
    # 300 noise values hold 100 steps of one three-column path: 5 chunks a
    # path, or one chunk for 20 steps of three paths.
    monkeypatch.setattr(simulate, "_NOISE_VALUES", 300)
    mapped_on = []
    normals_from_uniforms = simulate._normals_from_uniforms

    def recorded(out, ndtri, scale=1.0):
        mapped_on.append(threading.current_thread().name)
        normals_from_uniforms(out, ndtri, scale)

    run = (BallModel.scalar(2.0, 1.0, 3), np.zeros(3), 0.5, 1e-3, 1, 3)
    short = run[:2] + (0.02,) + run[3:]
    for args, chunks in ((run, 15), (short, 1)):
        alive, mapped_on[:] = [], []
        with monkeypatch.context() as patch:
            patch.setattr(simulate, "_normals_from_uniforms", recorded)
            result = ensemble(
                *args, sink=lambda *piece: alive.append(len(_noise_threads())))
        assert result.stats["chunks"] == chunks
        assert alive == [1] * chunks, "each block's helper is alive while it is stepped"
        assert len(mapped_on) == chunks
        assert all(name.startswith("quadricdiff-noise") for name in mapped_on), \
            "the helper maps every chunk, a block's only chunk included"
        assert _noise_threads() == []

    class Refused(Exception):
        pass

    def refuse(first, times, states):
        if first == 1:
            raise Refused

    with pytest.raises(Refused):
        ensemble(*run, sink=refuse)
    assert _noise_threads() == []

    def broken(out, ndtri, scale=1.0):
        if threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("noise thread")
        ndtri(out, out=out)

    monkeypatch.setattr(simulate, "_normals_from_uniforms", broken)
    with pytest.raises(FloatingPointError, match="noise thread"):
        ensemble(*run)
    assert _noise_threads() == []


def test_chunks_in_flight_under_thread_contention(monkeypatch):
    # Three ensembles at once, each with its noise helper: six threads on fewer
    # cores, switching every microsecond, and chunks of one step, so the two
    # noise buffers change hands at every step.
    run = (np.zeros(3), -0.2 * np.eye(3), np.eye(3), SkewDrive.elementary(3),
           np.array([0.5, 0.5, 0.5]), 0.1, 1e-3)
    ref = [ball_ensemble(*run, seed, 8).terminal for seed in range(3)]
    monkeypatch.setattr(simulate, "_NOISE_VALUES", 8 * 6)
    got = [None] * 3

    def work(i):
        got[i] = ball_ensemble(*run, i, 8)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for want, ens in zip(ref, got):
        assert ens.stats["chunks"] == 100
        assert ens.terminal.tobytes() == want.tobytes()
    assert _noise_threads() == []


@pytest.mark.parametrize("d", [2, 3, 4])
def test_closed_form_rotation_matches_expm_skew(d):
    # Bounds fixed before the kernels were written, on 9,000 rows at scales
    # 1e-8 to 1e6: rows that need no squaring within 2e-15 of expm_skew, rows
    # that need squarings within 1e-15 (1 + |w|) of it, and R^T R within 2e-15
    # of I (4e-15 at d = 3, where the M^2 term of Rodrigues' formula adds
    # its own roundoff).
    kernel = _KERNELS[d]
    rng = np.random.default_rng(20 + d)
    m = skew_dim(d)
    scales = np.repeat([1e-8, 0.03, 0.3, 1.0, 2.0, 3.0, 30.0, 1e3, 1e6], 1000)
    w = rng.standard_normal((len(scales), m)) * scales[:, None]
    n = len(w)
    rows, cols = np.triu_indices(d, 1)
    M = np.zeros((n, d, d))
    M[:, rows, cols] = w
    M[:, cols, rows] = -w
    ref = expm_skew(M)
    plain = np.abs(M).sum(axis=1).max(axis=1) <= simulate._PADE[13][1]
    assert plain.sum() > 3000 and (~plain).sum() > 2000
    R = np.stack([kernel(w.T, np.tile(e, (n, 1)).T).T for e in np.eye(d)], axis=2)
    err = np.abs(R - ref).max(axis=(1, 2))
    assert err[plain].max() <= 2e-15
    assert np.all(err[~plain] <= 1e-15 * (1.0 + np.linalg.norm(w[~plain], axis=1)))
    orth = np.abs(np.einsum("bki,bkj->bij", R, R) - np.eye(d)).max(axis=(1, 2))
    assert orth.max() <= (4e-15 if d == 3 else 2e-15)
    X = rng.standard_normal((n, d))
    assert kernel(np.zeros((m, 5)), X[:5].T).T.tobytes() == X[:5].tobytes()
    # a path's result does not depend on its neighbours, and the rotation
    # substep hands the kernel w + h vec(A_0)
    h_a0 = 0.01 * rng.standard_normal(m)
    RX = kernel((w + h_a0).T, X.T).T
    for i in range(0, n, 97):
        assert RX[i].tobytes() == kernel((w[i:i + 1] + h_a0).T, X[i:i + 1].T).T.tobytes()
    rotate = simulate._rotation(SkewDrive(vec_to_skew(h_a0, d), skew_basis(d)), 1.0, n)
    assert rotate(w.T, X.T).T.tobytes() == RX.tobytes()
    # and a path does not depend on the other paths of its ensemble
    x0 = np.ones(d) / np.sqrt(d)
    drive = SkewDrive(0.5 * skew_basis(d)[-1], skew_basis(d))
    _, one = kept_run(sphere_ensemble, drive, x0, 0.02, 1e-3, 4, 1)
    _, five = kept_run(sphere_ensemble, drive, x0, 0.02, 1e-3, 4, 5)
    assert one[0].tobytes() == five[0].tobytes()


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_every_rotation_refuses_a_norm_past_52_squarings(d):
    # One refusal, in _squarings, for every kernel and for expm_skew: a row
    # whose 1-norm is past theta_13 * 2**52, infinite or NaN.  The d >= 5
    # kernel's expm_skew refuses past _EXPM_SQUARINGS already, by the same rule.
    kernel = _KERNELS.get(d, simulate._rot_expm)
    m = skew_dim(d)
    w = np.random.default_rng(d).standard_normal((4, m))
    X = np.tile(np.eye(d)[0], (4, 1))
    rows, cols = np.triu_indices(d, 1)
    for big in (1.1 * simulate._PADE[13][1] * 2.0 ** 52, np.inf, np.nan):
        bad = w.copy()
        bad[2, -1] = big
        M = np.zeros((4, d, d))
        M[:, rows, cols] = bad
        M[:, cols, rows] = -bad
        with pytest.raises(ValueError, match="of at most 2.42e[+]16, got a 1-norm of") as want:
            expm_skew(M)
        with pytest.raises(ValueError) as got:
            kernel(bad.T, X.T)
        if d in _KERNELS:
            assert str(got.value) == str(want.value)
        else:
            assert str(got.value).startswith("M must be finite with a 1-norm of at most 43, ")


def _turning_ensemble(d, scale, diffusion, T=1.0):
    G = np.random.default_rng(1).standard_normal((d, d))
    noise = 0.1 * np.array(skew_basis(d)) if diffusion else np.zeros((0, d, d))
    return sphere_ensemble(SkewDrive(scale * (G - G.T), noise), np.eye(d)[0], T, 0.1, 0, 64)


def test_expm_rotations_refuse_past_the_norm_bound():
    # expm_skew's norm drifts by about 2**s u after s squarings.  Without a cap,
    # d = 5 with h A_0 of 1-norm 4.5e5 (17 squarings) read max_norm_dev 4.6e-11,
    # and the drift-only Q at d = 3 (1-norm 3.0e5) 4.1e-11 by T = 10, against the
    # 1e-12 sphere_ensemble keeps.  Both are refused now; the closed forms at
    # d = 3 and 4 keep the sphere at the same sizes.
    cap = "M must be finite with a 1-norm of at most 43, got a 1-norm of"
    for d, scale, diffusion, T in ((5, 1e6, True, 1.0), (5, 1e9, True, 1.0),
                                   (3, 1e6, False, 10.0)):
        with pytest.raises(ValueError, match=cap):
            _turning_ensemble(d, scale, diffusion, T)
    for d in (3, 4):
        assert _turning_ensemble(d, 1e6, True).max_norm_dev <= 1e-14
    # The cap is theta_13 * 2**3: a 1-norm on it takes 3 squarings, one above it is refused.
    top = simulate._PADE[13][1] * 2.0 ** simulate._EXPM_SQUARINGS
    X = np.tile(np.eye(5)[0], (2, 1)).T
    for norm1, ok in ((top, True), (np.nextafter(top, np.inf), False)):
        w = np.zeros((skew_dim(5), 2))
        w[0] = norm1
        if ok:
            assert np.abs(np.linalg.norm(simulate._rot_expm(w, X), axis=0) - 1).max() <= 1e-15
            Q = simulate._rotation(SkewDrive(vec_to_skew(w[:, 0], 5), []), 1.0, 2)
            assert Q is not None
        else:
            with pytest.raises(ValueError, match=cap):
                simulate._rot_expm(w, X)
            with pytest.raises(ValueError, match=cap):
                simulate._rotation(SkewDrive(vec_to_skew(w[:, 0], 5), []), 1.0, 2)


def test_expm_skew_refuses_a_norm_past_52_squarings():
    # The s squarings multiply the approximant's roundoff by 2**s; past 52 of
    # them nothing of the result is left (and from 64 the old grouping key ran
    # into the degree: a KeyError).  A stack mixing 52 squarings with ordinary
    # matrices still equals its per-matrix calls.
    rng = np.random.default_rng(52)
    M = rng.standard_normal((6, 3, 3))
    M -= M.transpose(0, 2, 1)
    top = simulate._PADE[13][1] * 2.0 ** 52
    M[1] *= 1e-3
    M[3] *= 0.9 * top / np.abs(M[3]).sum(axis=0).max()
    M[4] *= 1e12
    R = expm_skew(M)
    for i in range(len(M)):
        assert np.array_equal(expm_skew(M[i]), R[i])
    for big in (1e20, 1.1 * top, np.inf, np.nan):
        bad = M.copy()
        bad[2, 0, 1], bad[2, 1, 0] = big, -big
        with pytest.raises(ValueError, match="M must be finite with a 1-norm of at most"):
            expm_skew(bad)


def test_ensemble_stats_count_chunks_and_clamps(monkeypatch):
    # 240 noise values hold 16 steps of five three-column paths.
    monkeypatch.setattr(simulate, "_NOISE_VALUES", 240)
    drive, x0, (bhat, Bhat, alpha) = _clamping_ball(3, 7)
    ens = ball_ensemble(bhat, Bhat, alpha, SkewDrive.zero(3), x0, 0.5, 1e-2, 7, 5)
    st = ens.stats
    assert st["scheme_version"] == simulate._SCHEME_VERSION
    assert (st["chunks"], st["chunk_steps"]) == (4, 16)
    assert st["noise_bytes"] == 2 * 5 * 16 * 3 * 8
    assert st["clamps"] > 0 and st["clamps"] == round(ens.clamp_fraction * 5 * 50)
    assert st["step_s"] > 0 and st["noise_wait_s"] >= 0
    # blocks of 3 and 2 paths: 26 and 40 steps a chunk, two chunks each, and
    # the block of 2 holds the larger buffers
    monkeypatch.setattr(simulate, "_BLOCK", 3)
    split = ball_ensemble(bhat, Bhat, alpha, SkewDrive.zero(3), x0, 0.5, 1e-2, 7, 5).stats
    assert (split["chunks"], split["chunk_steps"], split["clamps"]) == (4, 40, st["clamps"])
    assert split["noise_bytes"] == 2 * 2 * 40 * 3 * 8


def test_one_step_larger_than_a_chunk_caps_the_block(monkeypatch):
    # A step of one path of six noise columns draws 6 values, more than a
    # chunk of 4: every block holds one path, whether or not it is kept, its
    # chunks are one step long, and the helper maps them into two one-step
    # buffers in turn.
    run = (np.zeros(3), -0.2 * np.eye(3), np.eye(3), SkewDrive.elementary(3),
           np.array([0.5, 0.5, 0.5]), 0.01, 1e-3, 5, 8)
    whole = ball_ensemble(*run)
    monkeypatch.setattr(simulate, "_NOISE_VALUES", 4)
    ens = ball_ensemble(*run)
    assert ens.terminal.tobytes() == whole.terminal.tobytes()
    # 8 one-path blocks of ten one-step chunks
    assert (ens.stats["chunks"], ens.stats["chunk_steps"]) == (80, 1)
    assert ens.stats["noise_bytes"] == 2 * 6 * 8
    alive, firsts = [], []

    def sink(first, times, states):
        alive.append(len(_noise_threads()))
        firsts.append((first, len(states)))

    kept = ball_ensemble(*run, sink=sink)
    assert kept.terminal.tobytes() == whole.terminal.tobytes()
    assert firsts == [(i, 1) for i in range(8) for _ in range(10)]
    assert alive == [1] * 80 and kept.stats["noise_bytes"] == 2 * 6 * 8


def _doubles_near_one(ulps):
    """Every double within ``ulps`` ulps of 1, in order (ulps of the double above)."""
    one = np.array(1.0).view(np.int64)
    return (one + np.arange(-ulps, ulps + 1)).view(np.float64)


def test_clamp_threshold_is_the_rooted_test():
    # The clamp compares |x|^2 with the double after 1 instead of rooting
    # every path: the same verdict as sqrt(|x|^2) > 1 on every double near 1.
    r2 = _doubles_near_one(4000)
    assert np.array_equal(r2 > simulate._ABOVE_ONE, np.sqrt(r2) > 1.0)
    # 1 + 2u roots to 1, 1 + 4u to 1 + 2u: the threshold is neither 1 nor 1 + 4u
    assert simulate._ABOVE_ONE == 1.0 + 2.0 ** -52


def test_chunk_radii_equal_the_rooted_step_maxima():
    # Per-chunk roots of the largest and smallest |x|^2 give each path's
    # largest radius and the largest deviation from the sphere of rooting
    # every entry, with ties and entries a few ulps either side of 1.
    gen = np.random.default_rng(97)
    near = _doubles_near_one(6)
    for k, B in ((1, 1), (1, 5), (7, 1), (40, 33)):
        for spread in (0.0, 1e-15, 1e-9, 0.5):
            for _ in range(20):
                r2 = gen.choice(near, size=(k, B)) + spread * gen.standard_normal((k, B))
                r2 = np.abs(r2)
                r2[gen.random((k, B)) < 0.2] = r2.flat[0]    # ties
                top, dev = simulate._radii(r2)
                roots = np.sqrt(r2)
                assert top.tobytes() == roots.max(axis=0).tobytes()
                assert np.float64(dev).tobytes() == np.abs(roots - 1.0).max().tobytes()
    # each side of the deviation decides once
    assert simulate._radii(np.array([[1.0 - 2.0 ** -52, 1.0 + 2.0 ** -50]]).T)[1] == 2.0 ** -51
    assert simulate._radii(np.array([[1.0 - 2.0 ** -50, 1.0 + 2.0 ** -51]]).T)[1] == 2.0 ** -51


def test_stacked_half_turns_equal_one_call_each():
    # _rot4_apply turns both eigen-planes by one call on a (2, B) stack.
    gen = np.random.default_rng(41)
    B = 3000
    phi = gen.standard_normal((2, B)) * np.repeat([1e-8, 0.5, 3.0, 30.0, 1e6, 1e15], B // 6)
    s = simulate._squarings(np.abs(phi).max(axis=0))
    assert (s == 0).sum() > 1000 and (s > 0).sum() > 1000 and s.max() >= 45
    for rows in (slice(None), s == 0, s > 0):
        got = simulate._half_turn(phi[:, rows], s[rows])
        for i in range(2):
            want = simulate._half_turn(phi[i, rows], s[rows])
            assert got[0][i].tobytes() == want[0].tobytes()
            assert got[1][i].tobytes() == want[1].tobytes()


def _clamp_heavy_cases():
    """(name, drive, x0, ball arguments or None, n_paths, n_steps, h)."""
    cases = []
    for d in (1, 2, 3, 4):
        # kappa / nu^2 = 0.05, from the sphere: most steps overshoot it
        drive = (SkewDrive.zero(1) if d == 1
                 else SkewDrive(0.4 * skew_basis(d)[-1], skew_basis(d)))
        cases.append((f"scalar ball d{d}", drive, np.eye(d)[-1],
                      (np.zeros(d), -0.05 * np.eye(d), np.eye(d)), 48, 40, 1e-2))
    for d in (2, 3, 4, 5, 6):
        x0 = np.ones(d) / np.sqrt(d)
        cases.append((f"sphere d{d}", SkewDrive(0.3 * skew_basis(d)[0], skew_basis(d)),
                       x0, None, 24, 30, 1e-2))
    return cases


@pytest.mark.parametrize("noise_values", [1 << 20, 97])
def test_clamp_heavy_balls_and_spheres_match_reference_loop(monkeypatch, noise_values):
    monkeypatch.setattr(simulate, "_NOISE_VALUES", noise_values)
    for name, drive, x0, ball, n, steps, h in _clamp_heavy_cases():
        radial = (None, None, None)
        if ball is not None:
            bhat, Bhat, sqa, x0 = simulate._ball_args(*ball, drive, x0)
            radial = (bhat, Bhat, sqa)
        x0s = np.tile(x0, (n, 1))
        got_paths = np.empty((n, steps + 1, drive.d))
        ref_paths = np.empty_like(got_paths)

        def into(i, states):
            got_paths[:, i:i + states.shape[1]] = states

        stats = simulate._new_stats()
        got = simulate._run_block(drive, x0s, steps, h, simulate._streams(5, range(n)),
                                  *radial, into, stats)
        ref = _reference_run_block(drive, x0s, steps, h, _reference_streams(5, range(n)),
                                   *radial, ref_paths, noise_values)
        for g, r in zip(got[:3], ref[:3]):
            assert np.asarray(g).tobytes() == np.asarray(r).tobytes(), name
        assert got[3] == ref[3] == stats["clamps"], name
        assert got_paths.tobytes() == ref_paths.tobytes(), name
        if ball is not None:
            assert ref[3] > 0.1 * n * steps, f"{name} must clamp often"
        else:
            assert 0.0 < ref[2] < 1e-14, name


def _gemm_product(M, B):
    return lambda X: _gemm_times_paths(M, X)


def test_block_products_have_gemm_bits(monkeypatch):
    # The rule chosen once per block gives each product gemm's bits, call
    # after call through its one buffer.
    gen = np.random.default_rng(72)
    for rows in (1, 3, 6):
        for cols in (1, 3):
            for paths in (1, 2, 4096):
                M = gen.standard_normal((rows, cols))
                M[gen.random(M.shape) < 0.3] = -0.0
                prod = simulate._product(M, paths)
                for _ in range(3):
                    X = gen.standard_normal((cols, 2 * paths))[:, ::2]   # a strided view
                    X[gen.random(X.shape) < 0.3] = gen.choice([0.0, -0.0])
                    assert prod(X).tobytes() == _gemm_times_paths(M, X).tobytes()
    # and end to end: ball, one-path and d = 2 (one upper entry) runs; the
    # d = 1 ball from x0 = +-0 with b = 0, whose first radial product is
    # Bhat x0 = -0 or +0; one-direction sphere drives at d = 2, 3, 4
    drive, x0, ball = _clamping_ball(3, 8)
    runs = [lambda: kept_run(ball_ensemble, *ball, drive, x0, 0.1, 1e-2, 5, 6),
            lambda: kept_run(ball_ensemble, *ball, drive, x0, 0.1, 1e-2, 5, 1),
            lambda: kept_run(sphere_ensemble, SkewDrive.elementary(2), [0.6, 0.8],
                             0.05, 1e-3, 5, 4)]
    jacobi = (np.zeros(1), -2.0 * np.eye(1), 0.49 * np.eye(1), SkewDrive.zero(1))
    runs += [lambda x0=x0: kept_run(ball_ensemble, *jacobi, [x0], 0.05, 1e-3, 5, 9)
             for x0 in (0.0, -0.0)]
    runs += [lambda d=d: kept_run(sphere_ensemble, SkewDrive(np.zeros((d, d)), skew_basis(d)[:1]),
                                  np.eye(d)[0], 0.05, 1e-3, 5, 9) for d in (2, 3, 4)]
    got = [run() for run in runs]
    monkeypatch.setattr(simulate, "_product", _gemm_product)
    for (result, paths), run in zip(got, runs):
        ref, ref_paths = run()
        assert result.terminal.tobytes() == ref.terminal.tobytes()
        assert paths.tobytes() == ref_paths.tobytes()


def test_a_range_of_path_ids_is_checked_at_its_ends():
    with pytest.raises(ValueError, match="^path_id must be an integer") as err:
        simulate._streams(7, range(2 ** 64 - 1, 2 ** 64 + 1))
    assert "18446744073709551616" in str(err.value)
    with pytest.raises(ValueError, match="^path_id must be an integer"):
        simulate._streams(7, range(-1, 2))
    with pytest.raises(ValueError, match="^path_id must be an integer"):
        simulate._streams(7, range(2 ** 64 + 2, 2 ** 64 - 2, -3))
    assert simulate._streams(7, range(0)) == []
    # a range's streams are those of its ids one by one
    ids = range(2 ** 64 - 5, 2 ** 64, 2)
    for a, b in zip(simulate._streams(7, ids), simulate._streams(7, list(ids))):
        assert a.random(4).tobytes() == b.random(4).tobytes()

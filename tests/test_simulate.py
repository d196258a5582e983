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
from quadricdiff.model import BallModel, SphereModel
from quadricdiff.simulate import (
    SkewDrive,
    ball_ensemble,
    eval_poly,
    expm_skew,
    mc_moment,
    path_normals,
    scalar_ball_ensemble,
    sphere_ensemble,
    twin_path_experiment,
)
from quadricdiff.skew import skew_basis

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
    e3 = SkewDrive.elementary(3, a0=0.7 * skew_basis(3)[0])
    x3 = np.array([0.0, 0.6, 0.8])
    a4 = sum(c * A for c, A in zip((0.9, -0.3, 0.5, 0.2, -1.1, 0.4), skew_basis(4)))
    drift4 = SkewDrive(a4, np.zeros((0, 4, 4)))
    x4 = np.array([0.25, -0.25, 0.25, 0.25])
    return [
        kept_run(sphere_ensemble, e3, x3, 0.03, 1e-3, 5, n_paths),
        kept_run(ball_ensemble, np.array([0.1, 0.0, -0.2]), -np.eye(3), 0.5 * np.eye(3), e3,
                 0.5 * x3, 0.03, 1e-3, 6, n_paths),
        kept_run(scalar_ball_ensemble, 0.2, 1.0, SkewDrive.zero(2), [0.6, 0.79], 0.05, 1e-2, 7,
                 n_paths),
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
    # law check: elementary drive is spherical Brownian motion
    d = 3
    drive = SkewDrive.elementary(d)
    x0 = np.array([1.0, 0.0, 0.0])
    ens = sphere_ensemble(drive, x0, T=1.0, h=2e-3, seed=31, n_paths=20000)
    est = mc_moment(ens.terminal, {(1, 0, 0): 1.0})
    target = moment(SphereModel(H=np.eye(3), B=-np.eye(3)), {(1, 0, 0): 1.0}, x0, 1.0)
    assert target == pytest.approx(np.exp(-1.0), abs=1e-12)
    assert abs(est.estimate - target) <= 3 * est.stderr + 5e-3


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


def test_clamp_rarely_fires_when_interior_invariant():
    # strong reversion keeps paths off the boundary; the clamp is a rare event
    drive = SkewDrive.zero(1)
    ens = scalar_ball_ensemble(2.0, 1.0, drive, np.array([0.0]), T=2.0, h=2e-3,
                               seed=23, n_paths=2000)
    assert ens.clamp_fraction < 0.01


def test_scalar_ball_reduces_to_jacobi():
    drive = SkewDrive.zero(1)
    ens = scalar_ball_ensemble(2.0, 1.0, drive, np.array([0.5]), T=1.0, h=1e-3,
                               seed=5, n_paths=20000)
    est = mc_moment(ens.terminal, {(1,): 1.0})
    mdl = BallModel(alpha=[[1.0]], H=np.zeros((0, 0)), b=[0.0], B=[[-2.0]])
    target = moment(mdl, {(1,): 1.0}, np.array([0.5]), 1.0)
    assert abs(est.estimate - target) <= 3 * est.stderr + 2e-3


def test_scalar_ball_y_diagnostics():
    kappa, nu, d = 2.0, 1.0, 2
    drive = SkewDrive.zero(d)
    s, paths = kept_run(scalar_ball_ensemble, kappa, nu, drive, np.array([0.5, 0.0]), T=1.0,
                        h=1e-3, seed=5, n_paths=1)
    r2 = np.einsum("ni,ni->n", paths[0], paths[0])
    y = 1.0 - r2
    h = s.times[1] - s.times[0]
    # in-sample drift residual of the closed Y dynamics is noise-level
    resid = np.mean(np.diff(y) - (2.0 * kappa * r2[:-1] - d * nu ** 2 * y[:-1]) * h)
    assert abs(resid) < 5e-3
    for bad in ((-1.0, 1.0), (1.0, 0.0)):
        with pytest.raises(ValueError):
            scalar_ball_ensemble(*bad, drive, np.array([0.5, 0.0]), 1.0, 1e-3, 0, 1)


def test_weak_consistency_richardson():
    # halving h once bounds the time-discretization bias
    drive = SkewDrive.zero(1)
    mdl = BallModel(alpha=[[1.0]], H=np.zeros((0, 0)), b=[0.0], B=[[-2.0]])
    target = moment(mdl, {(1,): 1.0}, np.array([0.5]), 1.0)
    ests = []
    for h in (4e-3, 2e-3):
        ens = scalar_ball_ensemble(2.0, 1.0, drive, np.array([0.5]), T=1.0, h=h,
                                   seed=17, n_paths=40000)
        ests.append(mc_moment(ens.terminal, {(1,): 1.0}))
    bias_scale = abs(ests[0].estimate - ests[1].estimate) + ests[0].stderr
    assert abs(ests[1].estimate - target) <= 3 * ests[1].stderr + 2 * bias_scale + 1e-3


def test_twin_paths_identical_with_zero_eps():
    drive = SkewDrive.zero(1)
    rep = twin_path_experiment(1.0, 1.0, drive, np.array([1.0]), T=0.5, h=1e-3,
                               n_seeds=4, eps=0.0)
    assert np.all(rep.max_divergence == 0.0)
    assert rep.uniqueness_condition  # 1.0 > sqrt(2) - 1


def test_twin_paths_small_eps_stays_small():
    drive = SkewDrive.zero(1)
    rep = twin_path_experiment(1.0, 1.0, drive, np.array([1.0]), T=1.0, h=1e-4,
                               n_seeds=3, eps=1e-10)
    assert np.all(rep.max_divergence <= 1e-4)
    assert rep.kappa_nu_ratio == pytest.approx(1.0)


def test_twin_condition_flag():
    drive = SkewDrive.zero(1)
    rep = twin_path_experiment(0.3, 1.0, drive, np.array([1.0]), T=0.1, h=1e-3,
                               n_seeds=2, eps=0.0)
    assert not rep.uniqueness_condition  # 0.3 < sqrt(2) - 1 = 0.41421...
    with pytest.raises(ValueError):
        twin_path_experiment(1.0, 1.0, drive, np.array([0.5]), 0.1, 1e-3, 2)
    # the second start (1 - eps) x0 must lie in the closed ball too
    for eps in (-0.5, 2.5):
        with pytest.raises(ValueError):
            twin_path_experiment(1.0, 1.0, drive, np.array([1.0]), 0.1, 1e-3, 2, eps=eps)


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
    e3 = SkewDrive.elementary(3, a0=0.7 * skew_basis(3)[0])
    e5 = SkewDrive.elementary(5)
    turn = SkewDrive(np.array([[0.0, 1.5], [-1.5, 0.0]]), np.zeros((0, 2, 2)))
    x3 = np.array([0.0, 0.6, 0.8])
    ens = [
        sphere_ensemble(e3, x3, 0.05, 1e-3, 3, 5),                      # _rot3_apply
        sphere_ensemble(e5, np.eye(5)[0], 0.02, 1e-3, 4, 3),             # expm_skew
        sphere_ensemble(turn, np.array([0.6, 0.8]), 0.02, 1e-3, 5, 2),  # constant
        ball_ensemble(np.array([0.1, 0.0, -0.2]), -np.eye(3), 0.5 * np.eye(3), e3,
                      0.5 * x3, 0.03, 1e-3, 6, 4),                       # radial + drive
        scalar_ball_ensemble(2.0, 1.0, SkewDrive.zero(1), [0.5], 0.05, 1e-3, 7, 3),
    ]
    last, last_paths = kept_run(scalar_ball_ensemble, 1.0, 0.5, SkewDrive.zero(2), [0.3, 0.1],
                                0.041, 1e-3, 8, 3)
    ens.append(last)
    out = [np.concatenate([r.terminal.ravel(), r.max_radius,
                           [r.max_norm_dev, r.clamp_fraction]]) for r in ens]
    out.append(last_paths.ravel())
    out.append(kept_run(ball_ensemble, np.zeros(2), -np.eye(2), np.eye(2),
                        SkewDrive.elementary(2), np.array([0.2, 0.1]), 0.037, 1e-3, 9,
                        1)[1][0].ravel())
    out.append(kept_run(sphere_ensemble, e3, x3, 0.031, 1e-3, 10, 8)[1][7].ravel())
    out.append(twin_path_experiment(1.0, 1.0, SkewDrive.zero(2), np.array([0.6, 0.8]),
                                    0.03, 1e-3, 3, seed=11, eps=1e-3).max_divergence)
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
    with pytest.raises(ValueError):
        sphere_ensemble(drive, x0, 0.1, 1e-2, 0, 0)
    with pytest.raises(ValueError):
        twin_path_experiment(1.0, 1.0, SkewDrive.zero(1), np.array([1.0]), 0.1, 1e-2, 0)
    for T, h in ((np.inf, 1e-2), (1.0, np.inf), (np.nan, 1e-2), (1.0, np.nan), (1e300, 1e-300)):
        with pytest.raises(ValueError):
            sphere_ensemble(drive, x0, T, h, 0, 2)


def test_block_noise_memory_is_bounded():
    tracemalloc.start()
    try:
        scalar_ball_ensemble(2.0, 1.0, SkewDrive.zero(3), np.zeros(3), 2.0, 1e-3, 1, 1024)
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
        ens = scalar_ball_ensemble(2.0, 1.0, SkewDrive.zero(3), np.zeros(3), T, 1e-3, 1,
                                   n_paths, sink=kept)
        assert kept.paths.shape == (n_paths, len(ens.times), 3)
        assert kept.times.tobytes() == ens.times.tobytes()
        assert len(kept.pieces) == n_pieces
        for first, times, states in kept.pieces:
            n, k, _ = states.shape
            assert n * (k - (times[0] == 0.0)) * 3 <= 300


def _twin_from_two_ensembles(kappa, nu, drive, x0, T, h, n_seeds, seed, eps):
    """max_divergence from two whole kept ensembles, X from x0 and X~ from (1 - eps) x0."""
    run = (T, h, seed, n_seeds)
    _, a = kept_run(scalar_ball_ensemble, kappa, nu, drive, x0, *run)
    _, b = kept_run(scalar_ball_ensemble, kappa, nu, drive, (1.0 - eps) * x0, *run)
    return np.linalg.norm(a - b, axis=2).max(axis=1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_twin_divergence_matches_two_ensembles(monkeypatch, d):
    drive = SkewDrive.elementary(3, a0=0.5 * skew_basis(3)[1]) if d == 3 else SkewDrive.zero(d)
    x0 = np.ones(d) / np.sqrt(d)
    for eps in (0.0, 1e-3, 1e-8):
        for seed in range(5):
            args = (1.0, 0.7, drive, x0, 0.05, 1e-3, 5, seed, eps)
            ref = _twin_from_two_ensembles(*args)
            with monkeypatch.context() as patch:
                # blocks of two pairs and one, chunks of two and four steps
                patch.setattr(simulate, "_BLOCK", 5)
                patch.setattr(simulate, "_NOISE_VALUES", 8 * (d + drive.n_diffusion))
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
            twin_path_experiment(1.0, 1.0, SkewDrive.zero(2), np.array([0.6, 0.8]), 1.0,
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


def _reference_run_block(drive, x0s, n_steps, h, streams, bhat, Bhat, sqrt_alpha, paths,
                         noise_values):
    """The step loop of _run_block as it was before per-chunk bookkeeping, verbatim."""
    expm_skew = simulate.expm_skew
    # The closed-form rotations at d = 3 and 4 (d = 4 tested against expm_skew below).
    closed_form = {3: simulate._rot3_apply, 4: simulate._rot4_apply}
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
    closed = rotate and m > 0 and d in closed_form
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
                X = closed_form[d]((noise[:, j, :m] * sqh) @ Avec, X, h_a0vec)
            else:
                dW = noise[:, j, :m] * sqh
                M = np.einsum("bp,pij->bij", dW, As)
                if np.abs(drive.a0).max() > 0:
                    M += drive.a0 * h
                Q = expm_skew(M)
                X = np.einsum("bij,bj->bi", Q, X)
        if radial:
            r2 = np.einsum("bi,bi->b", X, X)
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
    return [
        ("sphere d3", SkewDrive.elementary(3), e3, None, 5, 37, 1e-3),
        ("sphere d3 A0", SkewDrive.elementary(3, a0=a3), e3, None, 5, 37, 1e-3),
        ("sphere d4 A0", SkewDrive.elementary(4, a0=a4), e4, None, 4, 23, 2e-3),
        ("ball d3 drive, clamps", SkewDrive.elementary(3, a0=a3), 0.999 * e3,
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
    drive = SkewDrive.zero(1) if d == 1 else SkewDrive.elementary(d, a0=0.7 * skew_basis(d)[0])
    x0 = rng.standard_normal(d)
    return drive, 0.995 * x0 / np.linalg.norm(x0), (bhat, Bhat, alpha)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("chunk", [None, 7])
def test_run_block_matches_reference_loop_at_1024_paths(monkeypatch, d, chunk):
    # numpy takes other inner loops for 1024 rows than for a few.  Chunks of 7
    # steps split the 30 steps five ways, so the noise of every chunk but the
    # first comes from the helper thread.
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
    # 300 noise values hold 100 steps of one three-column path: 5 chunks a path.
    monkeypatch.setattr(simulate, "_NOISE_VALUES", 300)
    run = (2.0, 1.0, SkewDrive.zero(3), np.zeros(3), 0.5, 1e-3, 1, 3)
    alive = []
    result = scalar_ball_ensemble(*run, sink=lambda *piece: alive.append(len(_noise_threads())))
    assert len(alive) == 15 and max(alive) == 1, "the noise of later chunks comes from a helper"
    assert result.stats["chunks"] == 15
    assert _noise_threads() == []

    class Refused(Exception):
        pass

    def refuse(first, times, states):
        if first == 1:
            raise Refused

    with pytest.raises(Refused):
        scalar_ball_ensemble(*run, sink=refuse)
    assert _noise_threads() == []

    def broken(out, scale=1.0):
        if threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("noise thread")
        simulate.ndtri(out, out=out)

    monkeypatch.setattr(simulate, "_normals_from_uniforms", broken)
    with pytest.raises(FloatingPointError, match="noise thread"):
        scalar_ball_ensemble(*run)
    assert _noise_threads() == []


def test_chunks_in_flight_under_thread_contention(monkeypatch):
    # Three ensembles at once, each with its noise helper: six threads on fewer
    # cores, switching every microsecond, and chunks of one step, so the two
    # noise buffers change hands at every step.
    run = (0.2, 1.0, SkewDrive.elementary(3), np.array([0.5, 0.5, 0.5]), 0.1, 1e-3)
    ref = [scalar_ball_ensemble(*run, seed, 8).terminal for seed in range(3)]
    monkeypatch.setattr(simulate, "_NOISE_VALUES", 8 * 6)
    got = [None] * 3

    def work(i):
        got[i] = scalar_ball_ensemble(*run, i, 8)

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


def test_closed_form_rotation_matches_expm_skew():
    # Bounds fixed before the kernel was written: on rows that need no squaring,
    # entries within 2e-15 of expm_skew's and R^T R within 2e-15 of I; rows
    # that need squarings are expm_skew's bit for bit.
    rng = np.random.default_rng(24)
    d, m = 4, 6
    scales = np.repeat([1e-8, 0.03, 0.3, 1.0, 2.0, 3.0, 30.0], 1000)
    w = rng.standard_normal((len(scales), m)) * scales[:, None]
    n = len(w)
    rows, cols = np.triu_indices(d, 1)
    M = np.zeros((n, d, d))
    M[:, rows, cols] = w
    M[:, cols, rows] = -w
    ref = expm_skew(M)
    plain = np.abs(M).sum(axis=1).max(axis=1) <= simulate._PADE[13][1]
    assert plain.sum() > 3000 and (~plain).sum() > 500
    R = np.stack([simulate._rot4_apply(w, np.tile(e, (n, 1))) for e in np.eye(d)], axis=2)
    assert np.abs(R - ref)[plain].max() <= 2e-15
    orth = np.abs(np.einsum("bki,bkj->bij", R, R) - np.eye(d)).max(axis=(1, 2))
    assert orth[plain].max() <= 2e-15
    X = rng.standard_normal((n, d))
    RX = simulate._rot4_apply(w, X)
    assert RX[~plain].tobytes() == np.einsum("bij,bj->bi", ref, X)[~plain].tobytes()
    # a row's result does not depend on its neighbours, nor on how A_0 h is added
    h_a0 = 0.01 * rng.standard_normal(m)
    RX = simulate._rot4_apply(w, X, h_a0)
    assert RX.tobytes() == simulate._rot4_apply(w + h_a0, X).tobytes()
    for i in range(0, n, 97):
        assert RX[i].tobytes() == simulate._rot4_apply(w[i:i + 1], X[i:i + 1], h_a0).tobytes()
    # and a path does not depend on the other paths of its ensemble
    x0 = np.ones(d) / np.sqrt(d)
    drive = SkewDrive.elementary(d, a0=0.5 * skew_basis(d)[-1])
    _, one = kept_run(sphere_ensemble, drive, x0, 0.02, 1e-3, 4, 1)
    _, five = kept_run(sphere_ensemble, drive, x0, 0.02, 1e-3, 4, 5)
    assert one[0].tobytes() == five[0].tobytes()


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


def test_one_step_larger_than_a_chunk_holds_one_buffer(monkeypatch):
    # A step of eight paths of six noise columns draws 48 values, and a step of
    # one path (a kept block) 6, both more than a chunk of 4: chunks are one
    # step long, one buffer holds them and no helper thread starts.
    run = (0.2, 1.0, SkewDrive.elementary(3), np.array([0.5, 0.5, 0.5]), 0.01, 1e-3, 5, 8)
    whole = scalar_ball_ensemble(*run)
    monkeypatch.setattr(simulate, "_NOISE_VALUES", 4)
    ens = scalar_ball_ensemble(*run)
    assert ens.terminal.tobytes() == whole.terminal.tobytes()
    assert (ens.stats["chunks"], ens.stats["chunk_steps"]) == (10, 1)
    assert ens.stats["noise_bytes"] == 8 * 6 * 8
    alive = []
    kept = scalar_ball_ensemble(*run, sink=lambda *piece: alive.append(len(_noise_threads())))
    assert kept.terminal.tobytes() == whole.terminal.tobytes()
    assert alive == [0] * 80 and kept.stats["noise_bytes"] == 6 * 8

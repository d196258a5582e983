"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines as they complete.
"""

import time

import numpy as np

from quadricdiff.cspace import c_space_basis, cmap_from_h
from quadricdiff.generator import moment
from quadricdiff.liealg import _density_check_sphere, g_ideal
from quadricdiff.model import BallModel, SphereModel, ensemble, validate
from quadricdiff.simulate import (
    SkewDrive,
    ball_ensemble,
    mc_moment,
    sphere_ensemble,
)
from quadricdiff.skew import pi_index, skew_dim
from quadricdiff.sos import (
    charpoly_reference,
    counterexample_d6,
    reconstruct_cmap,
    sos_check,
    verify_certificate,
)

from kbasis import k_basis
from refs import cmap_eval


def _report(criterion, ok, detail=""):
    print(f"[ACCEPTANCE] criterion {criterion:>2}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_dimension_formulas():
    t0 = time.monotonic()
    expected_c = {2: 1, 3: 6, 4: 20, 5: 50, 6: 105}
    expected_k = {2: 0, 3: 0, 4: 1, 5: 5, 6: 15}
    ok = True
    for d in range(2, 7):
        basis = c_space_basis(d)
        rank_c = int(np.linalg.matrix_rank(np.array([b.ravel() for b in basis])))
        els = k_basis(d)
        rank_k = int(np.linalg.matrix_rank(
            np.array([el.matrix.ravel() for el in els]))) if els else 0
        ok = ok and rank_c == expected_c[d] and rank_k == expected_k[d]
        ok = ok and len(basis) == expected_c[d] and len(els) == expected_k[d]
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    _report(1, ok, f"ranks C={expected_c}, K={expected_k}, {elapsed:.2f}s")


def test_criterion_2_plucker_identity():
    rng = np.random.default_rng(20602)
    worst = 0.0
    for d in (5, 6):
        m = skew_dim(d)
        a = rng.standard_normal((1000, m))
        for el in k_basis(d):
            # quarter of the pairing <A, K[A]> equals half the vec quadratic form
            lhs = 0.5 * np.einsum("bi,ij,bj->b", a, el.matrix, a)
            i, j, k, l = el.quad
            p = lambda r, s: pi_index(r, s, d) - 1
            rhs = (a[:, p(i, j)] * a[:, p(k, l)]
                   - a[:, p(i, k)] * a[:, p(j, l)]
                   + a[:, p(i, l)] * a[:, p(j, k)])
            rel = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))
            worst = max(worst, float(rel.max()))
    _report(2, worst <= 1e-12, f"worst relative mismatch {worst:.2e}")


COMPONENT_TABLE = {
    (1, 1): {(2, 2): 1, (3, 3): 1, (4, 4): 2, (5, 5): 2, (6, 6): 2},
    (1, 2): {(1, 2): -1, (2, 6): -1, (3, 4): -1},
    (1, 3): {(1, 3): -1, (3, 5): -1},
    (1, 4): {(2, 3): 1, (1, 4): -2},
    (1, 5): {(1, 5): -2, (3, 3): 1},
    (1, 6): {(1, 6): -2, (2, 2): 1},
    (2, 2): {(1, 1): 1, (1, 6): 2, (3, 3): 2, (4, 4): 1, (5, 5): 2, (6, 6): 1},
    (2, 3): {(1, 4): 1, (2, 3): -2, (4, 5): -1},
    (2, 4): {(2, 4): -1},
    (2, 5): {(3, 4): 1, (2, 5): -2},
    (2, 6): {(1, 2): -1, (2, 6): -1},
    (3, 3): {(1, 1): 1, (1, 5): 2, (2, 2): 2, (4, 4): 2, (5, 5): 1, (6, 6): 2},
    (3, 4): {(1, 2): -1, (2, 5): 1, (3, 4): -2},
    (3, 5): {(1, 3): -1, (3, 5): -1},
    (3, 6): {(3, 6): -2},
    (4, 4): {(1, 1): 2, (2, 2): 1, (3, 3): 2, (5, 5): 1, (5, 6): 2, (6, 6): 1},
    (4, 5): {(2, 3): -1, (4, 5): -1, (4, 6): -1},
    (4, 6): {(4, 5): -1, (4, 6): -1},
    (5, 5): {(1, 1): 2, (2, 2): 2, (3, 3): 1, (4, 4): 1, (6, 6): 2},
    (5, 6): {(4, 4): 1, (5, 6): -2},
    (6, 6): {(1, 1): 2, (2, 2): 1, (3, 3): 2, (4, 4): 1, (5, 5): 2},
}


def _table_tensor():
    C = np.zeros((6, 6, 6, 6))
    for (i, j), terms in COMPONENT_TABLE.items():
        M = np.zeros((6, 6))
        for (a, b), coef in terms.items():
            if a == b:
                M[a - 1, a - 1] = coef
            else:
                M[a - 1, b - 1] = M[b - 1, a - 1] = coef / 2.0
        C[i - 1, j - 1] = M
        C[j - 1, i - 1] = M
    return C


def test_criterion_3_counterexample_replication():
    t0 = time.monotonic()
    ce = counterexample_d6()
    target = charpoly_reference()
    got = np.poly(ce.h)
    char_ok = bool(np.all(np.abs(got - target) <= 1e-8 * np.maximum(1.0, np.abs(target))))
    inner_ok = ce.report["inner_hb"] < -0.1
    korth_ok = ce.report["k_orth_max"] <= 1e-10
    verdict = sos_check(ce.h)
    cert_ok = verdict.status == "Infeasible"
    if cert_ok:
        passed, _ = verify_certificate(ce.h, verdict.certificate)
        cert_ok = passed
    components_ok = bool(np.array_equal(cmap_from_h(ce.h, 6), _table_tensor()))
    elapsed = time.monotonic() - t0
    ok = char_ok and inner_ok and korth_ok and cert_ok and components_ok and elapsed < 30.0
    _report(3, ok, f"charpoly={char_ok} inner={ce.report['inner_hb']:.4f} "
                   f"korth={ce.report['k_orth_max']:.1e} sos={verdict.status} "
                   f"components_exact={components_ok} {elapsed:.1f}s")


def test_criterion_4_d4_sos_completeness():
    rng = np.random.default_rng(20604)
    K = k_basis(4)[0].matrix
    failures = 0
    worst = 0.0
    for _ in range(200):
        G = rng.standard_normal((6, 6))
        H0 = G @ G.T
        H = H0 + rng.uniform(-3, 3) * np.linalg.norm(H0) * K
        verdict = sos_check(H)
        if verdict.status != "Feasible":
            failures += 1
            continue
        resid = float(np.abs(cmap_from_h(H, 4) - reconstruct_cmap(verdict.factors, 4)).max())
        worst = max(worst, resid)
        if resid > 1e-8:
            failures += 1
    _report(4, failures == 0, f"200 instances, {failures} failures, "
                              f"worst reconstruction {worst:.2e}")


def test_criterion_5_degeneracy_slice():
    ce = counterexample_d6()
    C = cmap_from_h(ce.h, 6)
    rng = np.random.default_rng(20605)
    worst = 0.0
    for _ in range(50):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        x = np.zeros(6)
        x[0], x[2], x[4] = u
        eigs = np.sort(np.linalg.eigvalsh(cmap_eval(C, x)))
        expected = np.sort([0.0, (x[0] + x[4]) ** 2, 2 - x[0] ** 2, 2 - x[4] ** 2, 2.0, 2.0])
        worst = max(worst, float(np.abs(eigs - expected).max()))
    _report(5, worst <= 1e-9, f"50 slice points, worst eigenvalue gap {worst:.2e}")


def test_criterion_6_moments_vs_monte_carlo():
    t0 = time.monotonic()
    # sphere Brownian motion, d = 3
    sphere = SphereModel(H=np.eye(3), B=-np.eye(3))
    x0 = np.array([1.0, 0.0, 0.0])
    exact = moment(sphere, {(1, 0, 0): 1.0}, x0, 1.0)
    exact_ok = abs(exact - np.exp(-1.0)) <= 1e-12
    ens = sphere_ensemble(SkewDrive.elementary(3), x0, T=1.0, h=1e-3,
                          seed=20606, n_paths=100_000)
    est = mc_moment(ens.terminal, {(1, 0, 0): 1.0})
    sphere_dev = abs(est.estimate - exact) / est.stderr
    sphere_ok = sphere_dev <= 3.0

    # Jacobi process, d = 1, mean and second moment through the degree-2 matrix
    b, B, sig2 = 0.2, -1.0, 0.49
    jac = BallModel(alpha=[[sig2]], H=np.zeros((0, 0)), b=[b], B=[[B]])
    jx0 = np.array([0.3])
    targets = [moment(jac, {(1,): 1.0}, jx0, 1.0), moment(jac, {(2,): 1.0}, jx0, 1.0)]
    jens = ball_ensemble(np.array([b]), np.array([[B]]), np.array([[sig2]]),
                         SkewDrive.zero(1), jx0, T=1.0, h=1e-3,
                         seed=20607, n_paths=100_000)
    devs = []
    for q, target in zip(({(1,): 1.0}, {(2,): 1.0}), targets):
        est = mc_moment(jens.terminal, q)
        devs.append(abs(est.estimate - target) / est.stderr)
    jacobi_ok = all(dev <= 3.0 for dev in devs)
    elapsed = time.monotonic() - t0
    ok = exact_ok and sphere_ok and jacobi_ok and elapsed < 60.0
    _report(6, ok, f"exact_gap {abs(exact - np.exp(-1)):.1e}, sphere {sphere_dev:.2f} SE, "
                   f"jacobi {devs[0]:.2f}/{devs[1]:.2f} SE, {elapsed:.1f}s")


def test_criterion_7_sphere_norm_preservation():
    ens = sphere_ensemble(SkewDrive.elementary(3), np.array([0.0, 0.0, 1.0]),
                          T=1.0, h=1e-3, seed=20608, n_paths=1000)
    _report(7, ens.max_norm_dev <= 1e-12,
            f"1000 paths x 1000 steps, max | |X| - 1 | = {ens.max_norm_dev:.2e}")


def test_criterion_8_boundary_dichotomy():
    results = {}
    for kappa, nu in ((2.0, 1.0), (0.2, 1.0)):
        model = BallModel(alpha=[[nu ** 2]], H=np.zeros((0, 0)), b=[0.0], B=[[-kappa]])
        att = validate(model).boundary
        ens = ensemble(BallModel.scalar(kappa, nu, 1), np.array([0.0]), T=5.0,
                       h=5e-3, seed=20609, n_paths=10_000)
        frac = float(np.mean(np.abs(ens.terminal[:, 0]) > 1.0 - 1e-3))
        results[kappa / nu ** 2] = (att.status, frac)
    hi_status, hi_frac = results[2.0]
    lo_status, lo_frac = results[0.2]
    ok = (hi_status == "InteriorInvariant" and hi_frac <= 1e-3
          and lo_status == "MayAttainBoundary" and lo_frac >= 0.05)
    _report(8, ok, f"ratio 2.0: {hi_status}, frac={hi_frac:.4f}; "
                   f"ratio 0.2: {lo_status}, frac={lo_frac:.4f}")


def test_criterion_9_density_checker():
    ok = True
    details = []
    for d in range(3, 7):
        x0 = np.zeros(d)
        x0[0] = 1.0
        rep = _density_check_sphere(SkewDrive.elementary(d), x0)
        ok = ok and rep.dim_g == skew_dim(d) and rep.has_smooth_density
        details.append(f"d={d}:g={rep.dim_g}")
    A0 = np.zeros((4, 4))
    A0[0, 1], A0[1, 0] = 1.0, -1.0
    A1 = np.zeros((4, 4))
    A1[2, 3], A1[3, 2] = 1.0, -1.0
    drive = SkewDrive(A0, A1[None])
    g, h = g_ideal(drive)
    ok = ok and (g.dim, h.dim) == (1, 2)
    generic = np.array([0.5, 0.5, 0.5, 0.5])
    rep_generic = _density_check_sphere(drive, generic)
    rep_kernel = _density_check_sphere(drive, np.array([0.0, 0.0, 1.0, 0.0]))
    ok = ok and not rep_generic.has_smooth_density and rep_kernel.has_smooth_density
    _report(9, ok, f"{' '.join(details)}; block example (1,2), generic=False, e3=True")


def test_criterion_10_witness_honesty():
    rng = np.random.default_rng(20610)
    counts = {"Feasible": 0, "Infeasible": 0, "Undecided": 0}
    ok = True
    for i in range(500):
        d = (3, 4, 6)[i % 3]
        m = skew_dim(d)
        kind = i % 5
        els = k_basis(d)
        shift = (sum(rng.uniform(-2, 2) * el.matrix for el in els)
                 if els else np.zeros((m, m)))
        if kind < 2:
            G = rng.standard_normal((m, m))
            H = G @ G.T + shift
            truth = "feasible"
        elif kind == 4:
            G = rng.standard_normal((m, m))
            H = -G @ G.T + shift
            truth = "infeasible"
        else:
            H = rng.standard_normal((m, m))
            H = 0.5 * (H + H.T)
            truth = None
        verdict = sos_check(H, max_iter=20000)
        counts[verdict.status] += 1
        scale = max(1.0, float(np.linalg.norm(H)))
        if verdict.status == "Feasible":
            if truth == "infeasible":
                ok = False
            eig = float(np.linalg.eigvalsh(verdict.h_star)[0])
            shift_w = verdict.h_star - H
            if els:
                coeffs = [float(np.sum(el.matrix * shift_w)) / 6.0 for el in els]
                member = shift_w - sum(c * el.matrix for c, el in zip(coeffs, els))
            else:
                member = shift_w
            if eig < -1e-9 or np.linalg.norm(member) > 1e-9 * scale:
                ok = False
        elif verdict.status == "Infeasible":
            if truth == "feasible":
                ok = False
            passed, _ = verify_certificate(H, verdict.certificate)
            if not passed:
                ok = False
        else:
            if not verdict.residuals:
                ok = False
    _report(10, ok, f"500 instances at d in (3,4,6): {counts}")

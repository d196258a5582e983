"""The rotation kernels and the sphere maximizer against 40-digit references (mpmath).

Each kernel's r(M) x is compared with exp(M) x from ``mpmath.expm`` at
``mp.dps = 40`` (about 1e-40 relative, so the reference is exact at double
precision), for random skew M with 0, 1, 10 and 52 squarings; 52 takes the
closed forms through :func:`simulate._half_turn`'s trigonometric branch.

The bounds below were written down, as multiples of u = 2**-53, before the
first run:
- every kernel: |r(M) x - exp(M) x| <= 8 u (1 + |M|_1) for |x| = 1.  A
  rotation by an angle near |M| cannot be computed to better than a few
  u |M| from rounded inputs, so the bound grows with |M|_1.  At 52
  squarings u |M|_1 is about 1 and the bound passes 2, which no error between
  unit vectors reaches: there it is not checked, and a cell left with no
  check (``expm_skew`` alone, at d = 5 and 6) is skipped;
- the closed forms, which take cos and sin of the angle: ||r(M) x| - 1| <= 16 u
  at every squaring count.  ``expm_skew`` squares a matrix s times, so its
  norm drifts by up to about 2**s u: it is held to the same 16 u, but only up
  to ``simulate._EXPM_SQUARINGS`` squarings, the largest count at which it
  met that bound (10 M per d = 2-6 at each count).  The simulator refuses an
  ``expm_skew`` rotation that needs more.

``model.sphere_max_quadratic``, the maximizer that decides every drift check,
is compared with the root above lam_top of the secular equation
sum_i c_i^2 / (4 (lam - lam_i)^2) = 1, where (lam_i, v_i) are the eigenpairs of
M from ``mpmath.eigsy`` and c = V^T b, found by bisection at ``mp.dps = 40``
on [lam_top, lam_top + |c|/2], where the sum falls to at most 1;
when c_top is exactly 0 and the sum at lam_top is at most 1 (the hard case)
the multiplier is lam_top.  The maximum is lam + sum_i c_i^2 / (4 (lam - lam_i)).
Cases: random, d = 1 (closed form m + |b|/2), small b (|b| about 1e-8),
hard (b orthogonal to the top eigenvector, inside and outside the unit ball
at lam_top) and near-hard (weight 1e-8, 1e-12, 1e-14 and 1e-16 on the top
eigenvector, on both sides of the 1e-13 switch the maximizer once had).
Its bounds, with S = |M|_2 + |b|, were written down before the first run:
- the maximum and the multiplier: within 16 u S of the exact ones;
- the argmax x: ||x| - 1| <= 8 u, and the exact value at x / |x| within
  16 u S of the maximum.
The maximizer scales (M, b) by a power of two before it solves, so scaling
them by 2**k must scale the maximum and the multiplier by exactly 2**k and
leave the argmax's bits alone.

``simulate._normals_from_uniforms``, the Gaussian map of every noise stream,
is compared at grid uniforms u = k 2**-53 with sqrt(2) erfinv(2u' - 1) at the
midpoint u' = (k + 1/2) 2**-53, at ``mp.dps = 40``: the ends k = 0 (about
-8.3 sigma) and 2**53 - 1, the median 2**52 and its neighbour, 100 seeded
central k and 100 seeded tail k, half of them reflected to the top.  Its
bound, written down before the first run: a relative error of at most 8 u.
Below the median every midpoint is a double and the map meets the bound;
above it no midpoint is, and that half is a strict xfail (see its reason).

``generator.moment`` is compared with h(x)^T exp(t G_b) q_b summed over the
blocks G_b of G_k that it exponentiates, where G_k is the double matrix that
``build_Gk`` returns, exp is ``mpmath.expm`` at ``mp.dps = 50`` and the
monomials h(x) are taken at 50 digits too, on sphere and ball models at
d = 2 and 3 and degrees up to 4.  Its bound, written down before the first
run: |moment - exact| <= 64 u (1 + t max_b |G_b|_1) S, with
S = sum_b |h_b|^T |exp(t G_b)| |q_b|.  The exponential's action sums about
t |G_b|_1 Taylor steps, each rounding at a few u of S.

``sos.counterexample_d6`` is compared with its closed forms at ``mp.dps = 50``:
lam = (1 - sqrt 3) / 2, mu the negative root of 4 s^3 - 16 s^2 + 14 s + 1,
the certificate's <H, B> from lam, mu and the three vectors, and the
characteristic polynomial 2^-5 (s - 2)^7 (2 s^2 - 2 s - 1)(4 s^3 - 16 s^2 + 14 s + 1)^2,
which first must be det(s I - H) at 50 digits (to 1e-40 relative, at s = 0..15).
Its bounds, written down before the first run:
- lam within 4 u |lam| (one rounded sqrt, a subtraction without cancellation);
- mu within 32 u max_i |a_i / a_0| = 128 u: a backward-stable eigensolve of
  the companion matrix perturbs it by a few u of its norm, and the roots lie
  more than 1 apart;
- <H, B> (the report's ``inner_hb`` and ``inner_formula``) within 64 u sum |H_ij B_ij|;
- each coefficient c_k of ``np.poly(H)`` within 16 u n (rho e_{k-1} + e_k), n = 15,
  e_k the k-th elementary symmetric function of the exact |eigenvalues| and rho the
  largest: each computed eigenvalue of the symmetric H moves by a few u rho,
  and the product over the n roots rounds at a few u e_k.
"""

import math

import mpmath
import numpy as np
import pytest

from quadricdiff import simulate
from quadricdiff.cspace import trace_form
from quadricdiff.generator import build_Gk, moment, poly_degree
from quadricdiff.model import BallModel, SphereModel, sphere_max_quadratic
from quadricdiff.sos import counterexample_d6
from quadricdiff.simulate import expm_skew

U = 2.0 ** -53
ERROR_U = 8
NORM_U = 16
KERNELS = {2: simulate._rot2_apply, 3: simulate._rot3_apply, 4: simulate._rot4_apply}


def _skew_stack(d, s, n, gen):
    """n random skew d x d matrices whose 1-norms take exactly s squarings."""
    theta = simulate._PADE[13][1]
    G = gen.standard_normal((n, d, d))
    G -= G.transpose(0, 2, 1)
    G /= np.abs(G).sum(axis=1).max(axis=1)[:, None, None]
    if s == 0:
        scale = gen.uniform(0.05, 0.95, n) * theta
        scale[0] = 1e-8
    else:
        scale = theta * 2.0 ** (s - gen.uniform(0.1, 0.9, n))
    M = G * scale[:, None, None]
    norm1 = np.abs(M).sum(axis=1).max(axis=1)
    assert np.array_equal(simulate._squarings(norm1), np.full(n, s))
    return M, norm1


def _errors(M, x, got):
    """|got_b - exp(M_b) x_b| and ||got_b| - 1|, each to 40 digits, as doubles."""
    err, drift = [], []
    with mpmath.workdps(40):
        for Mb, xb, gb in zip(M, x, got):
            exact = mpmath.expm(mpmath.matrix(Mb.tolist())) * mpmath.matrix(xb.tolist())
            g = mpmath.matrix(gb.tolist())
            err.append(float(mpmath.norm(g - exact)))
            drift.append(float(abs(mpmath.norm(g) - 1)))
    return np.array(err), np.array(drift)


@pytest.mark.parametrize("s", [0, 1, 10, 52])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_rotations_match_a_40_digit_exponential(d, s):
    gen = np.random.default_rng(1000 * d + s)
    n = 10
    M, norm1 = _skew_stack(d, s, n, gen)
    x = gen.standard_normal((n, d))
    x /= np.linalg.norm(x, axis=1)[:, None]
    bound = ERROR_U * U * (1.0 + norm1)
    sharp = bound < 2.0
    if not sharp.any() and d not in KERNELS:
        pytest.skip("the error bound passes 2 and expm_skew has no norm bound")
    err, _ = _errors(M[sharp], x[sharp], np.einsum("bij,bj->bi", expm_skew(M[sharp]), x[sharp]))
    assert np.all(err <= bound[sharp]), (err / (U * (1.0 + norm1[sharp]))).max()
    if d in KERNELS:
        rows, cols = np.triu_indices(d, 1)
        got = KERNELS[d](M[:, rows, cols].T, x.T).T
        err, drift = _errors(M, x, got)
        assert np.all(err[sharp] <= bound[sharp]), (err / (U * (1.0 + norm1))).max()
        assert drift.max() <= NORM_U * U, drift.max() / U


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_expm_skew_keeps_the_norm_where_the_simulator_takes_it(d):
    # Every squaring count up to the simulator's cap, with the cells' own matrices.
    for s in range(simulate._EXPM_SQUARINGS + 1):
        gen = np.random.default_rng(1000 * d + s)
        M, _ = _skew_stack(d, s, 10, gen)
        x = gen.standard_normal((10, d))
        x /= np.linalg.norm(x, axis=1)[:, None]
        with mpmath.workdps(40):
            drift = [float(abs(mpmath.norm(mpmath.matrix(g.tolist())) - 1))
                     for g in np.einsum("bij,bj->bi", expm_skew(M), x)]
        assert max(drift) <= NORM_U * U, (s, max(drift) / U)


QUAD_U = 16
UNIT_U = 8


def _secular_reference(M, b):
    """(maximum, multiplier, S) of x^T M x + b^T x over |x| = 1, to 40 digits."""
    with mpmath.workdps(40):
        lam, V = mpmath.eigsy(mpmath.matrix(M.tolist()))
        lam = [lam[i] for i in range(len(M))]
        c = V.T * mpmath.matrix(b.tolist())
        top = max(range(len(M)), key=lambda i: lam[i])
        rest = [i for i in range(len(M)) if i != top]

        def weight(mu, idx):
            return mpmath.fsum(c[i] ** 2 / (4 * (mu - lam[i]) ** 2) for i in idx)

        if c[top] == 0 and weight(lam[top], rest) <= 1:
            mu = lam[top]
        else:
            lo, hi = lam[top], lam[top] + mpmath.norm(c) / 2
            for _ in range(160):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if weight(mid, range(len(M))) > 1 else (lo, mid)
            mu = (lo + hi) / 2
        idx = range(len(M)) if mu != lam[top] else rest
        value = mu + mpmath.fsum(c[i] ** 2 / (4 * (mu - lam[i])) for i in idx)
        scale = max(abs(v) for v in lam) + mpmath.norm(mpmath.matrix(b.tolist()))
        return value, mu, scale


NEAR_HARD = {"near_hard": 1e-8, "near_hard_1e-12": 1e-12, "near_hard_1e-14": 1e-14,
             "near_hard_1e-16": 1e-16}
QUAD_KINDS = ["random", "hard_inside", "hard_outside", "near_hard", "one_dim", "small_b",
              "near_hard_1e-12", "near_hard_1e-14", "near_hard_1e-16"]


def _quad_cases(kind, d, gen):
    """(M, b): M = Q diag(lam) Q^T with a simple top eigenvalue, b of the given kind."""
    Q, _ = np.linalg.qr(gen.standard_normal((d, d)))
    lam = np.sort(gen.uniform(-2.0, 2.0, d))
    if d > 1:
        lam[-1] = lam[-2] + gen.uniform(0.1, 1.0)
    M = (Q * lam) @ Q.T
    M = 0.5 * (M + M.T)
    c = gen.standard_normal(d)
    if kind in ("random", "one_dim", "small_b"):
        return M, Q @ c * (1e-8 if kind == "small_b" else 1.0)
    c[-1] = 0.0 if kind.startswith("hard") else NEAR_HARD[kind] * np.linalg.norm(c[:-1])
    c *= {"hard_inside": 0.05, "hard_outside": 20.0}.get(kind, 1.0)
    return M, Q @ c


def _quad_case_errors(M, b):
    """The errors of one maximum, in u S (value, multiplier, gap) and u (unit)."""
    rep = sphere_max_quadratic(M, b)
    value, mu, scale = _secular_reference(M, b)
    with mpmath.workdps(40):
        x = mpmath.matrix(rep.argmax.tolist())
        nx = mpmath.norm(x)
        x /= nx
        at_x = (x.T * mpmath.matrix(M.tolist()) * x)[0] + mpmath.fdot(b.tolist(), x)
        errors = {"value": abs(rep.max_value - value) / scale,
                  "multiplier": abs(rep.multiplier - mu) / scale,
                  "unit": abs(nx - 1), "gap": (value - at_x) / scale}
    return {key: float(err) / U for key, err in errors.items()}


def _quad_errors(kind):
    """The largest errors of each kind, in u S (value, multiplier, gap) and u (unit)."""
    gen = np.random.default_rng(QUAD_KINDS.index(kind))
    worst = {"value": 0.0, "multiplier": 0.0, "unit": 0.0, "gap": 0.0}
    for d in (1,) * 4 if kind == "one_dim" else (2, 3, 5, 8):
        for _ in range(6):
            errors = _quad_case_errors(*_quad_cases(kind, d, gen))
            worst = {key: max(worst[key], errors[key]) for key in worst}
    return worst


@pytest.mark.parametrize("kind", QUAD_KINDS)
def test_sphere_max_quadratic_matches_the_40_digit_secular_root(kind):
    worst = _quad_errors(kind)
    assert worst["multiplier"] <= QUAD_U and worst["unit"] <= UNIT_U, worst
    assert worst["value"] <= QUAD_U and worst["gap"] <= QUAD_U, worst


@pytest.mark.parametrize("M, b", [
    (np.diag([1e-150, 2e-150]), np.array([1e-150, 1e-150])),   # a top pair 1e-150 apart
    (np.array([[-0.0332384019616665]]), np.array([-0.002037407223881694])),
    (np.diag([1.0 - 5e-13, 1.0]), np.array([0.1, 0.0])),   # b on the lower of two close tops
    # M far smaller than b: a pole 1e-200 below the top, with c_top 0 and 1e-250
    (np.diag([1e-200, 2e-200]), np.array([1.0, 0.0])),
    (np.diag([1e-200, 2e-200]), np.array([1.0, 1e-250])),
    # poles closer to the top than the smallest normal number
    (np.diag([-0.5, 1e-310, 2e-310, 4e-310]), np.array([0.0, 5.4e-310, 3.6e-310, 0.0])),
], ids=["tiny_scale", "one_dim", "split_top", "tiny_M", "tiny_M_tiny_c_top", "subnormal_poles"])
def test_sphere_max_quadratic_pinned_cases_match_the_40_digit_secular_root(M, b):
    errors = _quad_case_errors(M, b)
    assert max(errors["value"], errors["multiplier"], errors["gap"]) <= QUAD_U, errors
    assert errors["unit"] <= UNIT_U, errors


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_sphere_max_quadratic_is_exact_under_powers_of_two(d):
    gen = np.random.default_rng(100 + d)
    for _ in range(20):
        M = gen.standard_normal((d, d))
        M = 0.5 * (M + M.T)
        b = gen.standard_normal(d)
        rep = sphere_max_quadratic(M, b)
        for k in (-1000, -500, -170, -40, 40, 500, 1000):
            scaled = sphere_max_quadratic(np.ldexp(M, k), np.ldexp(b, k))
            assert scaled.max_value == np.ldexp(rep.max_value, k), (k, M, b)
            assert scaled.multiplier == np.ldexp(rep.multiplier, k), (k, M, b)
            assert np.array_equal(scaled.argmax, rep.argmax), (k, M, b)


GAUSS_U = 8


def _gauss_grid():
    """Grid indices k of uniforms k * 2**-53: the two ends, the median and its neighbour,
    100 seeded central ones (|z| below about 0.3) and 100 tail ones (u' below 2**-10,
    half of them reflected to the top)."""
    gen = np.random.default_rng(53)
    central = 2 ** 52 + gen.integers(-2 ** 50, 2 ** 50, 100)
    tail = np.exp(gen.uniform(0.0, 43.0 * np.log(2.0), 100)).astype(np.int64)
    ks = [0, 1, 2 ** 52 - 1, 2 ** 52, 2 ** 53 - 1] + central.tolist() + tail[:50].tolist()
    return np.array(ks + (2 ** 53 - 1 - tail[50:]).tolist(), dtype=np.int64)


def _gauss_errors(ks):
    """|z - z'| / |z'| in u, z the map's normal of k * 2**-53 and z' = sqrt(2) erfinv(2u' - 1)
    at the midpoint u' = (k + 1/2) 2**-53, to 40 digits."""
    from scipy.special import ndtri

    z = ks * 2.0 ** -53
    simulate._normals_from_uniforms(z, ndtri)
    errors = []
    with mpmath.workdps(40):
        for k, zk in zip(ks.tolist(), z.tolist()):
            exact = mpmath.sqrt(2) * mpmath.erfinv(mpmath.mpf(2 * k + 1) / 2 ** 53 - 1)
            errors.append(float(abs(zk - exact) / abs(exact)) / U)
    return np.array(errors)


def test_gaussian_map_matches_40_digits_below_the_median():
    ks = _gauss_grid()
    errors = _gauss_errors(ks[ks < 2 ** 52])
    assert errors.max() <= GAUSS_U, errors.max()


@pytest.mark.xfail(strict=True, reason="above the median (k + 1/2) 2**-53 is no double: "
                   "u + 2**-54 ties to the even grid point, so k = 2**52 maps to 0, "
                   "k = 2**53 - 1 to +inf, and the upper tail is off by up to half a cell")
def test_gaussian_map_matches_40_digits_above_the_median():
    ks = _gauss_grid()
    errors = _gauss_errors(ks[ks >= 2 ** 52])
    assert errors.max() <= GAUSS_U, errors.max()


MOMENT_U = 64


def _moment_cases():
    """(name, model, q, x, t): every monomial of degree <= k with a seeded coefficient."""
    gen = np.random.default_rng(35)
    G = gen.standard_normal((3, 3))
    H = G @ G.T / 3
    skew = np.array([[0.0, 0.7, -0.2], [-0.7, 0.0, 0.4], [0.2, -0.4, 0.0]])
    A = gen.standard_normal((2, 2))
    models = [
        ("sphere_bm_d3", SphereModel(H=np.eye(3), B=-np.eye(3)), 4),
        ("sphere_generic_d3", SphereModel(H=H, B=-0.5 * trace_form(H, 3) + skew), 3),
        ("ball_generic_d2", BallModel(alpha=A @ A.T / 2, H=[[0.8]], b=[0.2, -0.1],
                                      B=[[-1.5, 0.4], [-0.2, -1.1]]), 4),
        ("ball_scalar_d3", BallModel.scalar(2.0, 1.0, 3), 3),
    ]
    cases = []
    for name, mdl, k in models:
        q = {e: float(c) for e, c in zip(build_Gk(mdl, k).basis.exponents,
                                         gen.uniform(-1.0, 1.0, 100))}
        x = gen.standard_normal(mdl.d)
        x /= np.linalg.norm(x)
        if mdl.space == "ball":
            x *= 0.7
        cases += [(f"{name}_t{t}", mdl, q, x, t) for t in (0.5, 2.0)]
    return cases


MOMENT_CASES = _moment_cases()


@pytest.mark.parametrize("name, mdl, q, x, t", MOMENT_CASES, ids=[c[0] for c in MOMENT_CASES])
def test_moment_matches_a_50_digit_exponential(name, mdl, q, x, t):
    gk = build_Gk(mdl, poly_degree(q))
    got = moment(mdl, q, x, t)
    d, vec = mdl.d, gk.basis.vector(q)
    if mdl.space == "sphere":
        degrees = sorted({sum(e) for e in q})
        blocks = [(math.comb(d + j - 1, d), math.comb(d + j, d)) for j in degrees]
    else:
        blocks = [(0, len(gk.basis))]
    G = gk.G.toarray()
    with mpmath.workdps(50):
        xs = [mpmath.mpf(v) for v in x.tolist()]
        h = [mpmath.fprod(xi ** ei for xi, ei in zip(xs, e)) for e in gk.basis.exponents]
        exact = scale = mpmath.mpf(0)
        for lo, hi in blocks:
            E = mpmath.expm(t * mpmath.matrix(G[lo:hi, lo:hi].tolist()))
            for i in range(hi - lo):
                for j in range(hi - lo):
                    exact += h[lo + i] * E[i, j] * vec[lo + j]
                    scale += abs(h[lo + i] * E[i, j] * vec[lo + j])
        error = float(abs(got - exact))
    norm1 = max(np.abs(G[lo:hi, lo:hi]).sum(axis=0).max() for lo, hi in blocks)
    bound = MOMENT_U * U * (1.0 + t * norm1) * float(scale)
    assert error <= bound, (error, bound, error / (U * float(scale)))


def _poly_mul(a, b):
    out = [mpmath.mpf(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def test_counterexample_d6_matches_its_50_digit_closed_forms():
    ce = counterexample_d6()
    H, B, report = ce.h, ce.certificate, ce.report
    n = len(H)
    with mpmath.workdps(50):
        lam = (1 - mpmath.sqrt(3)) / 2
        cubic = [4, -16, 14, 1]
        mu = min((r for r in mpmath.polyroots(cubic, maxsteps=200, extraprec=200)),
                 key=lambda r: mpmath.re(r)).real
        # the characteristic polynomial, leading first, and det(s I - H) at 50 digits
        charpoly = [mpmath.mpf(1)]
        for factor in [[1, -2]] * 7 + [[2, -2, -1], cubic, cubic]:
            charpoly = _poly_mul(charpoly, [mpmath.mpf(c) for c in factor])
        charpoly = [c / 32 for c in charpoly]
        Hm = mpmath.matrix(H.tolist())
        for s in range(16):
            det = mpmath.det(s * mpmath.eye(n) - Hm)
            value = mpmath.polyval(charpoly, s)
            size = mpmath.polyval([abs(c) for c in charpoly], s)
            assert abs(det - value) <= mpmath.mpf(10) ** -40 * size, s
        # the certificate B from the exact lam and mu
        e = mpmath.eye(n)
        v1 = 0.5 * e[:, 1] - lam * e[:, 6] + 0.5 * e[:, 10]
        v2 = (mu / 2) * e[:, 2] + mu * (2 - mu) * e[:, 5] + 0.5 * (mu - 1) * e[:, 12] \
            + 0.5 * e[:, 13]
        v3 = 0.5 * (1 - mu) * e[:, 0] - (mu / 2) * e[:, 7] + 0.5 * e[:, 8] \
            + mu * (mu - 2) * e[:, 9]
        delta = mu * (mu - 2) * (2 * mu - 1) / lam
        Bm = delta * v1 * v1.T + v2 * v2.T + v3 * v3.T
        inner = mpmath.fsum(Hm[i, j] * Bm[i, j] for i in range(n) for j in range(n))
        inner_size = mpmath.fsum(abs(Hm[i, j] * Bm[i, j]) for i in range(n) for j in range(n))
        # the elementary symmetric functions of the exact |eigenvalues|
        roots = [mpmath.mpf(2)] * 7 + [(1 + mpmath.sqrt(3)) / 2, lam]
        roots += 2 * [r.real for r in mpmath.polyroots(cubic, maxsteps=200, extraprec=200)]
        sym = [mpmath.mpf(1)]
        for r in roots:
            sym = _poly_mul(sym, [mpmath.mpf(1), abs(r)])
        rho = max(abs(r) for r in roots)
        errors = {
            "lambda": (abs(report["lambda"] - lam), 4 * U * abs(lam)),
            "mu": (abs(report["mu"] - mu), 32 * U * 4),
            "inner_hb": (abs(report["inner_hb"] - inner), 64 * U * inner_size),
            "inner_formula": (abs(report["inner_formula"] - inner), 64 * U * inner_size),
            "vdot": (abs(float(np.vdot(H, B)) - inner), 64 * U * inner_size),
        }
        got = np.poly(H)
        for k in range(1, n + 1):
            bound = 16 * U * n * (rho * sym[k - 1] + sym[k])
            errors[f"charpoly_{k}"] = (abs(got[k] - charpoly[k]), bound)
        errors = {key: (float(err), float(bound)) for key, (err, bound) in errors.items()}
    over = {key: value for key, value in errors.items() if not value[0] <= value[1]}
    assert not over, over

import numpy as np
import pytest

from quadricdiff.cspace import _PluckerKernel, cmap_from_h, k_matrix
from quadricdiff.skew import skew_dim, skew_to_vec, vec_to_skew
from quadricdiff.sos import (
    _factors,
    charpoly_reference,
    counterexample_d6,
    nonneg_check,
    reconstruct_cmap,
    sos_check,
    verify_certificate,
)

from kbasis import k_basis
from refs import cmap_from_pair

rng = np.random.default_rng(2718)


def kernel_shift(d, scale=1.0):
    els = k_basis(d)
    if not els:
        return np.zeros((skew_dim(d),) * 2)
    return sum(rng.uniform(-scale, scale) * el.matrix for el in els)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
def test_identity_is_feasible(d):
    m = skew_dim(d)
    v = sos_check(np.eye(m))
    assert v.status == "Feasible"
    assert np.allclose(v.h_star, np.eye(m))
    assert np.allclose(v.h_star - np.eye(m), 0.0, atol=1e-12)


def test_feasible_witness_contract_d4():
    K = k_basis(4)[0].matrix
    for _ in range(30):
        G = rng.standard_normal((6, 6))
        H0 = G @ G.T
        H = H0 + rng.uniform(-3, 3) * np.linalg.norm(H0) * K
        v = sos_check(H)
        assert v.status == "Feasible"
        # witness invariants: PSD and exact kernel membership of the shift
        assert np.linalg.eigvalsh(v.h_star)[0] >= -1e-9
        shift = v.h_star - H
        proj = float(np.sum(shift * K)) / float(np.sum(K * K)) * K
        assert np.linalg.norm(shift - proj) <= 1e-9 * max(1.0, np.linalg.norm(H))
        C = cmap_from_h(H, 4)
        C2 = reconstruct_cmap(v.factors, 4)
        assert np.abs(C - C2).max() <= 1e-8


def test_sos_decompose_identity_d3():
    factors = sos_check(np.eye(3)).factors
    assert len(factors) == 3
    C = reconstruct_cmap(factors, 3)
    x = rng.standard_normal(3)
    from refs import cmap_eval

    assert np.allclose(cmap_eval(C, x), (x @ x) * np.eye(3) - np.outer(x, x), atol=1e-10)


def test_sos_decompose_rank_one():
    u = rng.standard_normal(6)
    factors = sos_check(np.outer(u, u)).factors
    assert len(factors) == 1
    C = reconstruct_cmap(factors, 4)
    assert np.abs(C - cmap_from_h(np.outer(u, u), 4)).max() <= 1e-10


def test_sos_decompose_random_psd_reconstruction():
    for _ in range(20):
        G = rng.standard_normal((6, 6))
        H = G @ G.T
        factors = sos_check(H).factors
        C = reconstruct_cmap(factors, 4)
        assert np.abs(C - cmap_from_h(H, 4)).max() <= 1e-9 * max(1.0, np.linalg.norm(H))


def test_counterexample_construction():
    ce = counterexample_d6()
    H, B, rep = ce.h, ce.certificate, ce.report
    assert H.shape == (15, 15) and np.array_equal(H, H.T)
    # eigen claims at machine precision
    assert max(rep["eig_residuals"].values()) <= 1e-12
    assert rep["lambda"] == pytest.approx((1 - np.sqrt(3.0)) / 2, abs=1e-15)
    assert rep["mu"] == pytest.approx(-0.0663187467899, abs=1e-10)
    phi = lambda s: 4 * s ** 3 - 16 * s ** 2 + 14 * s + 1
    assert abs(phi(rep["mu"])) <= 1e-12
    assert rep["delta"] > 0
    # charpoly
    target = charpoly_reference()
    got = np.poly(H)
    assert np.all(np.abs(got - target) <= 1e-8 * np.maximum(1.0, np.abs(target)))
    # certificate margins
    assert rep["inner_hb"] < -0.1
    assert rep["inner_hb"] == pytest.approx(rep["inner_formula"], abs=1e-10)
    assert rep["k_orth_max"] <= 1e-10
    assert np.linalg.eigvalsh(B)[0] >= -1e-12
    ok, cert_rep = verify_certificate(H, B)
    assert ok and rep["certificate_valid"]


def test_counterexample_sos_infeasible():
    ce = counterexample_d6()
    v = sos_check(ce.h)
    assert v.status == "Infeasible"
    ok, rep = verify_certificate(ce.h, v.certificate)
    assert ok
    assert rep["inner"] < -1e-3


def test_counterexample_sos_certificate_margin():
    ce = counterexample_d6()
    v = sos_check(ce.h)
    assert v.status == "Infeasible"
    assert float(np.sum(ce.h * v.certificate)) <= -0.1


@pytest.mark.parametrize("d", [4, 5, 6, 7, 8, 9])
def test_plucker_kernel_gathers_match_dense_reference(d):
    m = skew_dim(d)
    Ks = np.array([el.matrix for el in k_basis(d)])
    kernel = _PluckerKernel(d)
    X = rng.standard_normal((m, m))
    X = X + X.T
    rng.standard_normal(m)  # keeps the draws of the later tests unchanged
    t = rng.standard_normal(len(Ks))
    inner = np.tensordot(Ks, X, axes=2)
    assert np.abs(kernel.inner(X) - inner).max() <= 1e-14
    assert np.abs(kernel.project(X) - np.tensordot(inner / 6.0, Ks, axes=1)).max() <= 1e-14
    assert np.abs(kernel.combine(t) - np.tensordot(t, Ks, axes=1)).max() <= 1e-14
    _, rep = verify_certificate(X, X)
    assert abs(rep["k_orth_max"] - np.abs(inner).max()) <= 1e-14


def negative_form(seed, d):
    """P + shift - s a a^T with a = vec(x y^T - y x^T): the form is negative at (x, y)."""
    r = np.random.default_rng(seed)
    m = skew_dim(d)
    G = r.standard_normal((m, m))
    P = G @ G.T / m
    x, y = r.standard_normal(d), r.standard_normal(d)
    a = skew_to_vec(np.outer(x, y) - np.outer(y, x))
    a /= np.linalg.norm(a)
    shift = sum(r.uniform(-1, 1) * el.matrix for el in k_basis(d))
    return P + shift - 1.5 * float(a @ P @ a) * np.outer(a, a)


@pytest.mark.parametrize("seed", [2, 10, 11])
def test_negative_form_gets_verified_certificate(seed):
    H = negative_form(seed, 6)
    v = sos_check(H)
    assert v.status == "Infeasible"
    ok, _ = verify_certificate(H, v.certificate)
    assert ok


def test_verify_certificate_cases():
    ce = counterexample_d6()
    ok, _ = verify_certificate(ce.h, ce.certificate)
    assert ok
    # trace-one PSD against the identity: inner product positive
    B = np.eye(3) / 3.0
    ok, rep = verify_certificate(np.eye(3), B)
    assert not ok and rep["inner"] == pytest.approx(1.0)
    # kernel-orthogonality violation
    K = k_matrix((1, 2, 3, 4), 6)
    ok, rep = verify_certificate(ce.h, ce.certificate + 0.5 * K)
    assert not ok and rep["k_orth_max"] > 0.1


def test_nonneg_check_cases():
    r = nonneg_check(np.eye(3))
    assert not r.negative and r.min_value >= -1e-12
    assert r.status == "NonnegativeUpTo"
    r = nonneg_check(-np.eye(3))
    assert r.negative and r.min_value <= -0.9
    assert r.status == "NegativeWitness"
    # the witness pair certifies the negative value
    from quadricdiff.cspace import biquadratic_eval

    assert biquadratic_eval(-np.eye(3), r.x, r.y) == pytest.approx(r.min_value)
    ce = counterexample_d6()
    r = nonneg_check(ce.h)
    assert not r.negative and r.min_value >= -1e-9


def _shifted_gaussian_form(d, seed):
    """H = (G + G^T)/2 + 2 I with G standard normal from default_rng(seed)."""
    m = skew_dim(d)
    G = np.random.default_rng(seed).standard_normal((m, m))
    return (G + G.T) / 2 + 2 * np.eye(m)


# The SOS-infeasible forms of that family, seeds 0-399, on which a screen that
# let y run along x stopped at the trivial zero of the form.
TRAPPED_FORMS = ([(4, seed) for seed in (38, 71, 72, 83, 114, 118, 174, 187, 191, 260, 296,
                                         320, 351, 362, 367, 394)]
                 + [(5, seed) for seed in (0, 71, 74, 77, 79, 253, 328, 371, 383)])


@pytest.mark.parametrize("d,seed", TRAPPED_FORMS)
def test_nonneg_check_searches_orthonormal_pairs(d, seed):
    # The form vanishes at y = x; searching y in x-perp finds its negative values.
    H = _shifted_gaussian_form(d, seed)
    r = nonneg_check(H)
    assert r.negative and r.min_value < -1e-9
    from quadricdiff.cspace import biquadratic_eval

    assert biquadratic_eval(H, r.x, r.y) == r.min_value
    assert abs(r.x @ r.y) <= 1e-12
    assert np.linalg.norm(r.x) == pytest.approx(1.0) and np.linalg.norm(r.y) == pytest.approx(1.0)


def test_nonneg_check_reports_the_minimum_over_orthonormal_pairs():
    # c_I(x) on x-perp is the identity there: the minimum over orthonormal pairs is 1
    r = nonneg_check(np.eye(3))
    assert r.min_value == pytest.approx(1.0, abs=1e-12)
    assert abs(r.x @ r.y) <= 1e-12
    # the empty form of d = 1 has no orthonormal pair and reads 0
    r = nonneg_check(np.zeros((0, 0)))
    assert not r.negative and r.min_value == 0.0


def test_d3_infeasible_certificates():
    # no kernel at d = 3: indefinite matrices get certificates from Pi_-(H)
    for _ in range(20):
        H = rng.standard_normal((3, 3))
        H = H + H.T
        v = sos_check(H)
        if np.linalg.eigvalsh(H)[0] >= -1e-9:
            assert v.status == "Feasible"
        else:
            assert v.status == "Infeasible"
            ok, _ = verify_certificate(H, v.certificate)
            assert ok


def test_undecided_never_lies():
    # mixed instances: the solver may refuse, but must never report an
    # unverifiable witness or contradict a known ground truth
    for i in range(60):
        d = (3, 4, 6)[i % 3]
        m = skew_dim(d)
        kind = i % 4
        if kind == 0:
            G = rng.standard_normal((m, m))
            H = G @ G.T + kernel_shift(d, 2.0)
            truth = "feasible"
        elif kind == 3:
            G = rng.standard_normal((m, m))
            H = -G @ G.T + kernel_shift(d, 1.0)
            truth = "infeasible"  # negative trace survives kernel shifts
        else:
            H = rng.standard_normal((m, m))
            H = 0.5 * (H + H.T)
            truth = None
        v = sos_check(H, max_iter=20000)
        if v.status == "Feasible":
            assert truth != "infeasible"
            assert np.linalg.eigvalsh(v.h_star)[0] >= -1e-9
        elif v.status == "Infeasible":
            assert truth != "feasible"
            ok, _ = verify_certificate(H, v.certificate)
            assert ok
        else:
            assert v.residuals  # diagnostics always present


def _shift(r, d):
    kernel = _PluckerKernel(d)
    return kernel.combine(r.uniform(-1, 1, len(kernel)))


def half_rank_form(seed, d):
    """P + shift with P = G G^T, G of size m x m/2: feasible, P rank-deficient."""
    r = np.random.default_rng(seed)
    m = skew_dim(d)
    G = r.standard_normal((m, m // 2))
    return G @ G.T + _shift(r, d)


def _assert_feasible_witness(H, v):
    d = v.d
    scale = max(1.0, np.linalg.norm(H))
    assert v.status == "Feasible"
    assert np.linalg.eigvalsh(v.h_star)[0] >= -1e-9
    shift = v.h_star - H
    member = shift - _PluckerKernel(d).project(shift)
    assert np.linalg.norm(member) <= 1e-9 * scale


def _assert_certificate(H, v):
    assert v.status == "Infeasible"
    ok, rep = verify_certificate(H, v.certificate)
    assert ok
    assert rep["inner"] <= -1e-6 * max(1.0, np.linalg.norm(H))


@pytest.mark.parametrize("d,seed", [(6, 500), (6, 501), (6, 502), (8, 500), (8, 502), (8, 503)])
def test_rank_deficient_feasible_family(d, seed):
    H = half_rank_form(seed, d)
    v = sos_check(H)
    _assert_feasible_witness(H, v)
    C = reconstruct_cmap(v.factors, d)
    assert np.abs(C - cmap_from_h(H, d)).max() <= 1e-8 * np.linalg.norm(H)
    # the witness is re-checked against the dense kernel basis too
    shift = v.h_star - H
    Ks = np.array([el.matrix for el in k_basis(d)])
    coeffs = np.tensordot(Ks, shift, axes=2) / 6.0
    assert np.linalg.norm(shift - np.tensordot(coeffs, Ks, axes=1)) <= 1e-9 * np.linalg.norm(H)


@pytest.mark.parametrize("d", [14, 20])
def test_known_truth_large_d(d):
    r = np.random.default_rng(d)
    m = skew_dim(d)
    G = r.standard_normal((m, m))
    H = G @ G.T + _shift(r, d)
    _assert_feasible_witness(H, sos_check(H))
    # negative form: y^T c_H(x) y < 0 at a known pair, so H is infeasible
    G = r.standard_normal((m, m))
    P = G @ G.T / m
    x, y = r.standard_normal(d), r.standard_normal(d)
    a = skew_to_vec(np.outer(x, y) - np.outer(y, x))
    a /= np.linalg.norm(a)
    H = P + _shift(r, d) - 1.5 * float(a @ P @ a) * np.outer(a, a)
    _assert_certificate(H, sos_check(H))


@pytest.mark.parametrize("max_iter", [1, 2, 10, 60])
def test_iteration_budget_is_honest(max_iter):
    for seed in (0, 1, 2, 3):
        for H, truth in ((negative_form(seed, 8), "Infeasible"),
                         (half_rank_form(500 + seed, 8), "Feasible")):
            v = sos_check(H, max_iter=max_iter)
            assert v.status in (truth, "Undecided")
            assert v.iterations <= max_iter
            assert sum(v.stats["iterations"].values()) == v.iterations
            if v.status == "Infeasible":
                _assert_certificate(H, v)
            elif v.status == "Feasible":
                _assert_feasible_witness(H, v)


def test_max_iter_must_be_positive():
    # A count is a positive integer and a tolerance a positive finite number;
    # the error names the argument.
    bad = [(sos_check, (H,), "tol", t) for H in (np.eye(6), -np.eye(6))
           for t in (-1, 0.0, np.nan, np.inf, True)]
    bad += [(sos_check, (np.eye(6),), "max_iter", n) for n in (0, -3, 2.5, True)]
    bad += [(verify_certificate, (np.eye(6), -np.eye(6) / 6), "tol", t)
            for t in (-1, np.nan, np.inf)]
    for fn, args, name, value in bad:
        with pytest.raises(ValueError, match=f"^{name} must be a positive"):
            fn(*args, **{name: value})


def test_stats_name_the_deciding_phase():
    v = sos_check(np.eye(6))
    assert (v.stats["phase"], v.stats["stop"]) == ("precheck", "feasible point found")
    assert v.iterations == 1 and v.stats["iterations"] == {"precheck": 1}
    v = sos_check(-np.eye(6))
    assert (v.stats["phase"], v.stats["stop"]) == ("precheck", "certificate verified")
    assert "cg_products" not in v.stats
    v = sos_check(half_rank_form(500, 6))
    assert (v.stats["phase"], v.stats["stop"]) == ("smooth", "feasible point found")
    assert v.stats["iterations"]["smooth"] == v.iterations
    assert v.stats["cg_products"] >= v.iterations >= 1
    ce = counterexample_d6()
    v = sos_check(ce.h)
    assert (v.stats["phase"], v.stats["stop"]) == ("smooth", "certificate verified")
    assert v.stats["cg_products"] >= v.iterations >= 1
    assert set(v.stats["seconds"]) == {"precheck", "smooth"}
    assert all(s >= 0.0 for s in v.stats["seconds"].values())


def test_flat_rank_deficient_instance_within_newton_budget():
    # phi is flat near its zero set here; the verdict must come within a
    # fixed count of Newton steps, not a wall-clock bound.
    H = half_rank_form(521, 8)
    v = sos_check(H, max_iter=100)
    _assert_feasible_witness(H, v)
    assert v.iterations <= 100


@pytest.mark.parametrize("gap,status", [(5.7e-5, "Infeasible"), (0.0, "Feasible"),
                                        (1e-5, None), (1e-7, None)])
def test_counterexample_boundary_scan(gap, status):
    # counterexample + c I is a sum of squares from c = 1/7 on.  Just below,
    # the certificate's <H, B> sits inside the margin: the verdict may be
    # Undecided, never Feasible, and it must come from the stop tests or the
    # stall stop, not from spending the budget.
    H = counterexample_d6().h + (1.0 / 7.0 - gap) * np.eye(15)
    v = sos_check(H)
    if status is not None:
        assert v.status == status
    assert v.status != "Feasible" or gap == 0.0
    assert v.stats["stop"] != "budget spent" and v.iterations <= 50
    if v.status == "Feasible":
        _assert_feasible_witness(H, v)
    elif v.status == "Infeasible":
        assert verify_certificate(H, v.certificate)[0]
    else:
        assert v.stats["stop"] == "stalled"


@pytest.mark.parametrize("d", [4, 6, 8])
def test_hessian_product_is_the_divided_difference_derivative(d):
    # v -> K*(V (Omega o V^T (K v) V) V^T) + mu v, checked against the dense
    # Daleckii-Krein formula and against central differences of the gradient.
    from quadricdiff.sos import _hessian_product

    r = np.random.default_rng(d)
    kernel = _PluckerKernel(d)
    m = skew_dim(d)
    X = r.standard_normal((m, m))
    Z = X + X.T
    lam, V = np.linalg.eigh(Z)
    f = np.minimum(lam, 0.0)
    with np.errstate(invalid="ignore"):
        omega = (f[:, None] - f[None, :]) / (lam[:, None] - lam[None, :])
    np.fill_diagonal(omega, lam < 0.0)  # the eigenvalues of Z are distinct
    v = r.standard_normal(len(kernel))
    dense = kernel.inner(V @ (omega * (V.T @ kernel.combine(v) @ V)) @ V.T) + 0.3 * v
    got = _hessian_product(kernel, lam, V, 0.3)(v)
    assert np.abs(got - dense).max() <= 1e-12 * max(1.0, np.abs(dense).max())

    def grad(t):
        w, Q = np.linalg.eigh(Z + kernel.combine(t))
        k = int(np.searchsorted(w, 0.0))
        return kernel.inner((Q[:, :k] * w[:k]) @ Q[:, :k].T)

    h = 1e-6
    fd = (grad(h * v) - grad(-h * v)) / (2 * h) + 0.3 * v
    assert np.abs(got - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())


@pytest.mark.parametrize("d,j", [(4, 2), (6, 8), (8, 14)])
def test_face_product_is_the_gauss_newton_matrix(d, j):
    # The face step's product v -> K*(P K(v) P), P = U0 U0^T, is J^T J for
    # J v the derivative of U0^T Z(t) U0 along v: checked against the dense
    # formula and against central differences of U0^T Z(t) U0.
    from quadricdiff.sos import _hessian_product

    r = np.random.default_rng(100 + d)
    kernel = _PluckerKernel(d)
    m = skew_dim(d)
    X = r.standard_normal((m, m))
    Z = X + X.T
    U0 = np.linalg.eigh(Z)[1][:, :j]
    P = U0 @ U0.T
    v = r.standard_normal(len(kernel))
    got = _hessian_product(kernel, -np.ones(j), U0, 0.0)(v)
    dense = kernel.inner(P @ kernel.combine(v) @ P)
    assert np.abs(got - dense).max() <= 1e-12 * max(1.0, np.abs(dense).max())

    def block(t):
        return U0.T @ (Z + kernel.combine(t)) @ U0

    h = 1e-6
    fd = kernel.inner(U0 @ ((block(h * v) - block(-h * v)) / (2 * h)) @ U0.T)
    assert np.abs(got - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())


@pytest.mark.parametrize("d", [6, 8, 10])
def test_half_rank_families_are_decided_within_ten_steps(d):
    # Every PSD point of these affine sets is rank deficient, where the
    # Newton-CG alone is linear; with the face step each is decided within a
    # fixed count of steps, not a wall-clock bound.
    for seed in range(500, 520):
        H = half_rank_form(seed, d)
        v = sos_check(H)
        _assert_feasible_witness(H, v)
        assert v.iterations <= 10, seed


@pytest.mark.parametrize("d", [20, 26])
def test_large_half_rank_forms_are_decided_within_twelve_steps(d):
    H = half_rank_form(0, d)
    v = sos_check(H)
    _assert_feasible_witness(H, v)
    assert v.iterations <= 12


def test_stats_report_the_face():
    H = half_rank_form(500, 8)
    v = sos_check(H)
    face, m = v.stats["face"], skew_dim(8)
    assert set(face) == {"dim", "steps", "cg_products"}
    assert 0 < face["dim"] < m and 1 <= face["steps"] <= v.iterations
    assert 0 < face["cg_products"] <= v.stats["cg_products"]
    # the witness is singular on the face, and positive definite off it
    w = np.linalg.eigvalsh(v.h_star)
    assert np.abs(w[:face["dim"]]).max() <= 1e-9 < w[face["dim"]]


def test_undecided_residuals_at_best_point():
    v = sos_check(half_rank_form(502, 8), max_iter=4)
    assert v.status == "Undecided"
    assert (v.stats["phase"], v.stats["stop"]) == ("smooth", "budget spent")
    assert v.iterations == 4
    assert set(v.residuals) == {"phi", "eig_min", "grad_norm", "dual_value", "dual_eig_min",
                                "margin"}
    assert v.residuals["phi"] > 0 and v.residuals["eig_min"] < 0


def test_phi_at_zero_decides_psd_and_kernel_free_forms(monkeypatch):
    # A PSD H at any d, and every H at d <= 3, where there is no kernel, is
    # decided by the first evaluation of phi: the Newton-CG never runs.
    import quadricdiff.sos as sos_module

    def refuse(*args, **kwargs):
        raise AssertionError("the Newton-CG must not run")

    monkeypatch.setattr(sos_module, "_newton_cg", refuse)
    r = np.random.default_rng(7)
    for d in (4, 6):
        m = skew_dim(d)
        G = r.standard_normal((m, m // 2))
        for H in (np.eye(m), G @ G.T):
            v = sos_check(H)
            assert v.status == "Feasible" and v.stats["iterations"] == {"precheck": 1}
            assert np.array_equal(v.h_star, 0.5 * (H + H.T))
    assert sos_check(np.zeros((0, 0))).status == "Feasible"
    for d in (2, 3):
        m = skew_dim(d)
        for _ in range(40):
            H = r.standard_normal((m, m))
            H = H + H.T
            v = sos_check(H)
            assert v.iterations == 1 and v.stats["phase"] == "precheck"
            w, V = np.linalg.eigh(H)
            if w[0] >= 0:
                assert v.status == "Feasible" and np.array_equal(v.h_star, H)
                continue
            assert v.status == "Infeasible"
            if np.trace(H) / m <= -1e-6 * max(1.0, np.linalg.norm(H)):
                expected = np.eye(m) / m
            else:
                N = (V[:, w < 0] * w[w < 0]) @ V[:, w < 0].T
                expected = N / np.trace(N)
            assert np.allclose(v.certificate, expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("depth,status", [(5e-10, "Undecided"), (0.5e-10, "Feasible")])
def test_kernel_free_acceptance_is_accept_tol(depth, status):
    # d = 3: H is its own witness iff eig_min >= -min(tol, 1e-10 ||H||).  At
    # -5e-10 ||H|| (above -tol = -1e-9) it is neither accepted nor refutable.
    Q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))
    top = np.array([0.8, 1.0])
    lam = np.concatenate([[-depth * np.linalg.norm(top)], top])
    H = (Q * lam) @ Q.T
    assert -1e-9 < np.linalg.eigvalsh(H)[0] < 0.0
    v = sos_check(H)
    assert v.status == status and v.iterations == 1
    if status == "Feasible":
        assert np.array_equal(v.h_star, 0.5 * (H + H.T))
    else:
        assert v.stats["stop"] == "no verified witness"
        assert set(v.residuals) == {"phi", "eig_min", "grad_norm", "dual_value",
                                    "dual_eig_min", "margin"}
        assert v.residuals["eig_min"] == pytest.approx(lam[0], rel=1e-3)


@pytest.mark.parametrize("d", [4, 6, 8])
def test_repaired_candidate_is_admissible(d):
    # any negative semidefinite N: the repaired candidate is PSD, unit-trace
    # and kernel-orthogonal, whatever the kernel component of N
    from quadricdiff.sos import _repaired

    kernel = _PluckerKernel(d)
    m = skew_dim(d)
    for _ in range(10):
        G = rng.standard_normal((m, rng.integers(1, m + 1)))
        N = -G @ G.T
        B = _repaired(N, kernel.inner(N), kernel)
        assert np.linalg.eigvalsh(B)[0] >= -1e-12
        assert np.trace(B) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(kernel.inner(B)).max() <= 1e-12


def test_sos_check_refuses_non_finite_or_misshapen_h():
    for bad in (np.nan, np.inf, -np.inf):
        H = np.eye(3)
        H[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            sos_check(H)
    # phi(0) = lambda^2 / 2 overflows: refused, not a KeyError
    for H in (np.array([[-1e200]]), np.diag([1e200, -1e200, 1.0])):
        with pytest.raises(ValueError, match="finite"):
            sos_check(H)
    for H in (np.eye(2), np.ones(3), np.ones((3, 4)), np.ones((1, 3, 3))):
        with pytest.raises(ValueError, match="shape"):
            sos_check(H)


def test_verify_certificate_refuses_an_asymmetric_certificate():
    # eigvalsh reads B's lower triangle, where it looks PSD, while <H, B> and
    # the kernel test read both; B's symmetric part has the eigenvalue -1
    H = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    B = np.array([[1.0, -4.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    assert sos_check(H).status == "Feasible"
    with pytest.raises(ValueError, match="^B must be symmetric"):
        verify_certificate(H, B)
    # an asymmetry at roundoff passes, and B is evaluated as given
    B = -0.5 * H + np.diag([0.0, 0.0, 1.0])
    B[0, 1] += 1e-14
    report = verify_certificate(-H, B)[1]
    assert report["inner"] == float(np.sum(-H * B))


def test_sos_decompose_factors_the_symmetric_part():
    H_star = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    C = reconstruct_cmap(sos_check(H_star).factors, 3)
    assert np.abs(C - cmap_from_h(H_star, 3)).max() <= 1e-12


def test_sos_decompose_prescales_a_spectrum_that_overflows():
    # The top eigenvalue of this H*, 2e308, overflows, and a cutoff of
    # tol * inf used to drop every factor.  H* / 4 is factored instead and
    # each factor scaled by 2.  The eigenvalue 1 is 5e-309 of the top one,
    # below the rank cutoff, so one factor remains.
    H = np.array([[1e308, 1e308, 0.0], [1e308, 1e308, 0.0], [0.0, 0.0, 1.0]])
    v = sos_check(H)
    assert v.status == "Feasible" and len(v.factors) == 1
    half = [skew_to_vec(A) / 2.0 for A in v.factors]
    scaled = v.h_star / 4.0
    err = np.abs(sum(np.outer(a, a) for a in half) - scaled).max()
    assert err <= 1e-12 * np.abs(scaled).max()
    # a finite spectrum is factored unscaled, bit for bit
    P = np.diag([4.0, 1.0, 2.0]) + 0.5
    lam, V = np.linalg.eigh(P)
    for p, A in zip((2, 1, 0), sos_check(P).factors):
        assert np.array_equal(A, vec_to_skew(np.sqrt(lam[p]) * V[:, p], 3))


def test_sos_check_factors_its_witness_as_sos_decompose_does():
    # sos_check factors its witness from the eigendecomposition that phi made of
    # it; a fresh eigh of the witness gives the same bytes, the overflow path too
    r = np.random.default_rng(31)
    cases = [np.array([[1e308, 1e308, 0.0], [1e308, 1e308, 0.0], [0.0, 0.0, 1.0]])]
    for d in (3, 4, 6, 8):
        m = skew_dim(d)
        for cols in (m, m // 2, m):
            G = r.standard_normal((m, cols))
            cases.append(G @ G.T / m + sum((r.uniform(-0.5, 0.5) * el.matrix
                                            for el in k_basis(d)), np.zeros((m, m))))
    feasible = 0
    for H in cases:
        v = sos_check(H)
        if v.status == "Feasible":
            feasible += 1
            factors = np.array(v.factors)
            again = np.array(_factors(v.h_star, *np.linalg.eigh(v.h_star), v.d, 1e-9))
            assert factors.shape == again.shape and factors.tobytes() == again.tobytes()
    assert feasible == len(cases)


@pytest.mark.parametrize("d", range(2, 9))
def test_sos_check_factors_a_psd_h_as_its_own_witness(d):
    # phi(0) accepts a PSD H as its own witness and factors it with the bits
    # of a fresh eigendecomposition, at scales 1 and 4^+-400.  A rank-deficient
    # H is tried at scale 1 only: its roundoff eigenvalues fall below the
    # witness tolerance -min(tol, 1e-10 ||H||), which is -tol at 4^400 and 0
    # at 4^-400, where ||H|| underflows.
    r = np.random.default_rng(d)
    m = skew_dim(d)
    G = r.standard_normal((m, m))
    R = r.standard_normal((m, max(1, m // 2)))
    cases = [(G @ G.T / m + np.eye(m), (0, 400, -400)), (R @ R.T, (0,))]
    for H, exponents in cases:
        for e in exponents:
            Hs = np.ldexp(H, 2 * e)
            v = sos_check(Hs)
            assert v.status == "Feasible" and v.h_star.tobytes() == Hs.tobytes(), e
            got = np.array(v.factors)
            want = np.array(_factors(Hs, *np.linalg.eigh(Hs), d, 1e-9))
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), e


@pytest.mark.parametrize("d", range(2, 9))
def test_sos_check_decides_zero_at_phi_0(d):
    # c_H = 0 is the empty sum of squares: Z = 0 is PSD, and it has no factor
    m = skew_dim(d)
    v = sos_check(np.zeros((m, m)))
    assert (v.status, v.iterations, v.factors, v.certificate) == ("Feasible", 1, [], None)
    assert v.residuals == {"eig_min": 0.0, "membership_residual": 0.0}
    assert {key: value for key, value in v.stats.items() if key != "seconds"} == {
        "phase": "precheck", "iterations": {"precheck": 1}, "stop": "feasible point found"}
    assert v.h_star.tobytes() == np.zeros((m, m)).tobytes()


def test_reconstruct_cmap_is_the_sum_of_its_factors_tensors():
    r = np.random.default_rng(8)
    for d in (4, 6, 8):
        m = skew_dim(d)
        G = r.standard_normal((m, m))
        factors = sos_check(G @ G.T).factors
        want = sum(0.5 * cmap_from_pair(A, A) for A in factors)
        err = np.abs(reconstruct_cmap(factors, d) - want).max()
        assert err <= 1e-15 * np.abs(want).max(), (d, err)


def test_sos_check_symmetrizes_without_overflow():
    # a symmetric H keeps its bits, even next to the largest and smallest doubles
    H = np.diag([1.7e308, 1e308, 5e-324, 1.0, 2.0, 3e-310])
    v = sos_check(H)
    assert v.status == "Feasible" and v.h_star.tobytes() == H.tobytes()
    assert sos_check(np.array([[1e308]])).status == "Feasible"
    H = np.array([[1.7e308, 1.5e308, 0.0], [1.6e308, 1.7e308, 0.0], [0.0, 0.0, 1.0]])
    v = sos_check(H)
    assert v.status == "Feasible" and v.h_star[0, 1] == v.h_star[1, 0] == 1.55e308

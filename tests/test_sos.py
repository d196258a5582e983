import numpy as np
import pytest

from quadricdiff.cspace import _PluckerKernel, cmap_from_h, k_matrix
from quadricdiff.skew import skew_dim, skew_to_vec
from quadricdiff.sos import (
    charpoly_reference,
    counterexample_d6,
    nonneg_check,
    reconstruct_cmap,
    sos_check,
    sos_decompose,
    verify_certificate,
)

from kbasis import k_basis

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
    factors = sos_decompose(np.eye(3))
    assert len(factors) == 3
    C = reconstruct_cmap(factors, 3)
    x = rng.standard_normal(3)
    from quadricdiff.cspace import cmap_eval

    assert np.allclose(cmap_eval(C, x), (x @ x) * np.eye(3) - np.outer(x, x), atol=1e-10)


def test_sos_decompose_rank_one():
    u = rng.standard_normal(6)
    factors = sos_decompose(np.outer(u, u))
    assert len(factors) == 1
    C = reconstruct_cmap(factors, 4)
    assert np.abs(C - cmap_from_h(np.outer(u, u), 4)).max() <= 1e-10


def test_sos_decompose_random_psd_reconstruction():
    for _ in range(20):
        G = rng.standard_normal((6, 6))
        H = G @ G.T
        factors = sos_decompose(H)
        C = reconstruct_cmap(factors, 4)
        assert np.abs(C - cmap_from_h(H, 4)).max() <= 1e-9 * max(1.0, np.linalg.norm(H))


def test_sos_decompose_rejects_indefinite():
    with pytest.raises(ValueError):
        sos_decompose(np.diag([1.0, -1.0, 1.0]))


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
    r = nonneg_check(ce.h, restarts=10)
    assert not r.negative and r.min_value >= -1e-9


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
    with pytest.raises(ValueError):
        sos_check(np.eye(6), max_iter=0)


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
    assert "stats" not in v.to_json()


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
    C = reconstruct_cmap(sos_decompose(H_star), 3)
    assert np.abs(C - cmap_from_h(H_star, 3)).max() <= 1e-12


def test_sos_check_symmetrizes_without_overflow():
    # a symmetric H keeps its bits, even next to the largest and smallest doubles
    H = np.diag([1.7e308, 1e308, 5e-324, 1.0, 2.0, 3e-310])
    v = sos_check(H)
    assert v.status == "Feasible" and v.h_star.tobytes() == H.tobytes()
    assert sos_check(np.array([[1e308]])).status == "Feasible"
    H = np.array([[1.7e308, 1.5e308, 0.0], [1.6e308, 1.7e308, 0.0], [0.0, 0.0, 1.0]])
    v = sos_check(H)
    assert v.status == "Feasible" and v.h_star[0, 1] == v.h_star[1, 0] == 1.55e308

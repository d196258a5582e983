import re

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse import csr_array

from quadricdiff.generator import (
    build_Gk,
    moment,
    monomial_basis,
    poly_degree,
    poly_from_json,
)
from quadricdiff.model import BallModel, SphereModel
from quadricdiff.skew import skew_dim

from refs import a_eval, apply_generator, drift_eval, poly_to_json

rng = np.random.default_rng(99)

SIG2, BJ, BB = 0.49, 0.1, -0.8


def jacobi():
    return BallModel(alpha=[[SIG2]], H=np.zeros((0, 0)), b=[BJ], B=[[BB]])


def sphere_bm(d):
    return SphereModel(H=np.eye(skew_dim(d)), B=-0.5 * (d - 1) * np.eye(d))


def ball_generic(d):
    return BallModel(alpha=np.eye(d), H=np.eye(skew_dim(d)), b=0.1 * np.eye(d)[0],
                     B=-d * np.eye(d))


def test_monomial_basis_sizes_and_order():
    b = monomial_basis(2, 1)
    assert b.exponents == ((0, 0), (1, 0), (0, 1))
    assert len(monomial_basis(2, 2)) == 6
    assert len(monomial_basis(6, 3)) == 84
    # graded: degrees never decrease; constant first
    for d, k in ((3, 4), (5, 2)):
        degs = [sum(e) for e in monomial_basis(d, k).exponents]
        assert degs[0] == 0
        assert degs == sorted(degs)


def test_apply_generator_constant_is_zero():
    for mdl in (jacobi(), sphere_bm(3), ball_generic(2)):
        out = apply_generator(mdl, (0,) * mdl.d)
        assert np.abs(out).max() == 0.0


def test_apply_generator_sphere_linear():
    # drift only: grad^2 of a coordinate vanishes
    mdl = sphere_bm(3)
    basis = monomial_basis(3, 1)
    for i in range(3):
        e = tuple(int(j == i) for j in range(3))
        vec = apply_generator(mdl, e)
        expected = np.zeros(len(basis))
        expected[basis.index(e)] = -1.0
        assert np.allclose(vec, expected, atol=0)


def test_apply_generator_jacobi_square():
    # oracle by hand: G x^2 = sigma^2 (1 - x^2) + 2x(b + Bx)
    p = dict(zip(monomial_basis(1, 2).exponents, apply_generator(jacobi(), (2,))))
    assert p[(0,)] == pytest.approx(SIG2)
    assert p[(1,)] == pytest.approx(2 * BJ)
    assert p[(2,)] == pytest.approx(2 * BB - SIG2)


def test_build_Gk_degree_zero():
    for mdl in (jacobi(), sphere_bm(4)):
        gk = build_Gk(mdl, 0)
        assert gk.G.shape == (1, 1) and gk.G[0, 0] == 0.0


def test_build_Gk_sphere_bm_k1():
    gk = build_Gk(sphere_bm(3), 1)
    assert np.allclose(gk.G.toarray(), np.diag([0.0, -1.0, -1.0, -1.0]), atol=0)


def test_build_Gk_jacobi_k2_hand_matrix():
    gk = build_Gk(jacobi(), 2)
    expected = np.array([
        [0.0, BJ, SIG2],
        [0.0, BB, 2 * BJ],
        [0.0, 0.0, 2 * BB - SIG2],
    ])
    assert np.allclose(gk.G.toarray(), expected, atol=0)


def test_degree_filtration():
    for mdl in (jacobi(), sphere_bm(3), ball_generic(3)):
        gk = build_Gk(mdl, 3)
        degs = np.array([sum(e) for e in gk.basis.exponents])
        nz_rows, nz_cols = np.nonzero(gk.G)
        assert np.all(degs[nz_rows] <= degs[nz_cols])


def test_constant_column_zero_and_moment_of_one():
    for mdl in (jacobi(), sphere_bm(3)):
        gk = build_Gk(mdl, 2)
        assert np.abs(gk.G.toarray()[:, 0]).max() == 0.0
        x = np.zeros(mdl.d)
        if mdl.space == "sphere":
            x[0] = 1.0
        one = {(0,) * mdl.d: 1.0}
        for t in (0.0, 0.7, 3.0):
            assert moment(mdl, one, x, t) == pytest.approx(1.0, abs=1e-12)


def test_semigroup_property():
    for mdl in (jacobi(), sphere_bm(3)):
        G = build_Gk(mdl, 2).G.toarray()
        s, t = 0.4, 0.9
        err = np.linalg.norm(expm((s + t) * G) - expm(s * G) @ expm(t * G))
        assert err <= 1e-10


def test_moment_sphere_bm_coordinate_decay():
    mdl = sphere_bm(3)
    x0 = np.array([1.0, 0.0, 0.0])
    q = {(1, 0, 0): 1.0}
    for t in (0.0, 0.25, 1.0, 2.0):
        assert moment(mdl, q, x0, t) == pytest.approx(np.exp(-t), abs=1e-12)


def test_moment_sphere_norm_invariant():
    mdl = sphere_bm(3)
    q = {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0}
    for _ in range(5):
        x0 = rng.standard_normal(3)
        x0 /= np.linalg.norm(x0)
        for t in (0.3, 1.5):
            assert moment(mdl, q, x0, t, k=2) == pytest.approx(1.0, abs=1e-12)


def test_moment_argument_errors():
    mdl = sphere_bm(3)
    q = {(1, 0, 0): 1.0}
    with pytest.raises(ValueError):
        moment(mdl, q, np.array([1.0, 0, 0]), 1.0, k=0)       # degree above k
    with pytest.raises(ValueError):
        moment(mdl, q, np.array([2.0, 0, 0]), 1.0)            # off the sphere
    with pytest.raises(ValueError):
        moment(mdl, q, np.array([1.0, 0, 0]), -0.5)           # negative time
    with pytest.raises(ValueError):
        moment(jacobi(), {(1,): 1.0}, np.array([1.5]), 1.0)   # outside the ball
    with pytest.raises(ValueError):
        moment(mdl, q, np.array([np.nan, 0, 0]), 1.0)         # non-finite x
    with pytest.raises(ValueError):
        moment(mdl, q, np.array([1.0, 0, 0]), np.nan)         # non-finite time
    with pytest.raises(ValueError):
        moment(mdl, q, np.array([1.0, 0, 0]), np.inf)         # infinite time


def test_poly_json_roundtrip_and_degree():
    q = {(1, 0, 0): 1.0, (0, 2, 0): -0.5}
    assert poly_from_json(poly_to_json(q)) == q
    assert poly_degree(q) == 2
    assert poly_degree({}) == 0


def random_model(space, d):
    G = rng.standard_normal((skew_dim(d), skew_dim(d)))
    H, B = G @ G.T, rng.standard_normal((d, d))
    if space == "sphere":
        return SphereModel(H=H, B=B)
    A = rng.standard_normal((d, d))
    return BallModel(alpha=A @ A.T, H=H, b=rng.standard_normal(d), B=B)


def generator_at(mdl, e, x):
    """tr(a(x) grad^2 x^e)/2 + b(x) . grad x^e, differentiated by hand."""
    e = np.array(e)
    d = len(e)
    grad, hess = np.zeros(d), np.zeros((d, d))
    for i in range(d):
        if e[i]:
            f = e.copy()
            f[i] -= 1
            grad[i] = e[i] * np.prod(x ** f)
            for j in range(d):
                if f[j]:
                    g = f.copy()
                    g[j] -= 1
                    hess[i, j] = e[i] * f[j] * np.prod(x ** g)
    return 0.5 * np.sum(a_eval(mdl, x) * hess) + drift_eval(mdl, x) @ grad


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("space", ["sphere", "ball"])
def test_columns_are_the_generator_at_points(space, d):
    mdl = random_model(space, d)
    gk = build_Gk(mdl, 4)
    G = gk.G.toarray()
    for x in rng.standard_normal((10, d)) / np.sqrt(d):
        lhs = gk.basis.eval_at(x) @ G
        rhs = np.array([generator_at(mdl, e, x) for e in gk.basis.exponents])
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


def test_apply_generator_is_a_column_of_Gk():
    mdl = random_model("ball", 3)
    gk = build_Gk(mdl, 3)
    for col, e in enumerate(gk.basis.exponents):
        vec = apply_generator(mdl, e)
        assert np.array_equal(vec, gk.G.toarray()[:len(vec), col])


def test_Gk_is_sparse_without_explicit_zeros():
    for mdl in (jacobi(), sphere_bm(4), ball_generic(3), random_model("sphere", 4)):
        G = build_Gk(mdl, 4).G
        assert isinstance(G, csr_array)
        assert G.nnz == np.count_nonzero(G.toarray())


def test_moment_d6_k6_matches_dense_expm():
    mdl = random_model("sphere", 6)
    gk = build_Gk(mdl, 6)
    q = {(2, 2, 2, 0, 0, 0): 1.0, (1, 0, 0, 0, 0, 5): -0.5, (0, 1, 0, 1, 0, 0): 2.0}
    x = rng.standard_normal(6)
    x /= np.linalg.norm(x)
    t = 0.3
    dense = gk.basis.eval_at(x) @ expm(t * gk.G.toarray()) @ gk.basis.vector(q)
    assert moment(mdl, q, x, t) == pytest.approx(dense, rel=1e-12, abs=1e-12)


def test_malformed_polynomials_raise_value_error():
    mdl = sphere_bm(3)
    x = np.array([1.0, 0.0, 0.0])
    for bad in ((1, 0), (1, 0, 0, 0), (-1, 0, 0), (1.5, 0, 0)):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            moment(mdl, {bad: 1.0}, x, 1.0)
    with pytest.raises(ValueError):
        poly_from_json({"terms": [{"exp": [0.5, 1], "coef": 1.0}]})
    with pytest.raises(ValueError):
        apply_generator(mdl, (1, 0))
    for k in (2.5, -1, True):
        with pytest.raises(ValueError, match="^k must be a nonnegative integer"):
            moment(mdl, {(1, 0, 0): 1.0}, x, 1.0, k=k)
        with pytest.raises(ValueError, match="^k must be a nonnegative integer"):
            monomial_basis(2, k)
    for d in (1.5, 0):
        with pytest.raises(ValueError, match="^d must be a positive integer"):
            monomial_basis(d, 2)


def test_exponent_keys_that_overflow_raise():
    d = 40
    with pytest.raises(ValueError, match="overflows"):
        build_Gk(SphereModel(H=np.eye(skew_dim(d)), B=np.zeros((d, d))), 2)


@pytest.mark.parametrize("d", range(2, 6))
def test_generator_keeps_the_invariant_blocks_moment_uses(d):
    # moment exponentiates G only on these blocks: on the sphere each
    # homogeneous degree maps into itself, on the ball no degree goes up
    for k in range(5):
        for space in ("sphere", "ball"):
            gk = build_Gk(random_model(space, d), k)
            deg = np.array([sum(e) for e in gk.basis.exponents])
            rows, cols = gk.G.nonzero()
            if space == "sphere":
                assert np.array_equal(deg[rows], deg[cols]), (space, k)
            else:
                assert np.all(deg[rows] <= deg[cols]), (space, k)


def test_moment_does_not_depend_on_k():
    x3 = np.array([0.6, 0.0, 0.8])
    cases = [(random_model("sphere", 3), x3, {(1, 1, 0): 1.0, (0, 0, 2): -0.5}),
             (random_model("sphere", 4), np.array([0.5, 0.5, -0.5, 0.5]), {(0, 3, 0, 1): 2.0}),
             (random_model("ball", 3), 0.5 * x3, {(2, 0, 1): 1.0, (0, 1, 0): 0.3, (0, 0, 0): 1.0}),
             (jacobi(), np.array([0.3]), {(2,): 1.0})]
    for mdl, x, q in cases:
        deg = poly_degree(q)
        at_deg = moment(mdl, q, x, 0.7)
        for k in (deg, deg + 2):
            assert moment(mdl, q, x, 0.7, k=k) == pytest.approx(at_deg, rel=1e-14, abs=0)


def test_mixed_degree_sphere_moment_matches_dense_expm():
    # degrees 0, 2 and 4 are three diagonal blocks of G, each exponentiated alone
    for d in (3, 5):
        mdl = random_model("sphere", d)
        gk = build_Gk(mdl, 4)
        e = np.eye(d, dtype=int)
        q = {(0,) * d: 0.25, tuple(e[0] + e[1]): -1.5, tuple(2 * e[0] + 2 * e[d - 1]): 1.0,
             tuple(e[1] + 3 * e[2]): 0.5}
        x = rng.standard_normal(d)
        x /= np.linalg.norm(x)
        t = 0.4
        dense = gk.basis.eval_at(x) @ expm(t * gk.G.toarray()) @ gk.basis.vector(q)
        assert moment(mdl, q, x, t) == pytest.approx(dense, rel=1e-12, abs=1e-12)

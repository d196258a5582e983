import json
from contextlib import redirect_stdout
from io import StringIO

import numpy as np
import pytest

from quadricdiff.cli import main
from quadricdiff.cspace import (
    TangencyError,
    _kernel,
    biquadratic_eval,
    c_H_eval,
    c_from_biquadratic,
    c_space_basis,
    cmap_eval,
    cmap_from_h,
    h_action,
    h_from_c,
    h_from_json,
    h_to_json,
    k_matrix,
    trace_form,
)
from quadricdiff.skew import (_pair_signs, _upper_indices, pi_index, plucker_eval, skew_basis,
                              skew_dim, vec_to_skew)
from quadricdiff.sos import nonneg_check, sos_check, sos_decompose, verify_certificate

from kbasis import k_basis

rng = np.random.default_rng(77)

DIM_C = {2: 1, 3: 6, 4: 20, 5: 50, 6: 105}
DIM_K = {2: 0, 3: 0, 4: 1, 5: 5, 6: 15}


def random_sym(m):
    H = rng.standard_normal((m, m))
    return H + H.T


def test_c_H_identity_is_tangent_projection_scale():
    for _ in range(10):
        x = rng.standard_normal(3)
        expected = (x @ x) * np.eye(3) - np.outer(x, x)
        assert np.allclose(c_H_eval(np.eye(3), x), expected, atol=1e-13)


def test_c_H_zero():
    x = rng.standard_normal(4)
    assert np.array_equal(c_H_eval(np.zeros((6, 6)), x), np.zeros((4, 4)))


def test_c_H_annihilates_x_for_every_symmetric_H():
    for d in (2, 3, 4, 6):
        for _ in range(20):
            H = random_sym(skew_dim(d))
            x = rng.standard_normal(d)
            c = c_H_eval(H, x)
            assert np.allclose(c, c.T, atol=0)
            bound = 1e-12 * np.linalg.norm(H) * np.linalg.norm(x) ** 3 + 1e-300
            assert np.linalg.norm(c @ x) <= 10 * bound


def test_biquadratic_matches_quadratic_form_and_matrix_eval():
    for d in (2, 3, 4, 6):
        H = random_sym(skew_dim(d))
        for _ in range(20):
            x = rng.standard_normal(d)
            y = rng.standard_normal(d)
            v1 = biquadratic_eval(H, x, y)
            v2 = float(y @ c_H_eval(H, x) @ y)
            assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v1))
            # half the action pairing with A = x y^T - y x^T
            A = np.outer(x, y) - np.outer(y, x)
            v3 = 0.5 * float(np.sum(A * h_action(H, A)))
            assert abs(v1 - v3) <= 1e-10 * max(1.0, abs(v1))


def test_biquadratic_orthonormal_pair_identity():
    # oracle: |x y^T - y x^T|_F^2 / 2 = 1 for orthonormal x, y
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    assert biquadratic_eval(np.eye(3), x, y) == pytest.approx(1.0, abs=1e-14)


def test_biquadratic_vanishes_on_diagonal():
    for d in (2, 4, 6):
        H = random_sym(skew_dim(d))
        x = rng.standard_normal(d)
        assert abs(biquadratic_eval(H, x, x)) <= 1e-12 * np.linalg.norm(H) * (x @ x) ** 2


def test_h_action_identity_and_symmetry():
    A = vec_to_skew(rng.standard_normal(15), 6)
    assert np.allclose(h_action(np.eye(15), A), A, atol=0)
    H = random_sym(15)
    B = vec_to_skew(rng.standard_normal(15), 6)
    lhs = float(np.sum(A * h_action(H, B)))
    rhs = float(np.sum(h_action(H, A) * B))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_k_action_reads_opposite_pair():
    K = k_matrix((1, 2, 3, 4), 6)
    A = vec_to_skew(np.eye(15)[pi_index(3, 4, 6) - 1], 6)
    assert h_action(K, A)[0, 1] == 1.0


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_c_space_basis_count_and_rank(d):
    basis = c_space_basis(d)
    assert len(basis) == DIM_C[d] == d * d * (d * d - 1) // 12
    M = np.array([b.ravel() for b in basis])
    assert np.linalg.matrix_rank(M, tol=1e-10 * len(basis)) == DIM_C[d]


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_k_basis_count_rank_and_kernel(d):
    els = k_basis(d)
    assert len(els) == DIM_K[d]
    if els:
        M = np.array([el.matrix.ravel() for el in els])
        assert np.linalg.matrix_rank(M) == DIM_K[d]
    m = skew_dim(d)
    assert m * (m + 1) // 2 == DIM_C[d] + DIM_K[d]
    for el in els:
        assert np.abs(cmap_from_h(el.matrix, d)).max() == 0.0
        # six nonzero entries, each +-1, symmetric placement
        nz = el.matrix[el.matrix != 0]
        assert len(nz) == 6 and set(np.abs(nz)) == {1.0}


def test_k_basis_plucker_identity():
    for d in (4, 5, 6):
        for el in k_basis(d):
            for _ in range(10):
                A = vec_to_skew(rng.standard_normal(skew_dim(d)), d)
                lhs = 0.25 * float(np.sum(A * h_action(el.matrix, A)))
                rhs = plucker_eval(A, el.quad)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_k_biquadratic_vanishes():
    for el in k_basis(5):
        for _ in range(10):
            x = rng.standard_normal(5)
            y = rng.standard_normal(5)
            assert abs(biquadratic_eval(el.matrix, x, y)) <= 1e-12 * (
                np.linalg.norm(x) * np.linalg.norm(y)) ** 2


def test_h_from_c_identity_map():
    C = cmap_from_h(np.eye(3), 3)
    assert np.allclose(h_from_c(C), np.eye(3), atol=1e-10)


def test_h_from_c_zero():
    H = h_from_c(np.zeros((3, 3, 3, 3)))
    assert np.abs(H).max() == 0.0


def test_h_from_c_roundtrip_on_basis():
    # oracle: evaluate both tensors on a grid of points, plus exact coefficients
    pts = rng.standard_normal((8, 4))
    for C in c_space_basis(4):
        H = h_from_c(C)
        C2 = cmap_from_h(H, 4)
        assert np.abs(C2 - C).max() <= 1e-10
        for x in pts:
            assert np.allclose(cmap_eval(C, x), c_H_eval(H, x), atol=1e-9)


def test_h_from_c_minimal_norm_representative():
    # shifting H by a kernel element must not change the recovered representative
    H0 = random_sym(6)
    C = cmap_from_h(H0, 4)
    H1 = h_from_c(C)
    K = k_matrix((1, 2, 3, 4), 4)
    H2 = h_from_c(cmap_from_h(H0 + 2.5 * K, 4))
    assert np.allclose(H1, H2, atol=1e-9)
    assert abs(float(np.sum(H1 * K))) <= 1e-9 * np.linalg.norm(H1)


def test_h_from_c_rejects_non_tangential():
    bad = np.zeros((2, 2, 2, 2))
    bad[0, 0, 0, 0] = 1.0  # c_11(x) = x_1^2 pushes along x
    with pytest.raises(TangencyError) as exc:
        h_from_c(bad)
    assert exc.value.residual > 0.1
    # a NaN makes the residual test false, so it is refused before the fit
    bad = cmap_from_h(np.eye(3), 3)
    bad[0, 1, 1, 2] = np.nan
    with pytest.raises(ValueError, match="^C must be a finite"):
        h_from_c(bad)


def _h_from_c_lstsq(C):
    """Reference: minimum-norm least squares over an orthonormal basis of S^m."""
    d = C.shape[0]
    m = skew_dim(d)
    basis = []
    for p in range(m):
        for q in range(p, m):
            E = np.zeros((m, m))
            E[p, q] = E[q, p] = 1.0 if p == q else 1.0 / np.sqrt(2.0)
            basis.append(E)
    A = np.array([cmap_from_h(E, d).ravel() for E in basis]).T
    coeffs = np.linalg.lstsq(A, C.ravel(), rcond=None)[0]
    return sum(u * E for u, E in zip(coeffs, basis)), np.linalg.norm(A @ coeffs - C.ravel())


@pytest.mark.parametrize("d", [4, 5, 6, 7])
def test_h_from_c_matches_lstsq_reference(d):
    m = skew_dim(d)
    H0 = random_sym(m) + sum(rng.uniform(-2, 2) * el.matrix for el in k_basis(d))
    H_ref, _ = _h_from_c_lstsq(cmap_from_h(H0, d))
    assert np.abs(h_from_c(cmap_from_h(H0, d)) - H_ref).max() <= 1e-12
    bad = rng.standard_normal((d, d, d, d))
    _, resid_ref = _h_from_c_lstsq(bad)
    with pytest.raises(TangencyError) as exc:
        h_from_c(bad)
    assert exc.value.residual == pytest.approx(resid_ref, rel=1e-12)


def _bilinear_tensor(W1, W2):
    return np.einsum("ij,kl->ijkl", W1, W2)


def _pair_matrix(d, entries):
    # symmetric (2d, 2d) matrix for a bilinear form sum c * x_i y_j
    W = np.zeros((2 * d, 2 * d))
    for (i, j), c in entries:
        W[i - 1, d + j - 1] += c / 2.0
        W[d + j - 1, i - 1] += c / 2.0
    return W


def test_c_from_biquadratic_cross_square():
    # BQ = (x1 y2 - x2 y1)^2 -> c = [[x2^2, -x1 x2], [-x1 x2, x1^2]]
    W = _pair_matrix(2, [((1, 2), 1.0), ((2, 1), -1.0)])
    C = c_from_biquadratic(_bilinear_tensor(W, W))
    expected = np.zeros((2, 2, 2, 2))
    expected[0, 0] = [[0, 0], [0, 1.0]]
    expected[0, 1] = expected[1, 0] = [[0, -0.5], [-0.5, 0]]
    expected[1, 1] = [[1.0, 0], [0, 0]]
    assert np.allclose(C, expected, atol=1e-13)


def test_c_from_biquadratic_zero_and_errors():
    assert np.abs(c_from_biquadratic(np.zeros((4, 4, 4, 4)))).max() == 0.0
    quartic = np.zeros((4, 4, 4, 4))
    quartic[0, 0, 0, 0] = 1.0  # x1^4 is not biquadratic
    with pytest.raises(ValueError):
        c_from_biquadratic(quartic)
    with pytest.raises(ValueError):
        c_from_biquadratic(np.zeros((3, 3, 3, 3)))
    quartic[0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="^Q must be a finite"):
        c_from_biquadratic(quartic)


def test_c_from_biquadratic_reproduces_form():
    # oracle: second y-derivatives of the sampled form, via direct evaluation
    d = 3
    Q = rng.standard_normal((2 * d,) * 4)
    # project onto biquadratic pattern by symmetrizing and masking
    from itertools import permutations

    sym = np.zeros_like(Q)
    for perm in permutations(range(4)):
        sym += Q.transpose(perm)
    sym /= 24.0
    is_x = np.arange(2 * d) < d
    cnt = (is_x[:, None, None, None].astype(int) + is_x[None, :, None, None]
           + is_x[None, None, :, None] + is_x[None, None, None, :])
    sym[cnt != 2] = 0.0
    C = c_from_biquadratic(sym)
    for _ in range(20):
        x = rng.standard_normal(d)
        y = rng.standard_normal(d)
        z = np.concatenate([x, y])
        bq = float(np.einsum("ijkl,i,j,k,l->", sym, z, z, z, z))
        val = float(y @ cmap_eval(C, x) @ y)
        assert abs(val - bq) <= 1e-10 * max(1.0, abs(bq))


def test_json_roundtrips():
    H = random_sym(3)
    obj = json.loads(json.dumps(h_to_json(H, 3)))
    H2, d = h_from_json(obj)
    assert d == 3 and np.allclose(H2, H)


def test_counterexample_map_evaluations():
    from quadricdiff.sos import counterexample_d6

    ce = counterexample_d6()
    e = np.eye(6)
    # unit biquadratic value picked off the component table
    assert biquadratic_eval(ce.h, e[0], e[1]) == pytest.approx(1.0, abs=1e-12)
    c = c_H_eval(ce.h, e[0])
    assert np.allclose(np.diag(c), [0.0, 1.0, 1.0, 2.0, 2.0, 2.0], atol=1e-13)


def test_c_from_biquadratic_matches_counterexample_map():
    # independent route: assemble the quartic form from its bilinear pieces
    # and check the extracted map against the matrix-induced one
    from quadricdiff.sos import counterexample_d6

    d = 6

    def W(pairs):
        return _pair_matrix(d, pairs)

    def a(i, j):
        return W([((i, j), 1.0), ((j, i), -1.0)])

    T = np.zeros((2 * d,) * 4)
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            T += 2.0 * _bilinear_tensor(a(i, j), a(i, j))
    for combo, sign in ((((1, 2), (2, 6)), 1.0), (((4, 5), (4, 6)), -1.0)):
        s = a(*combo[0]) + sign * a(*combo[1])
        T -= _bilinear_tensor(s, s)
    s = a(1, 3) + a(2, 4) + a(3, 5)
    T -= _bilinear_tensor(s, s)
    for (i, j, k, l) in ((1, 2, 3, 4), (2, 3, 4, 5)):
        T -= _bilinear_tensor(a(i, j), a(k, l))
        T += _bilinear_tensor(a(i, k), a(j, l))
        T -= _bilinear_tensor(a(i, l), a(j, k))
    C = c_from_biquadratic(T)
    ce = counterexample_d6()
    assert np.abs(C - cmap_from_h(ce.h, d)).max() <= 1e-12


def test_near_overflow_h_takes_the_symmetric_part_sos_check_takes():
    # h12 + h21 overflows; the symmetric part 0.5 h12 + 0.5 h21 = 1.65e308 does not
    from quadricdiff.cspace import trace_form
    from quadricdiff.cspace import _symmetric_part

    H = np.zeros((3, 3))
    H[0, 1], H[1, 0] = 1.7e308, 1.6e308
    S = _symmetric_part(H)
    assert S[0, 1] == S[1, 0] == 0.5 * 1.7e308 + 0.5 * 1.6e308
    x = np.array([1e-3, 2e-3, -1e-3])
    for got, want in ((c_H_eval(H, x), c_H_eval(S, x)), (trace_form(H, 3), trace_form(S, 3)),
                      (h_from_json({"d": 3, "H": H.tolist()})[0], S)):
        assert np.all(np.isfinite(got)) and np.array_equal(got, want)


def test_finite_coefficients_do_not_overflow_cmap_from_h():
    # h + h overflows in the symmetrization; 0.5 h + 0.5 h is the exact entry
    C = cmap_from_h([[1.7e308]], 2)
    assert C[0, 0, 1, 1] == C[1, 1, 0, 0] == 1.7e308
    assert C[0, 1, 0, 1] == C[0, 1, 1, 0] == -0.5 * 1.7e308
    assert np.all(np.isfinite(C))


def test_c_H_eval_refuses_an_overflow_and_a_non_finite_x():
    # c_H(x) = 1.7e308 * (6.8e16)^2 is not a double
    with pytest.raises(ValueError, match="^c_H\\(x\\) is not finite: the entries of H and x"):
        c_H_eval([[1.7e308]], [0.0, 6.8e16])
    with pytest.raises(ValueError, match="^x must be finite"):
        c_H_eval(np.eye(3), [0.0, np.nan, 1.0])
    assert np.all(np.isfinite(c_H_eval([[1.7e308]], [0.0, 0.5])))


def _cmap_from_h_einsum(H, d):
    """The defining contraction sum_pq h_pq D_p x x^T D_q^T, symmetrized."""
    Ds = skew_basis(d)
    T = np.einsum("pq,pua,qvb->uvab", np.asarray(H, dtype=float), Ds, Ds)
    return 0.5 * (T + T.transpose(0, 1, 3, 2))


@pytest.mark.parametrize("d", range(10))
def test_cmap_from_h_gather_is_the_contraction_bit_for_bit(d):
    # Zeros too: a zero sign times a negative entry must not leave a -0.0.
    m = skew_dim(d)
    H = random_sym(m)
    huge = 1e300 * H / max(1.0, np.abs(H).max(initial=0.0))
    for X in (H, -np.abs(H), np.eye(m), np.zeros((m, m)), huge):
        assert cmap_from_h(X, d).tobytes() == _cmap_from_h_einsum(X, d).tobytes()


def _trace_form_einsum(H, d):
    """tr(D_p x x^T D_q^T) = x^T D_q^T D_p x summed against h_pq, symmetrized."""
    Ds = skew_basis(d)
    T = np.einsum("pq,qau,pav->uv", np.asarray(H, dtype=float), Ds, Ds)
    return 0.5 * (T + T.T)


@pytest.mark.parametrize("d", range(10))
def test_trace_form_is_the_contraction_bit_for_bit(d):
    m = skew_dim(d)
    H = random_sym(m)
    unit = H / max(1.0, np.abs(H).max(initial=0.0))
    for X in (H, -np.abs(H), np.eye(m), np.zeros((m, m)), 1e300 * unit, 1e307 * unit):
        assert trace_form(X, d).tobytes() == _trace_form_einsum(X, d).tobytes()


@pytest.mark.parametrize("d", range(10))
def test_per_dimension_tables_are_shared_and_read_only(d):
    tables = [*_upper_indices(d), *_pair_signs(d), skew_basis(d)]
    if d >= 4:
        assert _kernel(d) is _kernel(d)
        tables += [_kernel(d).upper, _kernel(d).lower]
    assert _upper_indices(d) is _upper_indices(d) and _pair_signs(d) is _pair_signs(d)
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0


def _cli_sos_check(H):
    buf = StringIO()
    with redirect_stdout(buf):
        main(["sos-check", "--H", json.dumps(np.asarray(H).tolist()), "--d", "3"])
    out = json.loads(buf.getvalue())
    if "error" in out:
        raise ValueError(out["error"])


# Every entry that takes a coefficient matrix: (the argument its error names,
# a call with that matrix at d = 3, whether d comes from another argument).
H_ENTRIES = {
    "c_H_eval": ("H", lambda H: c_H_eval(H, np.ones(3)), True),
    "biquadratic_eval": ("H", lambda H: biquadratic_eval(H, np.ones(3), np.eye(3)[0]), True),
    "h_action": ("H", lambda H: h_action(H, np.zeros((3, 3))), True),
    "cmap_from_h": ("H", lambda H: cmap_from_h(H, 3), True),
    "trace_form": ("H", lambda H: trace_form(H, 3), True),
    "h_from_json": ("H", lambda H: h_from_json({"d": 3, "H": np.asarray(H).tolist()}), True),
    "cli_sos_check": ("H", _cli_sos_check, True),
    "sos_check": ("H", sos_check, False),
    "sos_decompose": ("H_star", sos_decompose, False),
    "nonneg_check": ("H", lambda H: nonneg_check(H, restarts=1), False),
    "verify_certificate_H": ("H", lambda H: verify_certificate(H, np.eye(3)), False),
    "verify_certificate_B": ("B", lambda B: verify_certificate(np.eye(3), B), True),
}


@pytest.mark.parametrize("entry", sorted(H_ENTRIES))
def test_every_coefficient_matrix_entry_refuses_bad_input(entry):
    # NaN, infinite, misshapen, no m = C(d, 2), and, where d is known, the wrong d
    name, call, d_given = H_ENTRIES[entry]
    call(np.eye(3))
    bad = [np.diag([1.0, np.nan, 1.0]), np.full((3, 3), np.inf), np.ones(3), np.ones((3, 2)),
           np.ones((1, 3, 3)), np.eye(2)] + [np.eye(6)] * d_given
    for X in bad:
        with pytest.raises(ValueError, match=f"^{name} must be "):
            call(X)


def test_a_negative_dimension_is_refused():
    # skew_dim(-3) = 6, so a 6 x 6 H used to pass as an H "for d = -3"
    for call in (lambda: cmap_from_h(np.eye(6), -3), lambda: trace_form(np.eye(6), -3)):
        with pytest.raises(ValueError, match="^d must be nonnegative, got -3"):
            call()

"""Statements of the paper's facts that the tests check the package against.

Nothing in the package calls them: each states one fact of the paper, evaluates
a coefficient at a point, inverts an index, or writes a test input.

- :func:`rank2_factor`: a rank-two skew matrix is x ^ y = x y^T - y x^T.
- :func:`c_from_biquadratic`: y^T c(x) y equals the biquadratic form.
- :func:`a_eval` and :func:`drift_eval`: a(x) = (1 - |x|^2) alpha + c_H(x) and
  b(x) = b + B x on the ball; a = c_H and b(x) = B x on the sphere.
"""

from itertools import permutations

import numpy as np

from quadricdiff.cspace import c_H_eval
from quadricdiff.generator import _exponent, _images, monomial_basis
from quadricdiff.skew import _integer, _upper_indices, skew_basis, skew_dim


class RankError(ValueError):
    """Numerical rank of the input is not what the operation requires.

    Carries the singular values that led to the rejection in
    ``self.singular_values``.
    """

    def __init__(self, message, singular_values):
        super().__init__(message)
        self.singular_values = np.asarray(singular_values)


def pair_from_index(p, d):
    """Inverse of ``skew.pi_index``: the pair (i, j), i < j, with 1-based index p.

    ValueError unless d is a nonnegative integer and p an integer in 1..C(d, 2).
    """
    if not _integer(p):
        raise ValueError(f"p must be an integer, got {p!r:.80}")
    # A negative d has no basis index, like d = 0 and 1.
    m = 0 if _integer(d) and d < 0 else skew_dim(d)
    if not 1 <= p <= m:
        raise ValueError(f"basis index {p} out of range 1..{m} for d = {d}")
    rows, cols = _upper_indices(d)
    return int(rows[p - 1]) + 1, int(cols[p - 1]) + 1


def elementary_skew(p, d):
    """Elementary skew basis matrix with +1 above the diagonal at pair number p."""
    pair_from_index(p, d)  # the index checks
    return skew_basis(d)[p - 1].copy()


def rank2_factor(A):
    """Factor a numerically rank-two skew matrix as x y^T - y x^T.

    The paper's fact: a skew matrix has rank two exactly when it is x ^ y.
    Uses an orthonormal basis (u1, u2) of the range and gamma = u1^T A u2,
    returning (gamma*u1, u2).  Numerical rank counts singular values above
    1e-10 times the largest one.

    Raises
    ------
    RankError
        If the numerical rank is not exactly two; carries the singular values.
    """
    A = np.asarray(A, dtype=float)
    U, s, _ = np.linalg.svd(A)
    if s[0] == 0.0:
        raise RankError("matrix is zero, expected rank two", s)
    rank = int(np.sum(s > 1e-10 * s[0]))
    if rank != 2:
        raise RankError(f"numerical rank is {rank}, expected two", s)
    u1, u2 = U[:, 0], U[:, 1]
    gamma = u1 @ A @ u2
    return gamma * u1, u2


def cmap_eval(C, x):
    """Evaluate a coefficient tensor at a point: the matrix with entries x^T C[i,j] x."""
    C = np.asarray(C, dtype=float)
    x = np.asarray(x, dtype=float)
    return np.einsum("uvab,a,b->uv", C, x, x)


def c_from_biquadratic(Q):
    """Coefficient tensor of c from the quartic tensor of a biquadratic form.

    The paper's correspondence: the returned c satisfies y^T c(x) y = BQ(x, y)
    identically.  ``Q`` has shape (2d, 2d, 2d, 2d) and represents the quartic
    form ``BQ(z) = sum Q[i,j,k,l] z_i z_j z_k z_l`` in z = (x, y).  After full
    symmetrization the form must be biquadratic (every monomial of degree two
    in x and two in y).

    Raises ValueError if a non-biquadratic coefficient exceeds 1e-12 max(1, max |Q_sym|).
    """
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[0]
    if Q.shape != (n, n, n, n) or n % 2 != 0 or not np.all(np.isfinite(Q)):
        raise ValueError(f"Q must be a finite (2d, 2d, 2d, 2d) tensor, got shape {Q.shape}")
    d = n // 2
    sym = np.zeros_like(Q)
    for perm in permutations(range(4)):
        sym += Q.transpose(perm)
    sym /= 24.0

    is_x = np.arange(n) < d
    count_x = (
        is_x[:, None, None, None].astype(int)
        + is_x[None, :, None, None]
        + is_x[None, None, :, None]
        + is_x[None, None, None, :]
    )
    off = np.abs(sym)[count_x != 2].max() if n > 0 else 0.0
    scale = max(np.abs(sym).max(), 1.0)
    if off > 1e-12 * scale:
        raise ValueError(f"form is not biquadratic: off-pattern coefficient {off:.3e}")

    # y^T c(x) y = sum c_ab(x) y_a y_b with c_ab(x) = 6 * x^T sym[d+a, d+b] x.
    return np.ascontiguousarray(6.0 * sym[d:, d:, :d, :d])


def apply_generator(model, exponent):
    """Apply the generator to a monomial, exactly: one column of ``build_Gk``.

    Returns the coefficient vector of the image on the monomial basis of the
    same degree.  The image degree never exceeds the input degree because the
    quadratic part of a(x) is tangential and the drift is affine.
    """
    exponent = _exponent(exponent, model.d)
    basis = monomial_basis(model.d, sum(exponent))
    return _images(model, basis, [exponent]).toarray()[:, 0]


def _point(model, x):
    """x as d finite floats for a model of dimension d; ValueError naming x otherwise."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.d,):
        raise ValueError(f"x must have dimension {model.d}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    return x


def a_eval(model, x):
    """Diffusion matrix of a model: a(x) = (1 - |x|^2) alpha + c_H(x) on the ball, c_H(x)
    on the sphere; x must be d finite numbers."""
    x = _point(model, x)
    c = c_H_eval(model.H, x)
    if model.space == "ball":
        return (1.0 - float(x @ x)) * model.alpha + c
    return c


def drift_eval(model, x):
    """Drift vector of a ball (b + Bx) or sphere (Bx) model; x must be d finite numbers."""
    x = _point(model, x)
    if model.space == "ball":
        return model.b + model.B @ x
    return model.B @ x


def h_to_json(H, d):
    """JSON-ready dict {"d": d, "H": [[...]]} for a symmetric m x m matrix; the form
    that ``cspace.h_from_json`` reads."""
    return {"d": int(d), "H": np.asarray(H, dtype=float).tolist()}


def poly_to_json(q):
    """{"terms": [{"exp": [...], "coef": c}]} form of an exponent-dict polynomial; the
    form that ``generator.poly_from_json`` reads."""
    return {"terms": [{"exp": list(e), "coef": float(c)} for e, c in sorted(q.items())]}


def model_to_json(model):
    """A model in the {"space", "d", "alpha", "H", "b", "B"} schema of ``model_from_json``."""
    out = {"space": model.space, "d": int(model.d)}
    out.update(h_to_json(model.H, model.d))
    out["B"] = model.B.tolist()
    if model.space == "ball":
        out["alpha"] = model.alpha.tolist()
        out["b"] = model.b.tolist()
    return out

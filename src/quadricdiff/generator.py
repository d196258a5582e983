"""Monomial bases, generator matrices, and exact conditional moments.

A polynomial diffusion's generator ``G f = tr(a grad^2 f)/2 + b . grad f``
maps polynomials of degree at most k to themselves, so on a fixed monomial
basis it is a finite sparse matrix G_k, and conditional moments reduce to
``H(x)^T expm(t G_k) q``; ``moment`` applies the exponential's action to q
(``expm_multiply``) instead of forming ``expm(t G_k)``.  The graded basis
puts each invariant block of G on a contiguous range: polynomials of degree
at most deg q lead every G_k, and on the sphere, where the drift is linear
and a(x) a homogeneous quadratic, each homogeneous degree is a diagonal
block of its own, so ``moment`` exponentiates only the blocks that hold q.
G_k is built by
exact exponent arithmetic: every term of the image of a monomial sits at an
integer shift of its exponent, found by exact integer-key lookup, and
coefficients are only ever combined at identical exponents, never
nearest-matched.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .cspace import _float_array, cmap_from_h
from .skew import _check_number

__all__ = [
    "build_Gk",
    "moment",
]


def __getattr__(name):
    # scipy.linalg.expm, imported on access: bench/tracer.py wraps ``generator.expm``,
    # and nothing in the package calls it.
    if name == "expm":
        from scipy.linalg import expm
        return expm
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class MonomialBasis:
    """Graded-lexicographic monomial basis of polynomials of degree <= k in d variables."""

    d: int
    k: int
    exponents: tuple

    def __len__(self):
        return len(self.exponents)

    def index(self, exponent):
        return self._lookup[tuple(exponent)]

    @cached_property
    def _lookup(self):
        return {e: i for i, e in enumerate(self.exponents)}

    @cached_property
    def _array(self):
        return np.array(self.exponents, dtype=np.int64).reshape(len(self), self.d)

    def eval_at(self, x):
        """Vector of all basis monomials at the point x."""
        return np.prod(np.asarray(x, dtype=float) ** self._array, axis=1)

    def vector(self, poly):
        """Coefficient vector of an exponent-dict polynomial on this basis."""
        vec = np.zeros(len(self.exponents))
        for e, c in poly.items():
            vec[self.index(e)] = c
        return vec


@dataclass(frozen=True)
class GeneratorMatrix:
    """Matrix of the generator restricted to polynomials of degree <= k (sparse CSR)."""

    basis: MonomialBasis
    G: "scipy.sparse.csr_array"


def monomial_basis(d, k):
    """All exponent multi-indices with degree <= k, graded lexicographically.

    The constant monomial comes first; within each degree the variables are
    ordered x1 before x2 and so on.  The basis has C(d + k, k) elements.
    ValueError unless d is a positive integer and k a nonnegative one.
    """
    _check_number(d, "d", integer=True)
    _check_number(k, "k", integer=True, zero=True)
    exps = []
    for deg in range(k + 1):
        level = []
        for combo in combinations_with_replacement(range(d), deg):
            e = [0] * d
            for idx in combo:
                e[idx] += 1
            level.append(tuple(e))
        level.sort(key=lambda e: tuple(-ei for ei in e))
        exps.extend(level)
    basis = MonomialBasis(d, k, tuple(exps))
    assert len(basis) == comb(d + k, k)
    return basis


def poly_degree(poly):
    """Total degree of an exponent-dict polynomial (zero polynomial has degree 0)."""
    return max((sum(e) for e in poly), default=0)


def _exponent(e, d=None):
    """Exponent as a tuple of ints; ValueError unless it is d nonnegative integers."""
    try:
        out = tuple(int(v) for v in e)
        exact = all(v == w for v, w in zip(e, out))
    except (TypeError, ValueError):
        exact = False
    if not exact or min(out, default=0) < 0 or (d is not None and len(out) != d):
        size = "" if d is None else f"{d} "
        raise ValueError(f"exponent {e!r} is not {size}nonnegative integers")
    return out


def _start_point(x0, d, space, tol):
    """x0 as d finite floats in the state space: |x0| = 1 on the sphere, <= 1 on the ball.

    The norm may miss by ``tol``; anything else, a NaN or a (1, d) array
    included, raises ValueError.  Every entry that takes a start point checks
    it here.
    """
    x = _float_array(x0)
    if x is None or x.shape != (d,) or not np.all(np.isfinite(x)):
        raise ValueError(f"x0 must be {d} finite numbers, got {x0 if x is None else x.tolist()}")
    big = float(np.abs(x).max(initial=0.0))
    # Scaled where an entry is past 1 + tol, so that a huge x0 cannot overflow the norm.
    r = big * float(np.linalg.norm(x / big)) if big > 1.0 + tol else float(np.linalg.norm(x))
    if r > 1.0 + tol or (space == "sphere" and r < 1.0 - tol):
        raise ValueError(f"|x0| = {r} does not lie on the unit sphere" if space == "sphere"
                         else f"|x0| = {r} lies outside the closed unit ball")
    return x


def _images(model, basis, exps):
    """Generator images of the monomials x^e, e in exps, as columns on basis.

    Returns the len(basis) x len(exps) CSR matrix of exact image coefficients.
    Every term of G x^e sits at an integer shift of e:

    - ``e_i B_ij`` at ``-u_i + u_j``, and for a ball ``e_i b_i`` at ``-u_i``;
    - ``e_i (e_j - delta_ij) / 2`` times each coefficient of a_ij(x) at
      ``-u_i - u_j`` plus that monomial's exponent.

    Exponents are encoded as mixed-radix integer keys, which are linear in the
    exponent, so a shift is one integer addition and each target row is found
    by exact lookup; terms landing on the same exponent are then summed.
    """
    from scipy.sparse import coo_array

    d, k = basis.d, basis.k
    if (k + 1) ** d > np.iinfo(np.int64).max:
        raise ValueError(f"(k + 1)^d overflows the int64 exponent keys at d = {d}, k = {k}")
    radix = (k + 1) ** np.arange(d, dtype=np.int64)
    E = np.asarray(exps, dtype=np.int64).reshape(-1, d)

    # a_ij(x) on the monomials x_u x_v (u <= v), plus 1 for a ball.
    iu, iv = np.triu_indices(d)
    sec = cmap_from_h(model.H, d)[:, :, iu, iv] * np.where(iu == iv, 1.0, 2.0)
    sec_key = radix[iu] + radix[iv]
    if model.space == "ball":
        sec[:, :, iu == iv] -= model.alpha[:, :, None]
        sec = np.concatenate([sec, model.alpha[:, :, None]], axis=2)
        sec_key = np.append(sec_key, 0)

    # One table row per factor: e_i (rows 0..d-1) and e_i (e_j - delta_ij) / 2
    # (row d + i d + j); each row lists that factor's coefficients and shifts.
    n_sec = sec.shape[2]
    coef = np.zeros((d + d * d, max(d + 1, n_sec)))
    shift = np.zeros(coef.shape, dtype=np.int64)
    coef[:d, :d] = model.B
    shift[:d, :d] = radix[None, :] - radix[:, None]
    if model.space == "ball":
        coef[:d, d] = model.b
    shift[:d, d] = -radix
    coef[d:, :n_sec] = sec.reshape(d * d, n_sec)
    pair = radix[:, None] + radix[None, :]
    shift[d:, :n_sec] = (sec_key - pair[:, :, None]).reshape(d * d, n_sec)
    half_hess = 0.5 * E[:, :, None] * (E[:, None, :] - np.eye(d))
    factors = np.hstack([E, half_hess.reshape(len(E), d * d)])

    src, f = np.nonzero(factors)
    vals = factors[src, f][:, None] * coef[f]
    keep = vals != 0.0
    target = ((E @ radix)[src][:, None] + shift[f])[keep]
    keys = basis._array @ radix
    order = np.argsort(keys)
    rows = order[np.searchsorted(keys[order], target)]
    cols = np.broadcast_to(src[:, None], keep.shape)[keep]
    G = coo_array((vals[keep], (rows, cols)), shape=(len(basis), len(E))).tocsr()
    G.eliminate_zeros()
    return G


def build_Gk(model, k):
    """Sparse generator matrix on the degree <= k monomial basis; columns are exact images."""
    basis = monomial_basis(model.d, k)
    return GeneratorMatrix(basis, _images(model, basis, basis._array))


def _as_poly_dict(q, d):
    if isinstance(q, dict):
        return {_exponent(e, d): float(c) for e, c in q.items()}
    raise TypeError("polynomials are exponent-dicts; use poly_from_json for the JSON form")


def moment(model, q, x, t, k=None):
    """Conditional moment E[q(X_t) | X_0 = x] via the action of the matrix exponential.

    ``q`` is an exponent-dict polynomial.  G is built at degree deg q, and the
    exponential acts on the invariant block of degrees <= deg q alone, or on a
    sphere on the diagonal block of each homogeneous degree that q has terms
    in, so the value does not depend on ``k``: it is checked (passing a k
    below deg q is an error rather than a silent truncation) and then costs
    nothing.

    Raises ValueError for a malformed exponent in q, an x that is not d finite
    numbers within 1e-9 of the state space, a non-finite t or t < 0, a k that
    is not a nonnegative integer, deg q > k, or an action of the exponential
    that overflows or is not finite.
    """
    d = model.d
    q = _as_poly_dict(q, d)
    deg = poly_degree(q)
    k = deg if k is None else k
    _check_number(k, "k", integer=True, zero=True)
    if deg > k:
        raise ValueError(f"polynomial degree {deg} exceeds k = {k}")
    if not np.isfinite(t) or t < 0:
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    x = _start_point(x, d, model.space, 1e-9)
    gk = build_Gk(model, deg)
    from scipy.sparse.linalg import expm_multiply

    # Basis positions [lo, hi) of each invariant block that q has terms in:
    # degree j starts at C(d + j - 1, d), the number of monomials of lower degree.
    if model.space == "sphere":
        blocks = [(comb(d + j - 1, d), comb(d + j, d)) for j in sorted({sum(e) for e in q})]
    else:
        blocks = [(0, comb(d + deg, d))]
    h, vec = gk.basis.eval_at(x), gk.basis.vector(q)
    # The monomials h of x in the ball are finite, so a block's product is
    # finite unless its action overflowed or is not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            value = sum((float(h[lo:hi] @ expm_multiply(t * gk.G[lo:hi, lo:hi], vec[lo:hi]))
                         for lo, hi in blocks), 0.0)
        except OverflowError:
            value = np.inf
    if not np.isfinite(value):
        raise ValueError(f"exp(t G_k) q is not finite at t = {t}: the moment overflows")
    return value


def poly_from_json(obj):
    """Exponent-dict polynomial from {"terms": [{"exp": [...], "coef": c}, ...]}.

    Terms with the same exponent add up; ValueError if obj does not have that form.
    """
    out = {}
    try:
        for term in obj["terms"]:
            e = _exponent(term["exp"])
            out[e] = out.get(e, 0.0) + float(term["coef"])
    except (KeyError, TypeError):
        raise ValueError('q must be {"terms": [{"exp": [...], "coef": c}, ...]}, '
                         f"got {obj!r:.80}") from None
    return out

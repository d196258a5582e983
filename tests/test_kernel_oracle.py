"""The rotation kernels against 40-digit exponentials (mpmath).

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
  norm drifts by up to about 2**s u and has no such bound.
"""

import mpmath
import numpy as np
import pytest

from quadricdiff import simulate
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

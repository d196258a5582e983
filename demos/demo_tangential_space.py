"""Tour of the tangential coefficient space.

A symmetric m x m matrix H (m = C(d,2)) induces a matrix-valued quadratic
map c_H with c_H(x) x = 0, the diffusion coefficient of motion tangent to
the sphere.  This script walks the dimension count, the Plucker kernel, and
the biquadratic-form correspondence.
"""

from math import comb

import numpy as np

from quadricdiff import (
    biquadratic_eval,
    c_H_eval,
    c_space_basis,
    cmap_from_h,
    h_action,
    h_from_c,
    k_matrix,
    plucker_eval,
    skew_dim,
    vec_to_skew,
)

rng = np.random.default_rng(0)

# The space of tangential maps has dimension d^2 (d^2 - 1) / 12, strictly less
# than the C(m+1, 2) free parameters of H: the kernel has dimension C(d, 4).
print("d   m   dim C(span)   d^2(d^2-1)/12   dim K   C(d,4)")
for d in range(2, 7):
    m = skew_dim(d)
    basis = c_space_basis(d)
    rank = np.linalg.matrix_rank(np.array([b.ravel() for b in basis]))
    kdim = m * (m + 1) // 2 - rank
    print(f"{d}  {m:2d}   {rank:8d}   {d * d * (d * d - 1) // 12:10d}"
          f"   {kdim:5d}   {comb(d, 4):5d}")

# The identity H gives the tangent projector scaled by |x|^2.
d = 3
x = rng.standard_normal(d)
c = c_H_eval(np.eye(skew_dim(d)), x)
print("\n|c_Id(x) - (|x|^2 Id - x x^T)| =",
      np.abs(c - ((x @ x) * np.eye(d) - np.outer(x, x))).max())
print("|c_Id(x) x| =", np.linalg.norm(c @ x), " (tangential: always 0)")

# Biquadratic correspondence: y^T c_H(x) y is a quadratic form in the
# rank-two skew matrix x y^T - y x^T.
H = rng.standard_normal((3, 3))
H = H + H.T
y = rng.standard_normal(d)
lhs = biquadratic_eval(H, x, y)
print("\nbiquadratic value        =", lhs)
print("matrix evaluation        =", float(y @ c_H_eval(H, x) @ y))

# Kernel elements encode the Plucker relations: c_K vanishes identically,
# and the quadratic form of K/4 recovers the Plucker polynomial.
d = 6
quad = (1, 2, 3, 4)
K = k_matrix(quad, d)
print("\nkernel element for quad", quad)
print("|c_K| =", np.abs(cmap_from_h(K, d)).max())
A = vec_to_skew(rng.standard_normal(skew_dim(d)), d)
print("quarter pairing :", 0.25 * np.sum(A * h_action(K, A)))
print("plucker value   :", plucker_eval(A, quad))

# Round trip: a tangential coefficient tensor determines its minimal-norm H.
C = cmap_from_h(np.eye(3), 3)
print("\nrecovered H for the tangent projector:\n", h_from_c(C).round(12))

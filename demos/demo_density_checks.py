"""Lie-bracket closures and smooth transition densities.

A sphere diffusion driven by skew rotations has a smooth density exactly when
the drift rotation applied to the start point lies in the bracket closure of
the diffusion directions applied to the start point.  The classic obstruction
is a pair of commuting rotations acting on orthogonal planes.  A model's
diffusion directions come from the SOS representation of its H, and its drift
rotation is the skew part of B.
"""

import numpy as np

from quadricdiff import (
    BallModel,
    SkewDrive,
    SphereModel,
    bracket,
    density_check,
    g_ideal,
    skew_dim,
    skew_to_vec,
)

# Brownian motion on the sphere, H = I: brackets fill all of Skew(d), density everywhere.
for d in (3, 4, 6):
    g, h = g_ideal(SkewDrive.elementary(d))
    x0 = np.eye(d)[0]
    rep = density_check(SphereModel(H=np.eye(skew_dim(d)), B=-0.5 * (d - 1) * np.eye(d)), x0)
    print(f"d={d}: dim closure = {g.dim} (= C(d,2) = {skew_dim(d)}),"
          f" smooth density: {rep.has_smooth_density}")

# The commuting-blocks example in d = 4: drift rotates the (1,2) plane, the
# single diffusion direction rotates (3,4).  They commute, so the closure
# stays one-dimensional and the drift sweeps the process around a moving
# circle: no density for generic starts.  H = a a^T with a = vec(A1), and the
# sphere's drift identity puts B_sym = A1^2 / 2.
A0 = np.zeros((4, 4))
A0[0, 1], A0[1, 0] = 1.0, -1.0
A1 = np.zeros((4, 4))
A1[2, 3], A1[3, 2] = 1.0, -1.0
print("\ncommuting blocks, [A0, A1] max entry:", np.abs(bracket(A0, A1)).max())
g, h = g_ideal(SkewDrive(A0, A1[None]))
print("dim closure =", g.dim, " dim extension =", h.dim)
a = skew_to_vec(A1)
blocks = SphereModel(H=np.outer(a, a), B=A0 + 0.5 * A1 @ A1)

for x0 in (np.array([0.5, 0.5, 0.5, 0.5]), np.array([0.0, 0.0, 1.0, 0.0])):
    rep = density_check(blocks, x0)
    print(f"x0 = {x0}: smooth density = {rep.has_smooth_density}"
          f" (membership residual {rep.membership_residual:.2e})")

# Ball version: radial noise contributes border generators in dimension d+1.
print("\nball lift, d = 2:")
rep = density_check(BallModel(alpha=np.eye(2), H=[[0.0]], b=[0.0, 0.0], B=-np.eye(2)),
                    np.array([1.0, 0.0]))
print("alpha = Id : closure dim =", rep.dim_g, "of", skew_dim(3),
      "-> density:", rep.has_smooth_density)
rep = density_check(BallModel(alpha=np.zeros((2, 2)), H=[[1.0]], b=[0.0, 0.0], B=-np.eye(2)),
                    np.array([1.0, 0.0]))
print("alpha = 0  : closure dim =", rep.dim_g, "of", skew_dim(3),
      "-> density:", rep.has_smooth_density)

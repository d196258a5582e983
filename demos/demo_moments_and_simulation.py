"""Exact moments against Monte Carlo for Brownian motion on the sphere.

Polynomial diffusions have closed-form conditional moments: on a monomial
basis the generator is a finite matrix G_k and E[q(X_t) | X_0 = x] is
H(x)^T expm(t G_k) q.  The geometric exponential scheme simulates the same
law with every step exactly on the sphere, so the two sides must agree to
Monte Carlo accuracy.
"""

import numpy as np

from quadricdiff import (
    SkewDrive,
    SphereModel,
    build_Gk,
    mc_moment,
    moment,
    sphere_ensemble,
)

# Brownian motion on S^2: all elementary rotations as diffusion directions.
d = 3
model = SphereModel(H=np.eye(3), B=-np.eye(3))
drive = SkewDrive.elementary(d)
x0 = np.array([1.0, 0.0, 0.0])

gk = build_Gk(model, 1)
print("generator on degree-one monomials:\n", gk.G.toarray())

print("\nE[X_t1 | X_0 = e1] = exp(-t):")
for t in (0.25, 0.5, 1.0, 2.0):
    print(f"  t={t:4}: moment = {moment(model, {(1, 0, 0): 1.0}, x0, t, gk=gk):.12f}"
          f"   exp(-t) = {np.exp(-t):.12f}")

# One path: the scheme multiplies by orthogonal matrices, so the norm never
# drifts off the sphere.  Its states leave the simulator through a sink, in
# pieces of (paths, times, d).
pieces = []
path = sphere_ensemble(drive, x0, T=1.0, h=1e-3, seed=7, n_paths=1,
                       sink=lambda first_id, times, states: pieces.append(states[0]))
states = np.concatenate(pieces)
print("\none path of", len(states), "states, max | |X| - 1 | =", path.max_norm_dev)

# An ensemble reproduces the moment within Monte Carlo error.
ens = sphere_ensemble(drive, x0, T=1.0, h=1e-3, seed=42, n_paths=50_000)
est = mc_moment(ens.terminal, {(1, 0, 0): 1.0})
target = moment(model, {(1, 0, 0): 1.0}, x0, 1.0, gk=gk)
print(f"\nMonte Carlo ({est.n} paths): {est.estimate:.5f} +- {est.stderr:.5f}")
print(f"exact moment               : {target:.5f}")
print(f"deviation                  : {abs(est.estimate - target) / est.stderr:.2f}"
      " standard errors")

# |X|^2 is invariant in law and in the scheme.
q_norm = {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0}
print("\nE[|X_1|^2] exact      :", moment(model, q_norm, x0, 1.0, k=2))
print("E[|X_1|^2] Monte Carlo:", mc_moment(ens.terminal, q_norm).estimate)

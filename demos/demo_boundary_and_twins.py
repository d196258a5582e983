"""Boundary attainment and the twin-path experiment on the ball.

The mean-reverting scalar model dX = -kappa X dt + nu sqrt(1 - |X|^2) dW,
``BallModel.scalar(kappa, nu, d)``, stays strictly inside the ball iff
kappa / nu^2 >= 1; pathwise uniqueness is known for kappa / nu^2 above
sqrt(2) - 1.  Both thresholds are exercised numerically.
"""

import numpy as np

from quadricdiff import (
    BallModel,
    SkewDrive,
    ensemble,
    twin_path_experiment,
    validate,
)

print("terminal boundary proximity, |X_T| > 1 - 1e-3, T = 5, 10^4 paths:")
for kappa, nu in ((2.0, 1.0), (1.0, 1.0), (0.2, 1.0)):
    model = BallModel.scalar(kappa, nu, 1)
    report = validate(model)
    assert report.admissible
    att = report.boundary
    ens = ensemble(model, np.array([0.0]), T=5.0, h=5e-3, seed=11, n_paths=10_000)
    frac = np.mean(np.abs(ens.terminal[:, 0]) > 1 - 1e-3)
    print(f"  kappa/nu^2 = {kappa / nu ** 2:3}: {att.status:18s}"
          f" margin={att.margin:+.3f}  fraction={frac:.4f}")

# Twin paths: two solutions driven by the *same* noise, started a distance
# eps apart on the boundary.  With eps = 0 the arithmetic is identical; tiny
# eps stays tiny when the uniqueness condition holds.  The twins run the
# scalar model with a rotation drive, here none.
drive = SkewDrive.zero(1)
print("\ntwin paths from the boundary, kappa/nu^2 = 1.0 > sqrt(2)-1 = 0.414:")
for eps in (0.0, 1e-10, 1e-6):
    rep = twin_path_experiment(1.0, 1.0, drive, np.array([1.0]), T=1.0, h=1e-4,
                               n_seeds=4, eps=eps)
    print(f"  eps = {eps:7.0e}: max divergence per seed = "
          + np.array2string(rep.max_divergence, formatter={'float': '{:9.2e}'.format}))
print("uniqueness condition satisfied:",
      twin_path_experiment(1.0, 1.0, drive, np.array([1.0]), T=0.01, h=1e-3,
                           n_seeds=1).uniqueness_condition)

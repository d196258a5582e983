"""Sum-of-squares certificates, both ways.

Whether a tangential coefficient map can be driven by finitely many skew
rotations is a semidefinite feasibility question: does some kernel shift of
H become positive semidefinite?  Below dimension five the answer is always
yes for nonnegative forms; in dimension six there is an explicit nonnegative
biquadratic form that is not a sum of squares, and the solver returns a
checkable separating certificate for it.
"""

import numpy as np

from quadricdiff import (
    cmap_from_h,
    counterexample_d6,
    k_matrix,
    nonneg_check,
    reconstruct_cmap,
    sos_check,
    verify_certificate,
)

rng = np.random.default_rng(1)

# Feasible side: a PSD matrix plus a kernel shift looks indefinite, but the
# solver recovers a PSD representative and factors it into skew rotations.
d = 4
K = k_matrix((1, 2, 3, 4), d)
G = rng.standard_normal((6, 6))
H = G @ G.T + 2.0 * np.linalg.norm(G) * K
print("min eigenvalue of H as given :", np.linalg.eigvalsh(H)[0])
verdict = sos_check(H)
print("verdict                      :", verdict.status)
print("min eigenvalue of witness    :", np.linalg.eigvalsh(verdict.h_star)[0])
print("number of skew factors       :", len(verdict.factors))
resid = np.abs(cmap_from_h(H, d) - reconstruct_cmap(verdict.factors, d)).max()
print("reconstruction residual      :", resid)

# Infeasible side: the dimension-six counterexample.  Its biquadratic form is
# nonnegative (the numerical screen finds nothing below zero) yet no kernel
# shift is PSD, certified by B with <H, B> < 0, B PSD, B orthogonal to the
# kernel.
print("\n--- dimension six counterexample ---")
ce = counterexample_d6()
print("eigen-residuals      :", max(ce.report["eig_residuals"].values()))
print("charpoly max diff    :", ce.report["charpoly_max_diff"])
print("<H, B>               :", ce.report["inner_hb"])
print("max |<K, B>|         :", ce.report["k_orth_max"])

verdict = sos_check(ce.h)
print("solver verdict       :", verdict.status)
ok, margins = verify_certificate(ce.h, verdict.certificate)
print("certificate verifies :", ok, margins)

screen = nonneg_check(ce.h)
print("numerical screen     :", screen.status, " min found:", screen.min_value)

print("\ncomponent functions of the counterexample map:")
for name in ("c_11", "c_12", "c_16", "c_56", "c_66"):
    print(f"  {name}(x) = {ce.report['components'][name]}")

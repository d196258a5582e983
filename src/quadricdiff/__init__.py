"""Polynomial diffusions on compact quadric state spaces.

Numerical tools for diffusions on the unit ball and unit sphere whose
coefficients are polynomial: the algebra of tangential diffusion
coefficients, sum-of-squares feasibility with checkable witnesses, exact
conditional moments through generator matrix exponentials,
structure-preserving path simulation, and Lie-algebraic smooth-density
criteria.
"""

from .skew import (
    plucker_eval,
    skew_dim,
    skew_to_vec,
    vec_to_skew,
)
from .cspace import (
    biquadratic_eval,
    c_H_eval,
    c_space_basis,
    cmap_from_h,
    h_action,
    h_from_c,
    h_from_json,
    k_matrix,
    trace_form,
)
from .sos import (
    counterexample_d6,
    nonneg_check,
    reconstruct_cmap,
    sos_check,
    verify_certificate,
)
from .model import (
    BallModel,
    SphereModel,
    ensemble,
    sphere_max_quadratic,
    twin_path_experiment,
    validate,
)
from .generator import (
    build_Gk,
    moment,
)
from .simulate import (
    SkewDrive,
    ball_ensemble,
    expm_skew,
    mc_moment,
    path_normals,
    sphere_ensemble,
)
from .liealg import (
    bracket,
    density_check,
    g_ideal,
    lift_drive,
)

__version__ = "0.1.0"

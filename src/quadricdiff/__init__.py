"""Polynomial diffusions on compact quadric state spaces.

Numerical tools for diffusions on the unit ball and unit sphere whose
coefficients are polynomial: the algebra of tangential diffusion
coefficients, sum-of-squares feasibility with checkable witnesses, exact
conditional moments through generator matrix exponentials,
structure-preserving path simulation, and Lie-algebraic smooth-density
criteria.
"""

from .skew import (
    elementary_skew,
    pair_from_index,
    pi_index,
    plucker_eval,
    skew_basis,
    skew_dim,
    skew_to_vec,
    vec_to_skew,
)
from .cspace import (
    TangencyError,
    biquadratic_eval,
    c_H_eval,
    c_space_basis,
    cmap_from_h,
    cmap_from_pair,
    h_action,
    h_from_c,
    h_from_json,
    h_to_json,
    k_matrix,
    trace_form,
)
from .sos import (
    counterexample_d6,
    nonneg_check,
    reconstruct_cmap,
    sos_check,
    sos_decompose,
    verify_certificate,
)
from .model import (
    BallModel,
    SphereModel,
    boundary_attainment,
    model_from_json,
    sphere_max_quadratic,
    validate_ball,
    validate_sphere,
)
from .generator import (
    build_Gk,
    moment,
    monomial_basis,
    poly_degree,
    poly_from_json,
    poly_to_json,
)
from .simulate import (
    SkewDrive,
    ball_ensemble,
    eval_poly,
    expm_skew,
    mc_moment,
    path_normals,
    scalar_ball_ensemble,
    sphere_ensemble,
    twin_path_experiment,
)
from .liealg import (
    bracket,
    density_check_ball,
    density_check_sphere,
    g_ideal,
    lift_drive,
)

__version__ = "0.1.0"

"""Polyconvex-regularized image registration on regular grids.

The package evaluates and differentiates integral energies whose density is
convex in the minors of the deformation gradient, builds subgradient-style
certificates and the generalized Bregman distances they induce, solves the
regularized registration problem, and measures convergence rates against
the noise level.
"""

from .minors import (
    MinorsLayout,
    all_minors,
    apply_minors_gradient,
    minor_block,
    minors_gradient,
    pull_back,
)
from .integrands import (
    CoercivityReport,
    ConvexityReport,
    Integrand,
    check_coercivity,
    check_convexity,
    detsq_energy,
    pq_energy,
    rotation_energy,
)
from .fields import (
    CellMask,
    Grid,
    InfiniteEnergyError,
    MatrixField,
    UnboundedGradientError,
    cell_center_values,
    disk_mask,
    energy,
    energy_with_gradient,
    field_from_function,
    full_mask,
    identity_field,
    pairing,
    random_smooth_field,
)
from .registration import (
    DomainViolationError,
    ForwardModel,
    NoisySample,
    ScalarImage,
    add_noise,
    admissibility_gap,
    blob_image,
    data_term,
    lq_norm,
    random_blobs,
    rotation_field,
    warp,
)
from .bregman import (
    PolySubgradient,
    SourceConditionParams,
    SubgradientReport,
    bregman_poly,
    poly_subgradient,
    source_condition_residual,
    verify_subgradient,
    zero_subgradient,
)
from .solver import MinimizeResult, TikhonovProblem, minimize
from .rates import (
    RateExperiment,
    RateReport,
    RateRow,
    SlopeFit,
    choose_alpha,
    fit_slope,
    geometric_levels,
    run_rates,
)

__version__ = "0.1.0"

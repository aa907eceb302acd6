"""The public API of ``polyreg``, pinned by name, so that any name cut or added
shows up in review.  It should hold only what the paper or the CLI needs."""

import types

import polyreg

PUBLIC = [
    "CellMask", "CoercivityReport", "ConvexityReport", "DomainViolationError",
    "ForwardModel", "Grid", "InfiniteEnergyError", "Integrand", "MatrixField",
    "MinimizeResult", "MinorsLayout", "NoisySample", "PolySubgradient", "RateExperiment",
    "RateReport", "RateRow", "ScalarImage", "SlopeFit", "SourceConditionParams",
    "SubgradientReport", "TikhonovProblem", "UnboundedGradientError",
    "add_noise", "admissibility_gap", "all_minors", "apply_minors_gradient", "blob_image",
    "bregman_poly", "check_coercivity", "check_convexity", "choose_alpha", "data_term",
    "detsq_energy", "disk_mask", "energy", "energy_with_gradient", "field_from_function",
    "fit_slope", "full_mask", "geometric_levels", "identity_field", "lq_norm", "minimize",
    "minor_block", "minors_gradient", "pairing", "poly_subgradient", "pq_energy",
    "pull_back", "random_blobs", "random_smooth_field", "rotation_energy",
    "rotation_field", "run_rates", "source_condition_residual", "verify_subgradient",
    "warp", "zero_subgradient",
]


def test_public_names_are_pinned():
    # submodules are left out: which of them are attributes of the package
    # depends on what the session has imported
    names = sorted(name for name, value in vars(polyreg).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC

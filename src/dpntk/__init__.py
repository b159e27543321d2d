"""Differentially private quadratic-NTK kernel regression.

Builds the quadratic-activation neural tangent kernel in Monte-Carlo and
closed form, privatizes the PSD kernel with the Gaussian sampling mechanism
and the features with truncated Laplace noise, runs the end-to-end private
predictor, and ships the budget calculators plus brute-force sensitivity
oracles that keep every bound honest at desk scale.
"""

from .rng import RngStream
from .linalg import (
    SymMatrix,
    NotPSDError,
    NotPositiveDefiniteError,
    eigen_extremes,
    spd_solve,
)
from .kernel import (
    Dataset,
    WeightMatrix,
    KernelMatrix,
    sample_weights,
    discrete_kernel,
    continuous_kernel,
    kernel_vector,
    normalize_rows,
)
from .privacy import (
    DPParams,
    TruncLapParams,
    ConditionReport,
    BudgetInfeasibleError,
    trunc_lap_width,
    trunc_lap_samples,
    trunc_lap_cdf,
    privatize_dataset,
    gaussian_sampling_mechanism,
    delta_budget,
    rho_bound,
    continuous_sensitivity_psi,
    max_k_raw,
    max_k,
    compose,
    check_dp_conditions,
)
from .sensitivity import (
    BoundCheck,
    moved_rows,
    entry_lipschitz_check,
    cts_sensitivity_check,
    psd_sandwich_check,
    dis_cts_gap,
    dis_sensitivity_check,
)
from .regression import (
    NTKModel,
    PrivateNTKModel,
    fit,
    predict,
    fit_private,
    predict_private,
    decode,
    inverse_gap_bound,
    kxX_gap_bound,
    regression_utility_bound,
)
from .data import (
    CsvParseError,
    generate_synthetic,
    load_features_csv,
    save_features_csv,
    train_test_split,
)
from .persistence import ModelFormatError, save_model, load_model
from .harness import (
    ExperimentConfig,
    RowResult,
    ResultsTable,
    run_tradeoff,
    verify_bounds,
    write_bound_report,
)

__version__ = "0.1.0"

"""Kernel ridge regression on the quadratic NTK, plain and private.

The plain predictor solves (K + lambda I) alpha = Y once. The private variant
releases the kernel through the Gaussian sampling mechanism and the features
through truncated Laplace noise before solving, so everything a query touches
is already private and predictions are post-processing.

Scores have a dual and a primal form, f_c(x) = (1/n) K(x, X)^T alpha_c
= (R x)^T V_c x with V_c = (1/(n m)) sum_j alpha_jc (R x_j) x_j^T and R the
QR factor of the weights (``WeightMatrix.factor``, r = min(m, d) rows).
``predict`` uses the primal form, O(r d c) per query whatever n is, on a
(d,) query or a (q, d) batch, each batch row bit-identical to the query
scored alone; ``kernel.kernel_vector`` is the dual reference. ``decode``
turns scores into labels. The 1/n factor is applied to both model types so
their outputs are directly comparable and the utility bound's final
normalization holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernel import Dataset, KernelMatrix, WeightMatrix, _finite_per_query, _query_rows, discrete_kernel
from .linalg import SymMatrix, spd_solve
from .privacy import (
    BudgetInfeasibleError,
    ConditionReport,
    DPParams,
    check_dp_conditions,
    compose,
    gaussian_sampling_mechanism,
    privatize_dataset,
)
from .rng import RngStream

__all__ = [
    "NTKModel",
    "PrivateNTKModel",
    "fit",
    "predict",
    "fit_private",
    "predict_private",
    "decode",
    "inverse_gap_bound",
    "kxX_gap_bound",
    "regression_utility_bound",
]


@dataclass(frozen=True)
class NTKModel:
    """Solved ridge system over the Monte-Carlo kernel."""

    data_ref: Dataset
    weights: WeightMatrix
    lam: float
    alpha: np.ndarray


@dataclass(frozen=True)
class PrivateNTKModel:
    """Private regression state: everything needed to answer queries.

    Only the privatized features are retained; the raw training features are
    deliberately absent so the post-processing structure of predictions is
    auditable from the object itself. ``private_kernel`` is the released
    kernel the coefficients were solved against, as ``fit_private`` drew it;
    it is not saved, so a loaded model holds None.
    """

    private_features: Dataset
    weights: WeightMatrix
    lam: float
    private_alpha: np.ndarray
    budget: DPParams
    condition_report: ConditionReport
    private_kernel: SymMatrix | None = field(default=None, repr=False)


def fit(
    data: Dataset,
    w: WeightMatrix,
    lam: float,
    *,
    kernel: KernelMatrix | None = None,
) -> NTKModel:
    """Solve (K + lambda I) alpha = Y with K the discrete kernel.

    A precomputed kernel for the same (data, w) may be passed to avoid
    rebuilding it.
    """
    if not (lam > 0):
        raise ValueError("lambda must be positive")
    k = kernel if kernel is not None else discrete_kernel(data, w)
    alpha = spd_solve(_ridge_shift(k.matrix.array, lam), data.labels)
    return NTKModel(data_ref=data, weights=w, lam=lam, alpha=alpha)


def fit_private(
    data: Dataset,
    w: WeightMatrix,
    lam: float,
    k: int,
    dp_alpha: DPParams,
    dp_x: DPParams,
    beta: float,
    rng: RngStream,
    enforce: bool = True,
    *,
    kernel: KernelMatrix | None = None,
    gamma: float = 0.01,
    c_rho: float = 1.0,
) -> PrivateNTKModel:
    """Fit the private predictor.

    Steps: privatize the kernel with k covariance samples, privatize the
    features with per-entry truncated Laplace noise, solve against the
    private kernel, and compose the two stage budgets. The model holds the
    private kernel it was solved against. The feasibility
    report is computed first; with ``enforce`` the mechanisms never run on
    an infeasible configuration (k < 1 included). This is the one place
    that decides feasibility: the sweep and the CLI gate through it.

    Raises:
        BudgetInfeasibleError: if ``enforce`` and the conditions fail.
    """
    if not (lam > 0):
        raise ValueError("lambda must be positive")
    kern = kernel if kernel is not None else discrete_kernel(data, w)
    report = check_dp_conditions(
        dp_alpha, k, data.n, w.sigma, data.bound_B, beta, kern.eta_min,
        gamma=gamma, c_rho=c_rho,
    )
    if enforce and not report.feasible:
        raise BudgetInfeasibleError(report)
    private_kernel = gaussian_sampling_mechanism(kern.matrix, k, rng)
    private_data = privatize_dataset(data, beta, dp_x, rng)
    private_alpha = spd_solve(_ridge_shift(private_kernel.array, lam), data.labels)
    return PrivateNTKModel(
        private_features=private_data,
        weights=w,
        lam=lam,
        private_alpha=private_alpha,
        budget=compose([dp_x, dp_alpha]),
        condition_report=report,
        private_kernel=private_kernel,
    )


def _ridge_shift(a: np.ndarray, lam: float) -> SymMatrix:
    """a + lambda I, bit-identical to ``a + lam * np.eye(n)`` without the
    dense identity: a copy plus lambda on the diagonal. The copy adds 0.0,
    as the identity's off-diagonal zeros do, so a -0.0 entry becomes +0.0."""
    shifted = a + 0.0
    shifted[np.diag_indices_from(shifted)] += lam
    return SymMatrix(shifted)


def _scores(x: np.ndarray, data: Dataset, w: WeightMatrix, alpha: np.ndarray) -> np.ndarray:
    # V is model-side, so it may use GEMMs. Each query meets R and V only in
    # np.einsum(..., optimize=False) contractions (numpy's C loop, no BLAS),
    # whose per-entry order depends only on the contracted length; a GEMM
    # over the batch would round with the batch size.
    factor = w.factor
    u = data.features @ factor.T
    v = np.stack([(u.T * a) @ data.features for a in alpha.T]) / (data.n * w.m)
    with np.errstate(over="ignore", invalid="ignore"):
        queries = _query_rows(x, data)
        vx = np.einsum("crd,qd->qcr", v, queries, optimize=False)
        rx = np.einsum("rd,qd->qr", factor, queries, optimize=False)
        out = np.einsum("qcr,qr->qc", vx, rx, optimize=False)
    return _finite_per_query(out, "scores", np.ndim(x) == 2)


def predict(model: NTKModel | PrivateNTKModel, x: np.ndarray) -> np.ndarray:
    """f(x) = (1/n) K(x, X)^T alpha for either model type (a private one over
    its privatized features): (d,) -> (c,) scores, (q, d) -> (q, c). A query
    whose scores overflow raises ValueError naming its row."""
    if isinstance(model, PrivateNTKModel):
        return predict_private(model, x)
    return _scores(x, model.data_ref, model.weights, model.alpha)


def predict_private(model: PrivateNTKModel, x: np.ndarray) -> np.ndarray:
    """f(x) = (1/n) K(x, X_tilde)^T alpha_tilde over the privatized features;
    shapes as in ``predict``."""
    return _scores(x, model.private_features, model.weights, model.private_alpha)


def decode(scores: np.ndarray) -> np.ndarray:
    """Class labels from (c,) or (q, c) scores: the argmax over >= 2 columns
    (ties to the lowest index), else +1 for a score >= 0 and -1 below."""
    if scores.shape[-1] >= 2:
        return np.argmax(scores, axis=-1)
    return np.where(scores[..., 0] >= 0, 1, -1)


def inverse_gap_bound(rho: float, eta_min: float, eta_max: float, lam: float) -> float:
    """Spectral bound rho * eta_max / (eta_min + lambda)^2 on the distance
    between the plain and private shifted-kernel inverses (unit constant)."""
    if not (eta_min + lam > 0):
        raise ValueError("eta_min + lambda must be positive")
    return rho * eta_max / (eta_min + lam) ** 2


def kxX_gap_bound(n: int, dim_d: int, sigma: float, bound_B: float, b_l: float) -> float:
    """L2 bound 2 sqrt(n) sigma^2 B^3 sqrt(d) B_L on the kernel-function
    change caused by feature privatization."""
    return 2.0 * math.sqrt(n) * sigma * sigma * bound_B**3 * math.sqrt(dim_d) * b_l


def regression_utility_bound(rho: float, eta_min: float, eta_max: float, lam: float,
                             dim_d: int, sigma: float, bound_B: float, b_l: float) -> float:
    """Prediction-gap bound, the sum of the feature-noise and kernel-noise
    terms (unit constants); the latter is ``inverse_gap_bound`` times the
    kernel-function magnitude cap omega = 6 d sigma^2 B^4:

        B^3 sqrt(d) B_L / (eta_min + lambda)
        + omega rho eta_max / (eta_min + lambda)^2
    """
    omega = 6.0 * dim_d * sigma * sigma * bound_B**4
    term_kernel = omega * inverse_gap_bound(rho, eta_min, eta_max, lam)
    term_features = bound_B**3 * math.sqrt(dim_d) * b_l / (eta_min + lam)
    return term_features + term_kernel

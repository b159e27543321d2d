"""Kernel ridge regression on the quadratic NTK, plain and private.

The plain predictor solves (K + lambda I) alpha = Y once. The private variant
releases the kernel through the Gaussian sampling mechanism and the features
through truncated Laplace noise before solving, so everything a query touches
is already private and predictions are post-processing.

Scores have a dual and a primal form, f_c(x) = (1/n) K(x, X)^T alpha_c
= (R x)^T V_c x with V_c = (1/(n m)) sum_j alpha_jc (R x_j) x_j^T and R the
QR factor of the weights (r = min(m, d) rows). ``predict`` uses the primal
form, O(r d c) per query whatever n is, on a (d,) query or a (q, d) batch,
each batch row bit-identical to the query scored alone;
``kernel.kernel_vector`` is the dual reference. ``decode`` turns scores into
labels. The 1/n factor is applied to both model types so their outputs are
directly comparable and the utility bound's final normalization holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import Dataset, KernelMatrix, WeightMatrix, _query_rows, discrete_kernel
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
    "UtilityInputs",
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
    auditable from the object itself.
    """

    private_features: Dataset
    weights: WeightMatrix
    lam: float
    private_alpha: np.ndarray
    budget: DPParams
    condition_report: ConditionReport


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
    shifted = SymMatrix(k.matrix.array + lam * np.eye(data.n))
    alpha = spd_solve(shifted, data.labels)
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
    private kernel, and compose the two stage budgets. The feasibility
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
    shifted = SymMatrix(private_kernel.array + lam * np.eye(data.n))
    private_alpha = spd_solve(shifted, data.labels)
    return PrivateNTKModel(
        private_features=private_data,
        weights=w,
        lam=lam,
        private_alpha=private_alpha,
        budget=compose([dp_x, dp_alpha]),
        condition_report=report,
    )


# Query rows per scoring block: (rows, r, d) products of about 2^16 entries.
_BLOCK_ENTRIES = 1 << 16


def _scores(x: np.ndarray, data: Dataset, w: WeightMatrix, alpha: np.ndarray) -> np.ndarray:
    # V is model-side, so it may use GEMMs. Each query meets R and V only in
    # fixed-shape products reduced by np.sum(axis=-1); a GEMM over the batch
    # would round with the batch size.
    queries = _query_rows(x, data)
    factor = np.linalg.qr(w.weights, mode="r")
    u = data.features @ factor.T
    v = np.stack([(u.T * a) @ data.features for a in alpha.T]) / (data.n * w.m)
    out = np.empty((len(queries), len(v)))
    step = max(1, _BLOCK_ENTRIES // factor.size)
    for s in range(0, len(queries), step):
        xb = queries[s:s + step, None, :]
        ub = (factor * xb).sum(axis=-1)
        for c, vc in enumerate(v):
            out[s:s + step, c] = ((vc * xb).sum(axis=-1) * ub).sum(axis=-1)
    return out if np.ndim(x) == 2 else out[0]


def predict(model: NTKModel | PrivateNTKModel, x: np.ndarray) -> np.ndarray:
    """f(x) = (1/n) K(x, X)^T alpha for either model type (a private one over
    its privatized features): (d,) -> (c,) scores, (q, d) -> (q, c)."""
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


@dataclass(frozen=True)
class UtilityInputs:
    """Quantities entering the theoretical accuracy-loss bounds.

    omega is the kernel-function magnitude cap 6 d sigma^2 B^4 and is always
    derived, never free.
    """

    eta_min: float
    eta_max: float
    lam: float
    rho: float
    omega: float
    b_l: float
    bound_B: float
    dim_d: int
    sigma: float

    def __post_init__(self) -> None:
        expected = 6.0 * self.dim_d * self.sigma * self.sigma * self.bound_B**4
        if not math.isclose(self.omega, expected, rel_tol=1e-12, abs_tol=0.0):
            raise ValueError(f"omega must equal 6 d sigma^2 B^4 = {expected!r}")
        if not (self.eta_min + self.lam > 0):
            raise ValueError("eta_min + lambda must be positive")

    @classmethod
    def build(cls, eta_min: float, eta_max: float, lam: float, rho: float, b_l: float,
              bound_B: float, dim_d: int, sigma: float) -> "UtilityInputs":
        omega = 6.0 * dim_d * sigma * sigma * bound_B**4
        return cls(eta_min, eta_max, lam, rho, omega, b_l, bound_B, dim_d, sigma)


def inverse_gap_bound(u: UtilityInputs) -> float:
    """Spectral bound rho * eta_max / (eta_min + lambda)^2 on the distance
    between the plain and private shifted-kernel inverses (unit constant)."""
    return u.rho * u.eta_max / (u.eta_min + u.lam) ** 2


def kxX_gap_bound(n: int, u: UtilityInputs) -> float:
    """L2 bound 2 sqrt(n) sigma^2 B^3 sqrt(d) B_L on the kernel-function
    change caused by feature privatization."""
    return 2.0 * math.sqrt(n) * u.sigma * u.sigma * u.bound_B**3 * math.sqrt(u.dim_d) * u.b_l


def regression_utility_bound(u: UtilityInputs) -> float:
    """Prediction-gap bound, the sum of the feature-noise and kernel-noise
    terms (unit constants):

        B^3 sqrt(d) B_L / (eta_min + lambda)
        + rho eta_max omega / (eta_min + lambda)^2
    """
    denom = u.eta_min + u.lam
    term_features = u.bound_B**3 * math.sqrt(u.dim_d) * u.b_l / denom
    term_kernel = u.rho * u.eta_max * u.omega / denom**2
    return term_features + term_kernel

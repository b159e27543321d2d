"""Privacy mechanisms and the budget calculus around them.

Two mechanisms:

* Truncated Laplace on the feature matrix. ``TLap(Delta, eps, delta)`` has
  density proportional to exp(-|z| / lambda) on [-B_L, B_L] with
  lambda = Delta / eps and

      B_L = (Delta / eps) * ln(1 + (e^eps - 1) / (2 delta)),

  which gives an (eps, delta)-DP mechanism with bounded support.

* Gaussian sampling on the PSD kernel matrix. Given a PSD Sigma and a draw
  count k, release the empirical covariance

      Sigma_hat = (1/k) sum_i g_i g_i^T,   g_i ~ N(0, Sigma),

  which is PSD by construction (a sum of outer products). It is drawn as
  one Bartlett factor through the Cholesky factor of Sigma.

The budget calculus ties the two together: the sampling cap

    Delta = min( eps / sqrt(8 k ln(1/delta)),  eps / (8 ln(1/delta)) )

must dominate the whitened neighbor-kernel distance M, with Delta < 1.
All logarithms here are natural; the DP algebra is stated in terms of e^eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .kernel import Dataset
from .linalg import SymMatrix, _strict_lower_mask, psd_factor
from .rng import RngStream

__all__ = [
    "DPParams",
    "TruncLapParams",
    "ConditionReport",
    "BudgetInfeasibleError",
    "trunc_lap_width",
    "feature_noise_width",
    "trunc_lap_samples",
    "trunc_lap_cdf",
    "privatize_dataset",
    "gaussian_sampling_mechanism",
    "delta_budget",
    "rho_bound",
    "continuous_sensitivity_psi",
    "max_k_raw",
    "max_k",
    "max_k_refusal",
    "compose",
    "check_dp_conditions",
]

DEFAULT_K_CAP = 10_000_000


@dataclass(frozen=True)
class DPParams:
    """An (epsilon, delta) privacy budget."""

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be positive")
        if not (0.0 <= self.delta < 1.0):
            raise ValueError("delta must lie in [0, 1)")


class BudgetInfeasibleError(RuntimeError):
    """Requested privacy parameters fail the sampling-mechanism conditions."""

    def __init__(self, report: "ConditionReport"):
        super().__init__(f"privacy budget infeasible: {report}")
        self.report = report


def trunc_lap_width(sens: float, eps: float, delta: float) -> float:
    """Support half-width B_L = (sens/eps) * ln(1 + (e^eps - 1) / (2 delta)).

    Raises:
        ValueError: if delta == 0; the bounded-support mechanism does not
            exist there (that limit is the plain Laplace mechanism, which
            this package does not offer).
    """
    if not (sens > 0):
        raise ValueError("sensitivity must be positive")
    if not (eps > 0):
        raise ValueError("epsilon must be positive")
    if not (0.0 < delta < 1.0):
        raise ValueError(
            "delta must lie in (0, 1); delta = 0 would require unbounded support"
        )
    if eps > 700.0:
        # exp(eps) overflows; identical value via
        # ln(1 + (e^eps - 1)/(2 delta)) = eps + log1p((2 delta - 1) e^-eps) - ln(2 delta)
        log_term = eps + math.log1p((2.0 * delta - 1.0) * math.exp(-eps)) - math.log(2.0 * delta)
        return (sens / eps) * log_term
    return (sens / eps) * math.log1p(math.expm1(eps) / (2.0 * delta))


def feature_noise_width(d: int, beta: float, dp: DPParams) -> float:
    """B_L of the feature stage: the truncated-Laplace half-width that
    ``privatize_dataset`` draws with at L1 sensitivity sqrt(d) * beta, and 0
    at beta = 0, where it adds no noise."""
    if beta < 0:
        raise ValueError("beta must be non-negative")
    return trunc_lap_width(math.sqrt(d) * beta, dp.epsilon, dp.delta) if beta > 0 else 0.0


@dataclass(frozen=True)
class TruncLapParams:
    """Truncated-Laplace parameters with the derived support half-width."""

    sensitivity_delta: float
    epsilon: float
    delta: float
    width_BL: float = 0.0

    def __post_init__(self) -> None:
        width = trunc_lap_width(self.sensitivity_delta, self.epsilon, self.delta)
        object.__setattr__(self, "width_BL", width)

    @property
    def scale(self) -> float:
        """Laplace scale lambda = Delta / eps."""
        return self.sensitivity_delta / self.epsilon


def _inverse_cdf(p: TruncLapParams, u: np.ndarray) -> np.ndarray:
    lam = p.scale
    c = math.exp(-p.width_BL / lam)
    q = 1.0 - c
    # -lam log(c + 2 q min(u, 1 - u)), negated below the median and clipped:
    # the formula's operations in its order, in one buffer. The sign is a
    # multiply by an int8 +-1, bit-identical to negation (signed zeros too),
    # faster than a masked negate and one byte per draw, not a float's eight.
    # It is built in place from the comparison's bytes: True (1) maps to
    # 1 - 2 = -1 and False (0) to 1.
    z = np.subtract(1.0, u, out=np.empty_like(u, dtype=np.float64))
    np.minimum(u, z, out=z)
    z *= 2.0 * q
    z += c
    np.log(z, out=z)
    z *= -lam
    sign = np.less(u, 0.5).view(np.int8)
    sign *= -2
    sign += 1
    z *= sign
    return np.clip(z, -p.width_BL, p.width_BL, out=z)


def trunc_lap_samples(p: TruncLapParams, rng: RngStream, shape) -> np.ndarray:
    """Array of independent TLap draws with the given shape."""
    u = rng.substream("tlap").generator().random(shape)
    return _inverse_cdf(p, u)


def trunc_lap_cdf(p: TruncLapParams, z) -> np.ndarray:
    """Analytic CDF of the truncated Laplace distribution."""
    lam = p.scale
    c = math.exp(-p.width_BL / lam)
    q = 1.0 - c
    z = np.asarray(z, dtype=np.float64)
    lower = (np.exp(np.minimum(z, 0.0) / lam) - c) / (2.0 * q)
    upper = 1.0 - (np.exp(-np.maximum(z, 0.0) / lam) - c) / (2.0 * q)
    out = np.where(z < 0.0, lower, upper)
    out = np.where(z <= -p.width_BL, 0.0, out)
    out = np.where(z >= p.width_BL, 1.0, out)
    return out


def privatize_dataset(
    data: Dataset, beta: float, dp: DPParams, rng: RngStream
) -> Dataset:
    """Add independent truncated-Laplace noise to every feature entry.

    The sensitivity of the feature matrix under replacement of one row by a
    beta-close row is sqrt(d) * beta in L1. All n*d entries receive i.i.d.
    noise; the returned bound is B + sqrt(d) * B_L because perturbed rows can
    leave the original ball. Labels are never perturbed.
    """
    if beta < 0:
        raise ValueError("beta must be non-negative")
    if beta == 0.0:
        return Dataset(data.features, data.labels, data.bound_B)
    if not (0.0 < dp.delta < 1.0):
        raise ValueError("privatize_dataset requires delta in (0, 1)")
    d = data.dim
    sens = math.sqrt(d) * beta
    params = TruncLapParams(sens, dp.epsilon, dp.delta)
    noise = trunc_lap_samples(params, rng, (data.n, d))
    bound = data.bound_B + math.sqrt(d) * params.width_BL
    return Dataset(data.features + noise, data.labels, bound)


def gaussian_sampling_mechanism(
    sigma_mat: SymMatrix | np.ndarray, k: int, rng: RngStream, tol: float | None = None
) -> SymMatrix:
    """Release (1/k) sum_i g_i g_i^T with g_i ~ N(0, Sigma).

    The sum equals L R^T R L^T / k for any factor L with L L^T = Sigma, and
    R the upper trapezoidal Bartlett factor of k standard-normal rows:
    min(k, n) rows, R[i, i] = sqrt(chi^2_{k-i}) and N(0, 1) above the
    diagonal (Bartlett 1933; Smith & Hocking 1972). R has the law of the R
    factor of a k x n standard-normal Z, and Z^T Z = R^T R, so the release is
    (Z L^T)^T (Z L^T) / k whose rows L z_i ~ N(0, Sigma) for any such L.
    L is the Cholesky factor of Sigma; only a singular or semidefinite Sigma,
    where the factorization fails, falls back to the eigendecomposition root
    (``linalg.psd_factor``). R is drawn directly from the labeled substream
    "gsm": only the r n - r(r+1)/2 normals above the diagonal, written row by
    row, then the r chi-squares. O(n^2) draws and O(n^3) work for any k,
    bit-reproducible per stream, PSD by construction, rank at most
    min(n, k).

    Raises:
        NotPSDError: if the input is not PSD within tolerance.
        ValueError: if k < 1 or tol < 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    cov_factor = psd_factor(sigma_mat, tol)
    n = cov_factor.shape[0]
    r = min(k, n)
    gen = rng.substream("gsm").generator()
    bartlett = np.zeros((r, n))
    bartlett[_strict_lower_mask(n).T[:r]] = gen.standard_normal(r * n - r * (r + 1) // 2)
    np.fill_diagonal(bartlett, np.sqrt(gen.chisquare(k - np.arange(r))))
    g = bartlett @ cov_factor.T
    # Each (n, n) temporary is freed once spent: the call holds at most three
    # at a time, not five, and the released copy is not allocated above them.
    del bartlett, cov_factor
    scatter = g.T @ g
    del g
    scatter /= k
    return SymMatrix(scatter)


def delta_budget(dp: DPParams, k: int) -> float:
    """Sampling cap Delta = min(eps / sqrt(8 k ln(1/delta)), eps / (8 ln(1/delta)))."""
    if not (0.0 < dp.delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if k < 1:
        raise ValueError("k must be >= 1")
    log_term = math.log(1.0 / dp.delta)
    return min(
        dp.epsilon / math.sqrt(8.0 * k * log_term),
        dp.epsilon / (8.0 * log_term),
    )


def rho_bound(n: int, k: int, gamma: float, c_rho: float = 1.0) -> float:
    """Concentration radius rho = c * (sqrt(a/k) + a/k), a = n^2 + ln(1/gamma).

    The hidden constant is not pinned down by the analysis; c_rho defaults
    to 1 and empirical comparisons carry their own declared slack.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    if not (c_rho > 0):
        raise ValueError("c_rho must be positive")
    a = (n * n + math.log(1.0 / gamma)) / k
    return c_rho * (math.sqrt(a) + a)


def continuous_sensitivity_psi(
    n: int, sigma: float, bound_B: float, beta: float
) -> float:
    """Frobenius sensitivity of the closed-form kernel under a beta-close
    row replacement: psi = sqrt(8n + 8) * sigma^2 B^3 beta.

    The constant comes from summing the squared per-entry Lipschitz bounds:
    (2n - 2) off-diagonal entries at 2 sigma^2 B^3 beta each plus one
    diagonal entry at 4 sigma^2 B^3 beta, i.e. (2n - 2) * 4 + 16 = 8n + 8.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if sigma < 0 or bound_B <= 0 or beta < 0:
        raise ValueError("sigma, bound_B, beta must be non-negative (bound_B positive)")
    return math.sqrt(8.0 * n + 8.0) * sigma * sigma * bound_B**3 * beta


def max_k_raw(
    eps: float,
    delta: float,
    n: int,
    sigma: float,
    bound_B: float,
    beta: float,
    eta_min: float,
) -> float:
    """Raw sampling-count bound eps^2 / (8 ln(1/delta) M^2).

    This inverts M <= Delta on the k >= 8 ln(1/delta) branch for the value
    ``check_dp_conditions`` gates on, M = max(n sigma^2 B^4 beta, psi) /
    eta_min, so ``max_k`` and the gate cannot disagree.

    Returns inf when beta == 0.
    """
    if not (eps > 0) or not (0.0 < delta < 1.0):
        raise ValueError("need eps > 0 and delta in (0, 1)")
    if n < 1 or not (sigma > 0) or not (bound_B > 0) or beta < 0:
        raise ValueError("invalid kernel parameters")
    if not (eta_min > 0):
        # A rank-deficient kernel certifies no draw count at all.
        return 0.0
    if beta == 0.0:
        return math.inf
    gate = _gate_numerator(n, sigma, bound_B, beta) / eta_min
    return eps * eps / (8.0 * math.log(1.0 / delta) * gate * gate)


def _gate_numerator(n: int, sigma: float, bound_B: float, beta: float) -> float:
    """eta_min times the gating M: the larger of the k-bound's n sigma^2 B^4
    beta and the Frobenius sensitivity psi. psi / eta_min bounds the whitened
    distance directly, since ||K^{-1/2} K' K^{-1/2} - I||_F <= ||K' - K||_F /
    eta_min, so the max keeps the gate sound where n B < sqrt(8n + 8)."""
    return max(n * sigma * sigma * bound_B**4 * beta,
               continuous_sensitivity_psi(n, sigma, bound_B, beta))


def max_k(
    eps: float,
    delta: float,
    n: int,
    sigma: float,
    bound_B: float,
    beta: float,
    eta_min: float,
    cap: int = DEFAULT_K_CAP,
) -> int:
    """Largest admissible sampling count, 0 when the budget is infeasible.

    The raw bound is floored and clamped to ``cap``; the branch selection in
    ``delta_budget`` additionally requires k >= 8 ln(1/delta), so any value
    below that threshold is reported as infeasible (0).
    """
    raw = max_k_raw(eps, delta, n, sigma, bound_B, beta, eta_min)
    k = cap if math.isinf(raw) else min(int(math.floor(raw)), cap)
    return 0 if k < _k_min(delta) else k


def _k_min(delta: float) -> int:
    return math.ceil(8.0 * math.log(1.0 / delta))


def max_k_refusal(dp_alpha: DPParams, n: int, sigma: float, bound_B: float, beta: float,
                  eta_min: float, cap: int = DEFAULT_K_CAP) -> str:
    """Why ``max_k`` found no admissible k for this budget. Delta falls as k
    grows, so past the rank and cap checks M exceeds Delta at the smallest k."""
    k_min = _k_min(dp_alpha.delta)
    if not (eta_min > 0):
        return f"the kernel is rank-deficient: eta_min = {eta_min:.6g} <= 0"
    if cap < k_min:
        return f"k_cap = {cap} is below the smallest admissible k = ceil(8 ln 1/delta) = {k_min}"
    report = check_dp_conditions(dp_alpha, k_min, n, sigma, bound_B, beta, eta_min)
    return (f"M = {report.m_bound:.6g} > Delta = {report.delta_cap:.6g}, the largest Delta "
            f"any admissible k reaches (at k = ceil(8 ln 1/delta) = {k_min})")


def compose(parts: Iterable[DPParams] | Sequence[DPParams]) -> DPParams:
    """Budget of running independent mechanisms: componentwise sums.

    Exact summation keeps the result independent of the part order.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("compose requires at least one budget")
    return DPParams(
        epsilon=math.fsum(p.epsilon for p in parts),
        delta=math.fsum(p.delta for p in parts),
    )


@dataclass(frozen=True)
class ConditionReport:
    """Feasibility report for the Gaussian sampling mechanism.

    ``m_bound`` is the value that gates, M = max(n sigma^2 B^4 beta, psi) /
    eta_min with psi the closed-form Frobenius sensitivity: the k-bound
    algebra's value, floored by the direct route psi / eta_min so the gate
    never sits below a proven bound. ``max_k_raw`` inverts the same M, so any
    k admitted by ``max_k`` checks out.
    """

    delta_cap: float
    m_bound: float
    rho: float
    k: int
    delta_lt_one: bool
    m_le_delta: bool
    k_ge_one: bool

    @property
    def feasible(self) -> bool:
        return self.delta_lt_one and self.m_le_delta and self.k_ge_one

    def __str__(self) -> str:
        return (
            f"ConditionReport(k={self.k}, Delta={self.delta_cap:.6g}, "
            f"M={self.m_bound:.6g}, rho={self.rho:.6g}, "
            f"Delta<1={self.delta_lt_one}, M<=Delta={self.m_le_delta}, "
            f"k>=1={self.k_ge_one})"
        )


def check_dp_conditions(
    dp_alpha: DPParams,
    k: int,
    n: int,
    sigma: float,
    bound_B: float,
    beta: float,
    eta_min: float,
    *,
    gamma: float = 0.01,
    c_rho: float = 1.0,
) -> ConditionReport:
    """Evaluate the sampling-mechanism feasibility conditions for a given k.

    Infeasibility is data, not an error: the caller decides whether to gate.
    k < 1 (no admissible draw count) reports k_ge_one = False with Delta and
    rho infinite.
    """
    cap = delta_budget(dp_alpha, k) if k >= 1 else math.inf
    if beta == 0.0:
        m_eq = 0.0
    elif eta_min > 0:
        m_eq = _gate_numerator(n, sigma, bound_B, beta) / eta_min
    else:
        # Rank-deficient kernel: the whitened distance is unbounded and no
        # budget can pass, but infeasibility stays data rather than an error.
        m_eq = math.inf
    rho = rho_bound(n, k, gamma, c_rho) if k >= 1 else math.inf
    return ConditionReport(
        delta_cap=cap,
        m_bound=m_eq,
        rho=rho,
        k=k,
        delta_lt_one=cap < 1.0,
        m_le_delta=m_eq <= cap,
        k_ge_one=k >= 1,
    )

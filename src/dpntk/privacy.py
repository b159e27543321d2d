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
  one Bartlett factor through a triangular factor of Sigma.

The budget calculus ties the two together: the sampling cap

    Delta = min( eps / sqrt(8 k ln(1/delta)),  eps / (8 ln(1/delta)) )

must dominate the whitened neighbor-kernel distance M, with Delta < 1; M is
computed only in ``_m_bound`` and admission decided only in ``_admit``. All
logarithms here are natural; the DP algebra is stated in terms of e^eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .kernel import Dataset, _check_positive, _check_scale
from .linalg import SymMatrix, _release_factor, strict_lower_mask, trmm
from .rng import RngStream

__all__ = [
    "DPParams",
    "TruncLapParams",
    "ConditionReport",
    "BudgetInfeasibleError",
    "trunc_lap_width",
    "feature_noise_width",
    "trunc_lap_samples",
    "trunc_lap_max_abs",
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
        if self.epsilon == math.inf:
            raise ValueError("epsilon must be finite")
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
    if eps == math.inf:
        raise ValueError("epsilon must be finite")
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


@dataclass(frozen=True)
class TruncLapParams:
    """Truncated-Laplace parameters with the derived support half-width."""

    sensitivity_delta: float
    epsilon: float
    delta: float
    width_BL: float = field(init=False)

    def __post_init__(self) -> None:
        width = trunc_lap_width(self.sensitivity_delta, self.epsilon, self.delta)
        object.__setattr__(self, "width_BL", width)

    @property
    def scale(self) -> float:
        """Laplace scale lambda = Delta / eps."""
        return self.sensitivity_delta / self.epsilon


def _feature_noise(d: int, beta: float, dp: DPParams) -> TruncLapParams | None:
    """The feature stage's TLap at L1 sensitivity sqrt(d) * beta; None only
    at beta = 0 (not at a zero width), where it adds no noise."""
    _check_scale("beta", beta)
    return TruncLapParams(math.sqrt(d) * beta, dp.epsilon, dp.delta) if beta > 0 else None


def feature_noise_width(d: int, beta: float, dp: DPParams) -> float:
    """B_L of the feature stage: the half-width ``privatize_dataset`` draws
    with, 0 at beta = 0. A negative, NaN or infinite beta raises ValueError."""
    params = _feature_noise(d, beta, dp)
    return params.width_BL if params is not None else 0.0


def _inverse_cdf(p: TruncLapParams, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    lam = p.scale
    c = math.exp(-p.width_BL / lam)
    q = 1.0 - c
    # -lam log(c + 2 q min(u, 1 - u)), negated below the median and clipped:
    # the formula's operations in its order, in one buffer (``out`` when
    # given, else a new one). The sign is a multiply by an int8 +-1,
    # bit-identical to negation (signed zeros too), faster than a masked
    # negate and one byte per draw, not a float's eight. It is built in place
    # from the comparison's bytes: True (1) maps to 1 - 2 = -1 and False (0)
    # to 1.
    z = np.subtract(1.0, u, out=np.empty_like(u, dtype=np.float64) if out is None else out)
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


# Draws per block of the truncated-Laplace stream: each pass over it reuses
# one 128 KiB uniform block, and the inverse CDF adds 16 KiB of sign bytes.
_TLAP_BLOCK = 1 << 14


def _tlap_blocks(rng: RngStream, size: int) -> Iterator[tuple[int, np.ndarray]]:
    """The one block loop over the "tlap" substream: yields (start, u), the
    uniforms of draws start, start + 1, ... of a size-draw release, at most
    ``_TLAP_BLOCK`` at a time, in one reused buffer that the next block
    overwrites. A stream read in blocks yields the same doubles as one draw
    of all ``size``, so every consumer sees the same bits."""
    gen = rng.substream("tlap").generator()
    block = np.empty(min(size, _TLAP_BLOCK))
    for start in range(0, size, _TLAP_BLOCK):
        u = block[:min(_TLAP_BLOCK, size - start)]
        gen.random(out=u)
        yield start, u


def trunc_lap_samples(p: TruncLapParams, rng: RngStream, shape) -> np.ndarray:
    """Array of independent TLap draws with the given shape.

    Each block of ``_tlap_blocks`` is mapped through the inverse CDF straight
    into its slice of the result, so the result is the same bits as one draw
    of the whole shape, and the call holds only the result and one block.
    """
    out = np.empty(shape)
    flat = out.reshape(-1)
    for start, u in _tlap_blocks(rng, flat.size):
        _inverse_cdf(p, u, out=flat[start:start + u.size])
    return out


def trunc_lap_max_abs(p: TruncLapParams, rng: RngStream, size: int) -> float:
    """max |z| over ``trunc_lap_samples(p, rng, size)``, without the release.

    |z| = -lambda log(c + 2 q m), clipped to B_L, does not increase as
    m = min(u, 1 - u) grows, and the clip is symmetric, so the largest |z|
    is that of the smallest m. Rounding keeps 1 - u decreasing in u, so the
    smallest m is min(min u, 1 - max u): each block of ``_tlap_blocks``
    gives its min and max, and only the one smallest m is mapped through
    the inverse CDF. That is the sampler's own arithmetic on that draw, so
    the value is the same float as the max over the materialized draws, and
    the call holds one block at any ``size``. Returns 0.0 when size is 0.
    """
    if size == 0:
        return 0.0
    low, high = 1.0, 0.0
    for _, u in _tlap_blocks(rng, size):
        low, high = min(low, float(u.min())), max(high, float(u.max()))
    z = _inverse_cdf(p, np.array([min(low, 1.0 - high)]))
    return abs(float(z[0]))


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
    leave the original ball. Labels are never perturbed, nor, at beta = 0 and
    any delta, features.
    """
    params = _feature_noise(data.dim, beta, dp)
    if params is None:
        return Dataset(data.features, data.labels, data.bound_B)
    # The features are added into the noise buffer, which becomes the
    # release: the same sums as features + noise, without a second n x d.
    noisy = trunc_lap_samples(params, rng, (data.n, data.dim))
    noisy += data.features
    bound = data.bound_B + math.sqrt(data.dim) * params.width_BL
    return Dataset(noisy, data.labels, bound)


# Smallest Bartlett rank whose chi-squares are drawn in one array call.
_ARRAY_CHISQUARE_FROM = 12


def gaussian_sampling_mechanism(sigma_mat: SymMatrix | np.ndarray, k: int, rng: RngStream) -> SymMatrix:
    """Release (1/k) sum_i g_i g_i^T with g_i ~ N(0, Sigma).

    The sum equals L R^T R L^T / k for any factor L with L L^T = Sigma, and
    R the upper trapezoidal Bartlett factor of k standard-normal rows:
    min(k, n) rows, R[i, i] = sqrt(chi^2_{k-i}) and N(0, 1) above the
    diagonal (Bartlett 1933; Smith & Hocking 1972). R has the law of the R
    factor of a k x n standard-normal Z, and Z^T Z = R^T R, so the release is
    (Z L^T)^T (Z L^T) / k whose rows L z_i ~ N(0, Sigma) for any such L.
    L is the lower-triangular factor from ``linalg.psd_factor``: the
    Cholesky factor of Sigma, or for a singular or semidefinite Sigma, where
    the factorization fails, the pivoted Cholesky factor of Sigma with rows
    and columns in pivot order, whose G's columns are scattered back to
    their indices (the release of a permuted Sigma, permuted back). A Sigma
    that holds its factor (``SymMatrix.factor``, read by a caller that
    releases it more than once) is drawn through that one; any other Sigma
    is factored for this call, and the factor freed before the ``syrk``.
    Both are the same bits. R is drawn directly from the labeled substream
    "gsm": only the r n - r(r+1)/2 normals above the diagonal, written row
    by row, then the r chi-squares. Both factors are triangular, so
    G = R L^T is one BLAS ``trmm`` (about r n^2 flops, half a GEMM's) that
    overwrites R, and the release G^T G / k one ``syrk``, adopted as a
    ``SymMatrix`` without a copy. O(n^2) draws and O(n^3) work for any k,
    bit-reproducible per stream, PSD by construction, rank at most min(n, k).

    Raises:
        NotPSDError: if the input is not PSD within ``linalg.default_tol``.
        ValueError: if k < 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    cov_factor, order = _release_factor(sigma_mat)
    n = cov_factor.shape[0]
    r = min(k, n)
    gen = rng.substream("gsm").generator()
    # Fortran order, so trmm overwrites R in place instead of the binding copying it.
    bartlett = np.zeros((r, n), order="F")
    bartlett[strict_lower_mask(n).T[:r]] = gen.standard_normal(r * n - r * (r + 1) // 2)
    # Below r = 12 the array draw's checks of its degrees of freedom cost
    # more than r scalar draws. Both give the same values in the same order,
    # and math.sqrt and np.sqrt are both the correctly rounded root.
    if r < _ARRAY_CHISQUARE_FROM:
        for i in range(r):
            bartlett[i, i] = math.sqrt(gen.chisquare(k - i))
    else:
        np.fill_diagonal(bartlett, np.sqrt(gen.chisquare(k - np.arange(r))))
    g = trmm(cov_factor, bartlett)
    # Each (n, n) temporary is freed once spent: the call holds at most two
    # at a time (a held factor is its matrix's, not the call's), and the
    # released matrix is the syrk's own output.
    del bartlett, cov_factor
    if order is not None:
        g[:, order] = g.copy()
    scatter = g.T @ g
    del g
    scatter /= k
    return SymMatrix._adopt(scatter)


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
    _check_scale("sigma", sigma)
    _check_positive("bound_B", bound_B)
    _check_scale("beta", beta)
    return math.sqrt(8.0 * n + 8.0) * sigma * sigma * _power(bound_B, 3) * beta


def _power(bound_B: float, exponent: int) -> float:
    """bound_B ** exponent, whose float overflow (Python's OverflowError)
    is refused as a ValueError naming it.

    Raises:
        ValueError: if the power overflows a float.
    """
    try:
        return bound_B**exponent
    except OverflowError:
        raise ValueError(f"bound_B = {bound_B:.6g}: bound_B**{exponent} overflows a float") from None


def max_k_raw(eps: float, delta: float, n: int, sigma: float, bound_B: float, beta: float,
              eta_min: float) -> float:
    """Raw sampling-count bound eps^2 / (8 ln(1/delta) M^2).

    This inverts M <= Delta on the k >= 8 ln(1/delta) branch for the M that
    ``check_dp_conditions`` gates on: both read it from ``_m_bound``.

    Returns 0 when eta_min <= 0, as for the all-zero kernel of sigma == 0,
    and inf when M is 0 (beta == 0 or sigma == 0) or eps / M overflows.
    """
    return _raw_and_m(eps, delta, n, sigma, bound_B, beta, eta_min)[0]


def _raw_and_m(eps: float, delta: float, n: int, sigma: float, bound_B: float, beta: float,
               eta_min: float) -> tuple[float, float]:
    """(``max_k_raw``, the M it inverts), with ``max_k_raw``'s checks: one
    ``_m_bound`` for both."""
    if not (eps > 0) or not (0.0 < delta < 1.0):
        raise ValueError("need eps > 0 and delta in (0, 1)")
    m = _m_bound(n, sigma, bound_B, beta, eta_min)
    if not (eta_min > 0):
        return 0.0, m
    # (eps / M)^2, not eps^2 / M^2, which loses the bound where M^2 underflows.
    ratio = eps / m if m > 0.0 else math.inf
    return ratio * ratio / (8.0 * math.log(1.0 / delta)), m


def _m_bound(n: int, sigma: float, bound_B: float, beta: float, eta_min: float) -> float:
    """The M the gate compares with Delta: 0 at beta = 0, inf on a
    rank-deficient kernel (eta_min <= 0, where the whitened distance is
    unbounded), else max(n sigma^2 B^4 beta, psi) / eta_min. psi / eta_min
    bounds the whitened distance directly, since ||K^{-1/2} K' K^{-1/2} -
    I||_F <= ||K' - K||_F / eta_min, so the max keeps the gate sound where
    n B < sqrt(8n + 8). psi comes first, so its checks run on every path."""
    psi = continuous_sensitivity_psi(n, sigma, bound_B, beta)
    if beta == 0.0:
        return 0.0
    if not (eta_min > 0):
        return math.inf
    return max(n * sigma * sigma * _power(bound_B, 4) * beta, psi) / eta_min


def max_k(eps: float, delta: float, n: int, sigma: float, bound_B: float, beta: float,
          eta_min: float, cap: int = DEFAULT_K_CAP) -> int:
    """Largest admissible sampling count, 0 when the budget is infeasible:
    the k of ``_admit``, whose reason ``max_k_refusal`` returns."""
    return _admit(DPParams(eps, delta), n, sigma, bound_B, beta, eta_min, cap)[0]


def max_k_refusal(dp_alpha: DPParams, n: int, sigma: float, bound_B: float, beta: float,
                  eta_min: float, cap: int = DEFAULT_K_CAP) -> str:
    """Why ``max_k`` found no admissible k for this budget, "" when it found
    one: the reason of ``_admit``, the verdict ``max_k`` reads."""
    return _admit(dp_alpha, n, sigma, bound_B, beta, eta_min, cap)[1]


def _admit(dp: DPParams, n: int, sigma: float, bound_B: float, beta: float,
           eta_min: float, cap: int) -> tuple[int, str]:
    """The admission verdict: (k, "") for the largest k <= cap the gate
    passes, else (0, the first condition that fails). The gate needs
    k >= ceil(8 ln 1/delta), the branch ``delta_budget`` assumes, and
    M <= Delta < 1. Delta falls as k grows, so past the rank and cap checks
    either M >= 1, or M exceeds Delta at the smallest k, or the largest
    k <= cap with M <= Delta (the raw bound floored) has Delta >= 1, and then
    no smaller k passes either."""
    raw, m = _raw_and_m(dp.epsilon, dp.delta, n, sigma, bound_B, beta, eta_min)
    k_min = math.ceil(8.0 * math.log(1.0 / dp.delta))
    if not (eta_min > 0):
        return 0, f"the kernel is rank-deficient: eta_min = {eta_min:.6g} <= 0"
    if cap < k_min:
        return 0, f"k_cap = {cap} is below the smallest admissible k = ceil(8 ln 1/delta) = {k_min}"
    if m >= 1.0:
        return 0, f"M = {m:.6g} >= 1: no k gives Delta < 1 with M <= Delta"
    if m > delta_budget(dp, k_min):
        return 0, (f"M = {m:.6g} > Delta = {delta_budget(dp, k_min):.6g}, the largest Delta "
                   f"any admissible k reaches (at k = ceil(8 ln 1/delta) = {k_min})")
    # M <= Delta at k_min was just checked: the floored raw bound misses k_min,
    # or the last k with M <= Delta, only by rounding, by one either way.
    k = cap if math.isinf(raw) else min(max(math.floor(raw), k_min), cap)
    k = max((j for j in (k - 1, k, k + 1) if k_min <= j <= cap and m <= delta_budget(dp, j)),
            default=k)
    if not delta_budget(dp, k) < 1.0:
        return 0, (f"Delta = {delta_budget(dp, k):.6g} >= 1 at k = {k}, the largest k "
                   f"with M = {m:.6g} <= Delta")
    return k, ""


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

    The verdict (the three conditions and ``feasible``) is derived from the
    four numbers, so no report can state one its numbers contradict.
    """

    delta_cap: float
    m_bound: float
    rho: float
    k: int

    @property
    def delta_lt_one(self) -> bool:
        return self.delta_cap < 1.0

    @property
    def m_le_delta(self) -> bool:
        return self.m_bound <= self.delta_cap

    @property
    def k_ge_one(self) -> bool:
        return self.k >= 1

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
    m_eq = _m_bound(n, sigma, bound_B, beta, eta_min)
    rho = rho_bound(n, k, gamma, c_rho) if k >= 1 else math.inf
    return ConditionReport(delta_cap=cap, m_bound=m_eq, rho=rho, k=k)

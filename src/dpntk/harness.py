"""Experiment driver: privacy-utility sweeps and bound-verification reports.

Sweep output schema (one row per epsilon, "%.6g" floats, nan for skipped
private columns):

    epsilon,k,feasible,acc_train,acc_test,acc_train_priv,acc_test_priv,gap_median,gap_max,utility_bound

Feasibility is decided by ``fit_private`` alone: an infeasible row is one it
refused before either mechanism ran, and its non-private columns repeat the
single non-private fit. Runs are byte-deterministic given (config, seed).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .data import generate_synthetic, load_features_csv, train_test_split
from .kernel import Dataset, _check_scale, discrete_kernel, kernel_vector, sample_weights
from .linalg import SymMatrix, _eigenvalue
from .privacy import (
    DEFAULT_K_CAP,
    BudgetInfeasibleError,
    DPParams,
    TruncLapParams,
    feature_noise_width,
    gaussian_sampling_mechanism,
    max_k,
    privatize_dataset,
    rho_bound,
    trunc_lap_max_abs,
)
from .regression import (
    decode,
    fit,
    fit_private,
    inverse_gap_bound,
    kxX_gap_bound,
    predict,
    predict_private,
    regression_utility_bound,
)
from .rng import RngStream
from .sensitivity import (
    BoundCheck,
    cts_sensitivity_check,
    dis_cts_gap,
    dis_sensitivity_check,
    entry_lipschitz_check,
    moved_rows,
    psd_sandwich_check,
)

__all__ = [
    "ExperimentConfig",
    "RowResult",
    "ResultsTable",
    "parse_config_file",
    "plan_budget",
    "run_tradeoff",
    "verify_bounds",
    "write_bound_report",
]

CSV_COLUMNS = (
    "epsilon,k,feasible,acc_train,acc_test,acc_train_priv,acc_test_priv,"
    "gap_median,gap_max,utility_bound"
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep configuration; defaults follow the desk-scale setup
    (m = 256 weights, lambda = 10, sigma = 1, beta = 1e-6, delta = 2e-3)."""

    seed: int
    n: int = 500
    d: int = 16
    n_cls: int = 2
    m: int = 256
    lam: float = 10.0
    sigma: float = 1.0
    beta: float = 1e-6
    delta_total: float = 2e-3
    epsilon_grid: tuple[float, ...] = (1.0, 10.0, 100.0, 1e3, 1e4)
    k_policy: str = "max-k"
    k_fixed: int = 0
    k_cap: int = DEFAULT_K_CAP
    train_frac: float = 0.7
    separation: float = 1.0
    cluster_std: float = 0.25
    x_budget_frac: float = 0.5
    gamma: float = 0.01
    c_rho: float = 1.0
    normalize: bool = True
    strict: bool = False
    input_path: str | None = None
    output_path: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int):
            raise ValueError("seed must be an integer")
        if not (0.0 < self.delta_total < 1.0):
            raise ValueError("delta_total must lie in (0, 1)")
        grid = tuple(float(e) for e in self.epsilon_grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("epsilon_grid must be non-empty and strictly increasing")
        if not all(math.isfinite(e) for e in grid):
            raise ValueError("epsilon_grid values must be finite")
        object.__setattr__(self, "epsilon_grid", grid)
        if self.k_policy not in ("max-k", "fixed"):
            raise ValueError("k_policy must be 'max-k' or 'fixed'")
        if self.k_policy == "fixed" and self.k_fixed < 1:
            raise ValueError("fixed k policy requires k_fixed >= 1")
        if not (0.0 < self.x_budget_frac < 1.0):
            raise ValueError("x_budget_frac must lie in (0, 1)")
        # rho_bound's checks of gamma and c_rho, before any row (which may never reach rho).
        rho_bound(1, 1, self.gamma, self.c_rho)
        _check_scale("beta", self.beta)
        _check_scale("sigma", self.sigma)


def parse_config_file(path: str) -> dict:
    """Flat key=value file; keys are ExperimentConfig field names."""
    known = {f.name: f.type for f in fields(ExperimentConfig)}
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                out[key] = _parse_config_value(known[key], value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return out


_CONFIG_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
                 "0": False, "false": False, "no": False, "off": False}


def _parse_config_value(kind: str, value: str):
    """Parse by the field's annotation: a float tuple, bool, int, float or str.
    A bool is one of 1/0/true/false/yes/no/on/off, in any case."""
    if kind.startswith("tuple"):
        return tuple(float(v) for v in value.split(","))
    if kind == "bool":
        if value.lower() not in _CONFIG_BOOLS:
            raise ValueError(f"expected one of 1/0/true/false/yes/no/on/off, got {value!r}")
        return _CONFIG_BOOLS[value.lower()]
    return {"int": int, "float": float}.get(kind, str)(value)


@dataclass(frozen=True)
class RowResult:
    epsilon: float
    k: int
    feasible: bool
    acc_train: float
    acc_test: float
    acc_train_priv: float
    acc_test_priv: float
    gap_median: float
    gap_max: float
    utility_bound: float

    def csv_line(self) -> str:
        def cell(f) -> str:
            v = getattr(self, f.name)
            if f.type == "bool":
                return "true" if v else "false"
            return str(v) if f.type == "int" else f"{v:.6g}"

        return ",".join(cell(f) for f in fields(self))


@dataclass
class ResultsTable:
    config: ExperimentConfig
    rows: list[RowResult] = field(default_factory=list)

    def csv_text(self) -> str:
        return "\n".join([CSV_COLUMNS] + [r.csv_line() for r in self.rows]) + "\n"

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.csv_text())


def _accuracy(scores: np.ndarray, data: Dataset) -> float:
    return float(np.mean(decode(scores) == decode(data.labels)))


def plan_budget(
    epsilon: float, cfg: ExperimentConfig, n: int, bound_B: float, eta_min: float
) -> tuple[DPParams, DPParams, int]:
    """(dp_x, dp_alpha, k): epsilon and cfg.delta_total split by cfg.x_budget_frac
    between the feature and kernel stages, and k chosen by cfg.k_policy; under
    "max-k", k = 0 when no draw count is admissible (including eta_min <= 0)."""
    dp_x = DPParams(epsilon * cfg.x_budget_frac, cfg.delta_total * cfg.x_budget_frac)
    dp_a = DPParams(
        epsilon * (1.0 - cfg.x_budget_frac), cfg.delta_total * (1.0 - cfg.x_budget_frac)
    )
    if cfg.k_policy == "fixed":
        return dp_x, dp_a, cfg.k_fixed
    k = max_k(
        dp_a.epsilon, dp_a.delta, n, cfg.sigma, bound_B, cfg.beta, eta_min, cap=cfg.k_cap
    )
    return dp_x, dp_a, k


def _load_dataset(cfg: ExperimentConfig, root: RngStream) -> Dataset:
    if cfg.input_path:
        return load_features_csv(cfg.input_path, normalize=cfg.normalize)
    return generate_synthetic(
        cfg.n, cfg.d, cfg.n_cls, cfg.separation, root, cluster_std=cfg.cluster_std
    )


def run_tradeoff(cfg: ExperimentConfig) -> ResultsTable:
    """Sweep the epsilon grid: one non-private fit, then per epsilon an even
    budget split, a k per policy, and a private fit on feasible rows."""
    root = RngStream(cfg.seed)
    data = _load_dataset(cfg, root)
    train, test = train_test_split(data, cfg.train_frac, root)
    w = sample_weights(cfg.m, train.dim, cfg.sigma, root)
    kern = discrete_kernel(train, w)
    model = fit(train, w, cfg.lam, kernel=kern)
    # Train and test rows are scored in one batch and split; a batch row is
    # the same bits as the row scored alone.
    n_tr = train.n
    queries = np.concatenate([train.features, test.features])
    f_all = predict(model, queries)
    acc_train = _accuracy(f_all[:n_tr], train)
    f_plain = f_all[n_tr:]
    acc_test = _accuracy(f_plain, test)
    eta_min, eta_max = kern.eta_min, kern.eta_max

    table = ResultsTable(config=cfg)
    if eta_min <= 0.0:
        # Quadratic features span at most d(d+1)/2 dimensions, so more
        # training rows than that make the kernel exactly singular and no
        # budget with beta > 0 can certify the sampling mechanism.
        rank_cap = train.dim * (train.dim + 1) // 2
        warnings.warn(
            f"kernel is rank deficient (eta_min={eta_min:.3g}); with d={train.dim} "
            f"the quadratic features saturate at {rank_cap} rows but the training "
            f"split has {n_tr}; no epsilon can be certified while beta > 0",
            stacklevel=2,
        )
    else:
        # Every feasible row releases this one kernel through the sampling
        # mechanism, which draws through the factor the matrix holds: one
        # factorization for the sweep, not one per row.
        kern.matrix.factor
    for i, eps in enumerate(cfg.epsilon_grid):
        dp_x, dp_a, k = plan_budget(eps, cfg, n_tr, train.bound_B, eta_min)
        try:
            pm = fit_private(
                train, w, cfg.lam, k, dp_a, dp_x, cfg.beta,
                root.substream(f"row{i}"), enforce=True, kernel=kern,
                gamma=cfg.gamma, c_rho=cfg.c_rho,
            )
        except BudgetInfeasibleError:
            table.rows.append(
                RowResult(
                    epsilon=eps, k=k, feasible=False,
                    acc_train=acc_train, acc_test=acc_test,
                    acc_train_priv=math.nan, acc_test_priv=math.nan,
                    gap_median=math.nan, gap_max=math.nan, utility_bound=math.nan,
                )
            )
            continue
        f_priv_all = predict_private(pm, queries)
        f_priv = f_priv_all[n_tr:]
        gaps = np.abs(f_plain - f_priv).max(axis=1)
        b_l = feature_noise_width(train.dim, cfg.beta, dp_x)
        table.rows.append(
            RowResult(
                epsilon=eps, k=k, feasible=True,
                acc_train=acc_train, acc_test=acc_test,
                acc_train_priv=_accuracy(f_priv_all[:n_tr], train),
                acc_test_priv=_accuracy(f_priv, test),
                gap_median=float(np.median(gaps)),
                gap_max=float(gaps.max()),
                utility_bound=regression_utility_bound(
                    pm.condition_report.rho, eta_min, eta_max, cfg.lam,
                    train.dim, cfg.sigma, train.bound_B, b_l,
                ),
            )
        )
    if not any(r.feasible for r in table.rows):
        warnings.warn("every epsilon in the grid is budget-infeasible", stacklevel=2)
    if cfg.output_path:
        table.write_csv(cfg.output_path)
    return table


# ---------------------------------------------------------------------------
# Bound verification report
# ---------------------------------------------------------------------------

_VERIFY_N = 5
_VERIFY_D = 4
_VERIFY_PAIRS = 200
_VERIFY_M = 4096
_VERIFY_GAP_M = 65536
_VERIFY_TLAP_DRAWS = 1_000_000
_VERIFY_GSM_TRIALS = 100
_VERIFY_UTILITY_TRIALS = 50
_VERIFY_UTILITY_K = 10_000
_VERIFY_DP = DPParams(1.0, 1e-3)


def _unit_rows(n: int, d: int, rng: RngStream) -> np.ndarray:
    x = rng.generator().standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def verify_bounds(cfg: ExperimentConfig) -> list[BoundCheck]:
    """Measure every implemented bound against brute force at desk scale.

    Sensitivity rows use (cfg.sigma, cfg.beta); the mechanism rows use fixed
    reference parameters documented inline. Deterministic given cfg.seed.
    The ``tlap_support`` row's max |z| over 10^6 truncated-Laplace draws is
    the max over ``trunc_lap_samples``' release, read block by block through
    ``trunc_lap_max_abs`` without holding it.
    """
    root = RngStream(cfg.seed).substream("verify")
    sigma, beta = cfg.sigma, cfg.beta
    n, d = _VERIFY_N, _VERIFY_D
    data = Dataset(
        _unit_rows(n, d, root.substream("data")),
        np.zeros((n, 1)),
        bound_B=1.0,
    )
    checks: list[BoundCheck] = []

    # Per-entry Lipschitz constants and whitened sandwich at nominal beta over
    # one draw of moved rows, then the cts and dis Frobenius sensitivities.
    pairs = moved_rows(data, beta, _VERIFY_PAIRS, root, "pair")
    checks += entry_lipschitz_check(data, sigma, beta, pairs)
    checks.append(psd_sandwich_check(data, sigma, beta, pairs))
    rows = moved_rows(data, beta, _VERIFY_PAIRS, root.substream("cts"), "trial")
    checks.append(cts_sensitivity_check(data, sigma, beta, rows))
    w = sample_weights(_VERIFY_M, d, sigma, root.substream("w"))
    rows = moved_rows(data, beta, _VERIFY_PAIRS, root.substream("dis"), "trial")
    checks.append(dis_sensitivity_check(data, w, beta, rows))

    w_gap = sample_weights(_VERIFY_GAP_M, d, sigma, root.substream("wgap"))
    gap = dis_cts_gap(data, w_gap)
    checks.append(
        BoundCheck("dis_cts_gap", 0.05 * n * sigma**2 * data.bound_B**4, gap)
    )

    # Kernel-function shift under feature privatization, reference budget.
    query = _unit_rows(1, d, root.substream("query"))[0]
    base_kv = kernel_vector(query, data, w)
    b_l = feature_noise_width(d, beta, _VERIFY_DP)
    kv_bound = kxX_gap_bound(n, d, sigma, data.bound_B, b_l)
    kv_gap = 0.0
    for t in range(100):
        priv = privatize_dataset(data, beta, _VERIFY_DP, root.substream(f"kv{t}"))
        kv_gap = max(kv_gap, float(np.linalg.norm(kernel_vector(query, priv, w) - base_kv)))
    checks.append(BoundCheck("kxX_gap", kv_bound, kv_gap))

    # Truncated Laplace support at reference parameters (1, 1, 0.5).
    ref = TruncLapParams(1.0, 1.0, 0.5)
    top = trunc_lap_max_abs(ref, root.substream("tlap"), _VERIFY_TLAP_DRAWS)
    checks.append(BoundCheck("tlap_support", ref.width_BL, top))

    # Sampling-mechanism PSD floor over random PSD inputs and k in {1, 5, 100}.
    worst = 0.0
    for t in range(_VERIFY_GSM_TRIALS):
        gen = root.substream(f"gsm{t}").generator()
        size = int(gen.integers(1, 9))
        mat = gen.standard_normal((size, size))
        sig = SymMatrix(mat @ mat.T)
        sig.factor  # held: the three releases draw through one factorization
        for k in (1, 5, 100):
            est = gaussian_sampling_mechanism(sig, k, root.substream(f"gsm{t}/{k}"))
            scale = max(est.frob_norm(), 1e-300)
            # One end of a matrix read once: one syevx, not sytrd and stebz.
            worst = max(worst, max(0.0, -_eigenvalue(est, 1)) / scale)
    checks.append(BoundCheck("gsm_psd_mineig", 1e-10, worst))

    # Prediction and inverse gaps against 10x the theoretical bounds (q95).
    inv_gaps, pred_gaps, inv_bounds, pred_bounds = [], [], [], []
    for t in range(_VERIFY_UTILITY_TRIALS):
        r = root.substream(f"util{t}")
        feats = _unit_rows(n, d, r.substream("x"))
        labels = np.where(r.substream("y").generator().random(n) < 0.5, -1.0, 1.0)
        ds = Dataset(feats, labels.reshape(-1, 1), 1.0)
        wt = sample_weights(256, d, sigma, r.substream("w"))
        kern = discrete_kernel(ds, wt)
        lam = 1.0
        model = fit(ds, wt, lam, kernel=kern)
        pm = fit_private(
            ds, wt, lam, _VERIFY_UTILITY_K, _VERIFY_DP, _VERIFY_DP, beta,
            r.substream("priv"), enforce=False, kernel=kern,
            gamma=cfg.gamma, c_rho=cfg.c_rho,
        )
        shifted = kern.matrix.array + lam * np.eye(n)
        inv_plain = np.linalg.inv(shifted)
        inv_priv = np.linalg.inv(pm.private_kernel.array + lam * np.eye(n))
        inv_gaps.append(float(np.linalg.norm(inv_plain - inv_priv, 2)))
        rho = pm.condition_report.rho
        inv_bounds.append(inverse_gap_bound(rho, kern.eta_min, kern.eta_max, lam))
        q = _unit_rows(1, d, r.substream("q"))[0]
        pred_gaps.append(abs(float(predict(model, q)[0] - predict_private(pm, q)[0])))
        pred_bounds.append(
            regression_utility_bound(rho, kern.eta_min, kern.eta_max, lam, d, sigma, 1.0, b_l)
        )
    checks.append(
        BoundCheck(
            "inverse_gap_q95",
            10.0 * float(np.median(inv_bounds)),
            float(np.quantile(inv_gaps, 0.95)),
        )
    )
    checks.append(
        BoundCheck(
            "regression_utility_q95",
            10.0 * float(np.median(pred_bounds)),
            float(np.quantile(pred_gaps, 0.95)),
        )
    )
    return checks


def write_bound_report(checks: list[BoundCheck], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("bound,theoretical,empirical,ratio,pass\n")
        for c in checks:
            fh.write(
                f"{c.name},{c.theoretical:.6g},{c.empirical:.6g},"
                f"{c.ratio:.6g},{'pass' if c.passed else 'fail'}\n"
            )

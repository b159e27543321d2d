"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance below is fixed, nothing is calibrated at runtime.
"""

import math
import time

import numpy as np
import pytest
import scipy.stats

from dpntk.data import generate_synthetic
from dpntk.harness import ExperimentConfig, run_tradeoff
from dpntk.kernel import (
    Dataset,
    continuous_kernel,
    discrete_kernel,
    sample_weights,
)
from dpntk.linalg import SymMatrix, eigen_extremes
from dpntk.persistence import load_model, save_model
from dpntk.privacy import (
    DPParams,
    TruncLapParams,
    gaussian_sampling_mechanism,
    max_k,
    max_k_raw,
    rho_bound,
    trunc_lap_cdf,
    trunc_lap_max_abs,
    trunc_lap_samples,
    trunc_lap_width,
)
from dpntk.regression import (
    fit,
    fit_private,
    predict,
    predict_private,
    regression_utility_bound,
)
from dpntk.rng import RngStream
from dpntk.sensitivity import (
    cts_sensitivity_check,
    dis_sensitivity_check,
    entry_lipschitz_check,
    moved_rows,
    psd_sandwich_check,
)


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float, limit: float):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} [{elapsed:.1f}s] {detail}"
    print(line)
    assert ok, line
    assert elapsed < limit, f"criterion {num} exceeded its {limit:.0f}s runtime limit"


def unit_rows(n, d, seed):
    g = np.random.default_rng(seed)
    x = g.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def test_criterion_1_gsm_psd_preservation():
    t0 = time.time()
    root = RngStream(101)
    worst = 0.0
    for t in range(500):
        gen = root.substream(f"in{t}").generator()
        n = int(gen.integers(1, 11))
        m = gen.standard_normal((n, n))
        sig = SymMatrix(m @ m.T)
        for k in (1, 5, 100):
            est = gaussian_sampling_mechanism(sig, k, root.substream(f"out{t}/{k}"))
            lo, _ = eigen_extremes(est)
            scale = max(est.frob_norm(), 1e-300)
            worst = max(worst, -lo / scale)
    _report(1, "gsm-psd-preservation", worst <= 1e-10,
            f"worst normalized negative eigenvalue {worst:.3e} <= 1e-10",
            time.time() - t0, 30.0)


def test_criterion_2_kernel_closed_form():
    t0 = time.time()
    data = Dataset(unit_rows(4, 3, 2024), np.zeros((4, 1)), bound_B=1.0)
    ok = True
    details = []
    for sigma in (1.0, 2.0):
        target = continuous_kernel(data, sigma).matrix.array
        total = np.zeros((4, 4))
        root = RngStream(202).substream(f"sigma{sigma}")
        for t in range(10_000):
            w = sample_weights(1, 3, sigma, root.substream(f"d{t}"))
            total += discrete_kernel(data, w).matrix.array
        gap = np.max(np.abs(total / 10_000 - target))
        ok &= gap <= 0.05 * sigma * sigma
        details.append(f"sigma={sigma}: entrywise gap {gap:.4f} <= {0.05 * sigma * sigma}")
    w_big = sample_weights(10**5, 3, 1.0, RngStream(203))
    frob = np.linalg.norm(
        discrete_kernel(data, w_big).matrix.array - continuous_kernel(data, 1.0).matrix.array
    )
    ok &= frob <= 0.05 * 4
    details.append(f"m=1e5 Frobenius gap {frob:.4f} <= 0.2")
    _report(2, "kernel-closed-form", ok, "; ".join(details), time.time() - t0, 60.0)


def test_criterion_3_gsm_concentration():
    t0 = time.time()
    bound = 3.0 * math.sqrt(25.0 / 10**5)
    hits = 0
    for s in range(100):
        est = gaussian_sampling_mechanism(np.eye(5), 10**5, RngStream(s))
        if np.linalg.norm(est.array - np.eye(5)) <= bound:
            hits += 1
    _report(3, "gsm-concentration", hits >= 99,
            f"{hits}/100 seeds within ||Sigma_hat - I||_F <= {bound:.4f}",
            time.time() - t0, 60.0)


def test_criterion_4_truncated_laplace():
    t0 = time.time()
    width = trunc_lap_width(1.0, 1.0, 0.5)
    p = TruncLapParams(1.0, 1.0, 0.5)
    # The sampler's 10^7 draws, reduced block by block: the same max as
    # np.abs(trunc_lap_samples(p, RngStream(404), 10**7)).max(), without 80 MB.
    max_abs = trunc_lap_max_abs(p, RngStream(404), 10**7)
    ks = scipy.stats.kstest(
        trunc_lap_samples(p, RngStream(405), 10**5), lambda v: trunc_lap_cdf(p, v)
    ).statistic
    ok = width == 1.0 and max_abs <= 1.0 and ks <= 0.01
    _report(4, "truncated-laplace", ok,
            f"B_L={width!r} (exact), max|z|={max_abs:.6f} <= 1, KS={ks:.4f} <= 0.01",
            time.time() - t0, 60.0)


def test_criterion_5_sensitivity_oracle_suite():
    t0 = time.time()
    data = Dataset(unit_rows(5, 4, 505), np.zeros((5, 1)), bound_B=1.0)
    sigma, beta, trials = 1.0, 0.1, 1000
    root = RngStream(506)

    pairs = moved_rows(data, beta, trials, root, "pair")
    # Each pair's Lipschitz bound is taken at its own row distance, T = 1.
    lip_worst = max(
        c.ratio
        for row in pairs
        for c in entry_lipschitz_check(
            data, sigma, float(np.linalg.norm(row - data.features[-1])), row[None]
        )
    )
    sw = psd_sandwich_check(data, sigma, beta, pairs)
    assert sw.theoretical > 0.0  # eta_min > 0: the sandwich applies
    cts = cts_sensitivity_check(
        data, sigma, beta, moved_rows(data, beta, trials, root.substream("cts"), "trial")
    )
    w = sample_weights(10**4, 4, sigma, root.substream("w"))
    dis = dis_sensitivity_check(
        data, w, beta, moved_rows(data, beta, trials, root.substream("dis"), "trial")
    )
    ok = lip_worst <= 1.0 and sw.ratio <= 1.0 and cts.ratio <= 1.0 and dis.ratio <= 1.0
    _report(
        5, "sensitivity-oracle-suite", ok,
        f"lipschitz ratio {lip_worst:.3f}, sandwich ratio {sw.ratio:.3f}, "
        f"cts frobenius ratio {cts.ratio:.3f}, discrete (2x bound) ratio {dis.ratio:.3f}",
        time.time() - t0, 300.0,
    )


def test_criterion_6_budget_calculator():
    t0 = time.time()
    args = dict(eps=1.0, delta=2e-3, n=1000, sigma=1.0, bound_B=1.0,
                beta=1e-6, eta_min=7e-3)
    raw = max_k_raw(**args)
    k = max_k(**args)
    threshold = 8.0 * math.log(1.0 / 2e-3)
    scaled = max_k_raw(**{**args, "eps": 10.0})
    ok = (
        abs(raw - 0.986) <= 1e-3
        and raw < threshold
        and k == 0
        and scaled == pytest.approx(100.0 * raw, rel=1e-12)
    )
    _report(6, "budget-calculator", ok,
            f"raw={raw:.4f} < 8 ln(1/delta)={threshold:.1f} -> infeasible; "
            f"eps x10 scales raw by exactly 100",
            time.time() - t0, 1.0)


def test_criterion_7_utility_bound_consistency():
    t0 = time.time()
    n, d, k, beta, lam = 5, 4, 10_000, 1e-4, 1.0
    dp_x = DPParams(0.5, 1e-3)
    dp_a = DPParams(0.5, 1e-3)
    b_l = trunc_lap_width(math.sqrt(d) * beta, dp_x.epsilon, dp_x.delta)
    hits = 0
    for s in range(200):
        root = RngStream(700 + s)
        labels = np.where(root.substream("y").generator().random(n) < 0.5, -1.0, 1.0)
        data = Dataset(unit_rows(n, d, 7000 + s), labels.reshape(-1, 1), 1.0)
        w = sample_weights(128, d, 1.0, root.substream("w"))
        kern = discrete_kernel(data, w)
        model = fit(data, w, lam, kernel=kern)
        pm = fit_private(data, w, lam, k, dp_a, dp_x, beta,
                         root.substream("priv"), enforce=False, kernel=kern)
        bound = 10.0 * regression_utility_bound(
            rho_bound(n, k, 0.01, 1.0), kern.eta_min, kern.eta_max, lam, d, 1.0, 1.0, b_l,
        )
        queries = unit_rows(10, d, 7500 + s)
        gaps = [abs(predict(model, q)[0] - predict_private(pm, q)[0]) for q in queries]
        hits += int(max(gaps) <= bound)
    _report(7, "utility-bound-consistency", hits >= 190,
            f"{hits}/200 instances with all 10 query gaps <= 10x bound",
            time.time() - t0, 300.0)


def test_criterion_8_tradeoff_trend():
    t0 = time.time()
    grid = (0.3, 3.0, 30.0, 300.0, 3000.0)
    by_eps: dict[float, list] = {e: [] for e in grid}
    nonpriv = []
    for s in range(10):
        cfg = ExperimentConfig(
            seed=s, n=200, d=16, n_cls=2, m=256, lam=0.3, sigma=1.0,
            beta=1e-6, delta_total=2e-3, epsilon_grid=grid, k_cap=10**6,
            train_frac=0.5, separation=1.0, cluster_std=0.35,
        )
        table = run_tradeoff(cfg)
        nonpriv.append(table.rows[0].acc_test)
        for r in table.rows:
            if r.feasible:
                by_eps[r.epsilon].append(r.acc_test_priv)
    medians = [
        (eps, float(np.median(vals))) for eps, vals in by_eps.items() if len(vals) == 10
    ]
    assert len(medians) >= 3, f"too few fully feasible grid points: {medians}"
    monotone = all(
        b >= a - 0.03 for (_, a), (_, b) in zip(medians, medians[1:])
    )
    top_gap = float(np.median(nonpriv)) - medians[-1][1]
    ok = monotone and medians[-1][0] == grid[-1] and top_gap <= 0.05
    _report(8, "tradeoff-trend", ok,
            f"medians {[(e, round(v, 3)) for e, v in medians]}, "
            f"non-private median {np.median(nonpriv):.3f}, top gap {top_gap:.3f} <= 0.05",
            time.time() - t0, 30.0)


def test_criterion_9_determinism_and_persistence(tmp_path):
    t0 = time.time()
    cfg = ExperimentConfig(
        seed=9, n=80, d=16, n_cls=2, m=64, lam=1.0, beta=1e-6,
        epsilon_grid=(1.0, 10.0, 100.0), k_cap=3000,
        train_frac=0.5, cluster_std=0.25,
    )
    csv_a = run_tradeoff(cfg).csv_text()
    csv_b = run_tradeoff(cfg).csv_text()

    data = generate_synthetic(40, 8, 2, 1.0, RngStream(90))
    w = sample_weights(64, 8, 1.0, RngStream(91))
    pm = fit_private(data, w, 1.0, 256, DPParams(0.5, 1e-3), DPParams(0.5, 1e-3),
                     1e-5, RngStream(92), enforce=False)
    path = tmp_path / "model.bin"
    save_model(pm, str(path))
    back = load_model(str(path))
    queries = unit_rows(100, 8, 93)
    bit_identical = all(
        np.array_equal(predict_private(pm, q), predict_private(back, q)) for q in queries
    )
    ok = csv_a == csv_b and bit_identical
    _report(9, "determinism-and-persistence", ok,
            f"csv byte-identical={csv_a == csv_b}, "
            f"100-query round-trip bit-identical={bit_identical}",
            time.time() - t0, 120.0)

import math
import re

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dtrtri

from dpntk import harness, linalg
from dpntk.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    parse_config_file,
    run_tradeoff,
    verify_bounds,
    write_bound_report,
)
from dpntk.kernel import Dataset, continuous_kernel, discrete_kernel, sample_weights
from dpntk.privacy import TruncLapParams, continuous_sensitivity_psi, trunc_lap_samples
from dpntk.rng import RngStream
from dpntk.sensitivity import BoundCheck, moved_rows

SMALL = dict(
    n=80, d=16, n_cls=2, m=64, lam=1.0, beta=1e-6,
    epsilon_grid=(1.0, 10.0, 100.0), k_cap=5000,
    train_frac=0.5, cluster_std=0.25,
)


class TestExperimentConfig:
    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ExperimentConfig(seed=1, epsilon_grid=(1.0, 1.0, 2.0))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_grid_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="epsilon_grid values must be finite"):
            ExperimentConfig(seed=1, epsilon_grid=(1.0, bad))

    @pytest.mark.parametrize("name", ["beta", "sigma"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_beta_and_sigma_must_be_finite(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ExperimentConfig(seed=1, **{name: bad})

    @pytest.mark.parametrize("name", ["beta", "sigma"])
    def test_beta_and_sigma_must_be_non_negative(self, name):
        with pytest.raises(ValueError, match=f"{name} must be finite and non-negative"):
            ExperimentConfig(seed=1, **{name: -1e-6})
        assert getattr(ExperimentConfig(seed=1, **{name: 0.0}), name) == 0.0

    @pytest.mark.parametrize("name, bad, message", [
        ("gamma", 7.0, r"gamma must lie in \(0, 1\)"),
        ("gamma", 0.0, r"gamma must lie in \(0, 1\)"),
        ("c_rho", -3.0, "c_rho must be positive"),
        ("c_rho", math.nan, "c_rho must be positive"),
    ])
    def test_gamma_and_c_rho_checked_by_rho_bound(self, name, bad, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(seed=1, **{name: bad})

    def test_delta_range(self):
        with pytest.raises(ValueError, match="delta_total"):
            ExperimentConfig(seed=1, delta_total=1.5)

    def test_k_policy_checked(self):
        with pytest.raises(ValueError, match="k_policy"):
            ExperimentConfig(seed=1, k_policy="auto")
        with pytest.raises(ValueError, match="k_fixed"):
            ExperimentConfig(seed=1, k_policy="fixed")

    def test_seed_must_be_int(self):
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(seed="zero")


class TestConfigFile:
    def test_round_trip_values(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text(
            "# comment\n"
            "seed=42\n"
            "n = 120\n"
            "lam=2.5\n"
            "epsilon_grid=0.5,5,50\n"
            "normalize=false\n"
            "k_policy=fixed\n"
            "k_fixed=64\n"
        )
        vals = parse_config_file(str(p))
        assert vals == {
            "seed": 42, "n": 120, "lam": 2.5,
            "epsilon_grid": (0.5, 5.0, 50.0),
            "normalize": False, "k_policy": "fixed", "k_fixed": 64,
        }
        cfg = ExperimentConfig(**vals)
        assert cfg.k_fixed == 64

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("mystery=1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_file(str(p))

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("seed 42\n")
        with pytest.raises(ValueError, match="key=value"):
            parse_config_file(str(p))

    @pytest.mark.parametrize(
        "text, expected",
        [("1", True), ("TRUE", True), ("yes", True), ("On", True),
         ("0", False), ("false", False), ("No", False), ("off", False)],
    )
    def test_bool_spellings(self, tmp_path, text, expected):
        p = tmp_path / "cfg.txt"
        p.write_text(f"strict = {text}\n")
        assert parse_config_file(str(p)) == {"strict": expected}

    @pytest.mark.parametrize(
        "line, key",
        [("strict = ture", "strict"), ("normalize = flase", "normalize"),
         ("normalize =", "normalize"), ("epsilon_grid = 1,x", "epsilon_grid"),
         ("n = 1.5", "n"), ("lam = ten", "lam")],
    )
    def test_bad_value_names_path_and_line(self, tmp_path, line, key):
        # A misspelled bool must not silently read as False.
        p = tmp_path / "cfg.txt"
        p.write_text(f"# header\nseed = 1\n{line}\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}:3: bad value for {key}: "):
            parse_config_file(str(p))


class TestRunTradeoff:
    def test_small_sweep_structure(self):
        table = run_tradeoff(ExperimentConfig(seed=5, **SMALL))
        assert [r.epsilon for r in table.rows] == [1.0, 10.0, 100.0]
        # non-private columns constant across rows
        assert len({r.acc_train for r in table.rows}) == 1
        assert len({r.acc_test for r in table.rows}) == 1
        feasible = [r for r in table.rows if r.feasible]
        assert feasible, "expected at least one feasible row"
        for r in feasible:
            assert r.k >= 1
            assert math.isfinite(r.acc_test_priv)
            assert r.utility_bound > 0
        for r in table.rows:
            if not r.feasible:
                assert math.isnan(r.acc_test_priv)
                assert math.isnan(r.gap_median)

    def test_csv_bytes_deterministic(self, tmp_path):
        cfg = ExperimentConfig(seed=6, **SMALL)
        a = run_tradeoff(cfg).csv_text()
        b = run_tradeoff(cfg).csv_text()
        assert a == b
        assert a.splitlines()[0] == CSV_COLUMNS

    def test_output_file_written(self, tmp_path):
        out = tmp_path / "rows.csv"
        cfg = ExperimentConfig(seed=7, output_path=str(out), **SMALL)
        table = run_tradeoff(cfg)
        assert out.read_text() == table.csv_text()

    def test_rank_deficient_kernel_warns_and_skips(self):
        # d = 4 saturates at 10 quadratic features; 30 training rows exceed it.
        cfg = ExperimentConfig(
            seed=8, n=60, d=4, n_cls=2, m=32, epsilon_grid=(1.0, 10.0),
            train_frac=0.5, cluster_std=0.25,
        )
        with pytest.warns(UserWarning, match="rank deficient"):
            table = run_tradeoff(cfg)
        assert all(not r.feasible for r in table.rows)

    def test_fixed_k_policy(self):
        cfg = ExperimentConfig(
            seed=9, k_policy="fixed", k_fixed=500, **SMALL
        )
        table = run_tradeoff(cfg)
        for r in table.rows:
            if r.feasible:
                assert r.k == 500


    def test_sweep_factors_its_kernel_once(self, monkeypatch):
        # The criterion-8 config: four feasible rows release one kernel.
        cfg = ExperimentConfig(
            seed=1, n=200, d=16, n_cls=2, m=256, lam=0.3, sigma=1.0,
            beta=1e-6, delta_total=2e-3, epsilon_grid=(0.3, 3.0, 30.0, 300.0, 3000.0),
            k_cap=10**6, train_frac=0.5, separation=1.0, cluster_std=0.35,
        )
        factored = []
        original = linalg.psd_factor
        monkeypatch.setattr(linalg, "psd_factor", lambda a: factored.append(a) or original(a))
        table = run_tradeoff(cfg)
        assert sum(r.feasible for r in table.rows) == 4
        assert len(factored) == 1


class TestVerifyBounds:
    def test_psd_floor_factors_each_trial_input_once(self, monkeypatch):
        # 100 trial inputs, each released at k = 1, 5 and 100; the other 50
        # factorizations are the utility trials' private fits, one each.
        factored, released = [], []
        original = linalg.psd_factor
        monkeypatch.setattr(linalg, "psd_factor", lambda a: factored.append(a) or original(a))
        gsm = harness.gaussian_sampling_mechanism
        monkeypatch.setattr(harness, "gaussian_sampling_mechanism",
                            lambda a, k, rng: released.append(a) or gsm(a, k, rng))
        verify_bounds(ExperimentConfig(seed=1))
        floor = {id(a) for a in released}
        assert len(released) == 300 and len(floor) == 100
        assert sum(id(a) in floor for a in factored) == 100
        assert len(factored) == 150

    def test_default_config_all_pass(self):
        checks = verify_bounds(ExperimentConfig(seed=11))
        names = {c.name for c in checks}
        assert {"entry_lipschitz_offdiag", "entry_lipschitz_diag", "cts_frobenius",
                "psd_sandwich_cts", "dis_frobenius", "dis_cts_gap", "kxX_gap",
                "tlap_support", "gsm_psd_mineig", "inverse_gap_q95",
                "regression_utility_q95"} <= names
        for c in checks:
            assert c.passed, f"{c.name}: {c.empirical} > {c.theoretical}"

    @pytest.mark.parametrize("seed", [1, 2, 7919])
    def test_tlap_support_is_the_max_over_the_materialized_draws(self, seed):
        checks = {c.name: c for c in verify_bounds(ExperimentConfig(seed=seed))}
        draws = trunc_lap_samples(
            TruncLapParams(1.0, 1.0, 0.5), RngStream(seed).substream("verify").substream("tlap"),
            10**6,
        )
        want = float(np.abs(draws).max())
        got = checks["tlap_support"].empirical
        assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)

    def test_beta_zero_sensitivity_rows_are_exactly_zero(self):
        checks = {c.name: c for c in verify_bounds(ExperimentConfig(seed=11, beta=0.0))}
        for name in ("entry_lipschitz_offdiag", "entry_lipschitz_diag",
                     "cts_frobenius", "dis_frobenius", "kxX_gap", "psd_sandwich_cts"):
            assert checks[name].empirical == 0.0
            assert checks[name].passed

    def test_sensitivity_rows_match_a_per_neighbor_loop(self):
        # verify_bounds measures each sweep as one stack of neighbor kernels;
        # a literal loop, one moved row, Dataset and kernel build per
        # neighbor, is the reference, bit for bit.
        cfg = ExperimentConfig(seed=5)
        checks = {c.name: c for c in verify_bounds(cfg)}
        root = RngStream(cfg.seed).substream("verify")
        n, d = harness._VERIFY_N, harness._VERIFY_D
        data = Dataset(harness._unit_rows(n, d, root.substream("data")), np.zeros((n, 1)), 1.0)
        w = sample_weights(harness._VERIFY_M, d, cfg.sigma, root.substream("w"))

        def neighbors(rng, label):
            # The rows are pinned to a per-trial loop in test_sensitivity.
            for row in moved_rows(data, cfg.beta, harness._VERIFY_PAIRS, rng, label):
                feats = data.features.copy()
                feats[-1] = row
                yield Dataset(feats, data.labels, 1.0)

        base = continuous_kernel(data, cfg.sigma)
        h = base.matrix.array
        # The factor on the library of the LAPACK route in use.
        bundled = linalg._ROUTE != "scipy.linalg.lapack"
        factor = np.linalg.cholesky(h) if bundled else scipy.linalg.cholesky(h, lower=True)
        whiten = dtrtri(factor, lower=1)[0]
        max_off = max_diag = dev = 0.0
        for nb in neighbors(root, "pair"):
            hp = continuous_kernel(nb, cfg.sigma).matrix.array
            diff = np.abs(h - hp)
            max_off = max(max_off, float(diff[n - 1, : n - 1].max()))
            max_diag = max(max_diag, float(diff[n - 1, n - 1]))
            mid = whiten @ hp @ whiten.T
            dev = max(dev, float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (mid + mid.T)) - 1.0))))
        cts_gap = max(
            np.linalg.norm(h - continuous_kernel(nb, cfg.sigma).matrix.array)
            for nb in neighbors(root.substream("cts"), "trial")
        )
        hd = discrete_kernel(data, w).matrix.array
        dis_gap = max(
            np.linalg.norm(hd - discrete_kernel(nb, w).matrix.array)
            for nb in neighbors(root.substream("dis"), "trial")
        )
        psi = continuous_sensitivity_psi(n, cfg.sigma, 1.0, cfg.beta)
        lip = 2.0 * cfg.sigma * cfg.sigma * cfg.beta
        assert checks["entry_lipschitz_offdiag"] == BoundCheck("entry_lipschitz_offdiag", lip, max_off)
        assert checks["entry_lipschitz_diag"] == BoundCheck("entry_lipschitz_diag", 2.0 * lip, max_diag)
        assert checks["psd_sandwich_cts"] == BoundCheck("psd_sandwich_cts", psi / base.eta_min, dev)
        assert checks["cts_frobenius"] == BoundCheck("cts_frobenius", psi, cts_gap)
        assert checks["dis_frobenius"] == BoundCheck("dis_frobenius", 2.0 * psi, dis_gap)

    def test_corrupted_bound_is_detected(self):
        # Negative control: shrinking a theoretical bound by 1e3 must flip
        # the row to fail.
        checks = verify_bounds(ExperimentConfig(seed=11))
        row = next(c for c in checks if c.name == "cts_frobenius")
        corrupted = BoundCheck(row.name, row.theoretical * 1e-3, row.empirical)
        assert not corrupted.passed

    def test_report_file_format(self, tmp_path):
        checks = [BoundCheck("a", 1.0, 0.5), BoundCheck("b", 1.0, 2.0)]
        out = tmp_path / "report.csv"
        write_bound_report(checks, str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "bound,theoretical,empirical,ratio,pass"
        assert lines[1] == "a,1,0.5,0.5,pass"
        assert lines[2] == "b,1,2,2,fail"

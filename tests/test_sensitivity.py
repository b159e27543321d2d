import math

import numpy as np
import pytest

from dpntk import harness, regression, sensitivity
from dpntk import kernel as dpntk_kernel
from dpntk.kernel import Dataset, continuous_kernel, discrete_kernel, sample_weights
from dpntk.privacy import continuous_sensitivity_psi
from dpntk.rng import RngStream
from dpntk.sensitivity import (
    BoundCheck,
    NeighborPair,
    _ClosedForm,
    _checked_kernels,
    _inv_sqrt,
    _moved_rows,
    _NeighborStack,
    beta_neighbor,
    cts_sensitivity_check,
    dis_cts_gap,
    dis_sensitivity_check,
    entry_lipschitz_check,
    psd_sandwich_check,
)


def unit_data(n=5, d=4, seed=0, scale=1.0):
    g = np.random.default_rng(seed)
    x = g.standard_normal((n, d))
    x = scale * x / np.linalg.norm(x, axis=1, keepdims=True)
    return Dataset(x, np.zeros((n, 1)), bound_B=1.0)


class TestBetaNeighbor:
    def test_beta_zero_identity(self):
        data = unit_data()
        pair = beta_neighbor(data, 0.0, RngStream(1))
        np.testing.assert_array_equal(pair.base.features, pair.neighbor.features)

    def test_post_hoc_invariants(self):
        data = unit_data()
        for s in range(200):
            pair = beta_neighbor(data, 0.1, RngStream(s))
            assert pair.row_distance() <= 0.1 + 1e-12
            assert np.linalg.norm(pair.neighbor.features[-1]) <= 1.0 + 1e-12

    def test_changes_only_the_last_row(self):
        data = unit_data(n=7)
        pair = beta_neighbor(data, 0.2, RngStream(3))
        assert pair.changed_index == 6
        np.testing.assert_array_equal(pair.base.features[:6], pair.neighbor.features[:6])

    def test_pair_invariants_enforced(self):
        data = unit_data(n=3, d=2, seed=5)
        other = unit_data(n=3, d=2, seed=6)
        with pytest.raises(ValueError, match="changed row"):
            NeighborPair(base=data, neighbor=other, beta=0.1, changed_index=2)


class TestEntryLipschitz:
    def test_beta_zero_all_ratios_zero(self):
        pair = beta_neighbor(unit_data(), 0.0, RngStream(1))
        rep = entry_lipschitz_check(pair, sigma=1.0)
        assert rep.max_ratio == 0.0
        assert rep.passed

    def test_bounds_hold_over_one_thousand_pairs(self):
        data = unit_data()
        worst = 0.0
        for s in range(1000):
            pair = beta_neighbor(data, 0.1, RngStream(s).substream("lip"))
            rep = entry_lipschitz_check(pair, sigma=1.0)
            assert rep.passed
            assert rep.max_unaffected_delta == 0.0
            worst = max(worst, rep.max_ratio)
        assert worst <= 1.0

    def test_shrunk_extreme_row_is_near_tight(self):
        # x = B e1 shrunk to (1 - t) x maximizes the diagonal change:
        # ratio (1 - (1-t)^4) / (4t) -> 1 from below as t -> 0.
        d = 3
        base_feats = np.vstack([np.eye(d)[:2], np.array([1.0, 0.0, 0.0])])
        base = Dataset(base_feats, np.zeros((3, 1)), bound_B=1.0)
        t = 1e-3
        nb_feats = base_feats.copy()
        nb_feats[-1] = (1.0 - t) * nb_feats[-1]
        neighbor = Dataset(nb_feats, base.labels, 1.0)
        pair = NeighborPair(base=base, neighbor=neighbor, beta=t, changed_index=2)
        rep = entry_lipschitz_check(pair, sigma=1.0)
        assert 0.99 <= rep.diagonal.ratio <= 1.0
        assert rep.passed


class TestCtsSensitivity:
    def test_beta_zero_gap_zero(self):
        rep = cts_sensitivity_check(unit_data(), 1.0, 0.0, 10, RngStream(2))
        assert rep.frobenius.empirical == 0.0
        assert rep.passed

    def test_frobenius_bound_holds(self):
        rep = cts_sensitivity_check(unit_data(), 1.0, 0.1, 1000, RngStream(3))
        assert rep.frobenius.theoretical == pytest.approx(math.sqrt(48.0) * 0.1)
        assert rep.passed

    def test_gap_scales_linearly_in_beta(self):
        # Rows strictly inside the ball so no clipping disturbs the scaling.
        data = unit_data(scale=0.8)
        hi = cts_sensitivity_check(data, 1.0, 0.1, 300, RngStream(4))
        lo = cts_sensitivity_check(data, 1.0, 0.05, 300, RngStream(4))
        ratio = hi.frobenius.empirical / lo.frobenius.empirical
        assert abs(ratio - 2.0) <= 0.2

    def test_deterministic(self):
        a = cts_sensitivity_check(unit_data(), 1.0, 0.1, 50, RngStream(9))
        b = cts_sensitivity_check(unit_data(), 1.0, 0.1, 50, RngStream(9))
        np.testing.assert_array_equal(a.gaps, b.gaps)


class TestPsdSandwich:
    def test_whitened_spectrum_contained_over_pairs(self):
        data = unit_data()
        for s in range(300):
            pair = beta_neighbor(data, 0.1, RngStream(s).substream("sw"))
            rep = psd_sandwich_check(pair, sigma=1.0)
            assert rep.applicable
            assert rep.containment.passed

    def test_interval_positive_only_when_eta_exceeds_psi(self):
        data = unit_data()
        pair = beta_neighbor(data, 1e-6, RngStream(1))
        rep = psd_sandwich_check(pair, sigma=1.0)
        assert rep.interval_positive  # psi is tiny at beta = 1e-6
        pair_wide = beta_neighbor(data, 0.5, RngStream(1))
        rep_wide = psd_sandwich_check(pair_wide, sigma=1.0)
        assert rep_wide.psi > rep.psi


class TestDisCtsGap:
    def test_large_m_gap_small(self):
        data = unit_data(n=4, d=3, seed=8)
        w = sample_weights(10**5, 3, 1.0, RngStream(5))
        gap = dis_cts_gap(data, w, 1.0)
        assert gap <= 0.05 * 4

    def test_duplicate_rows_still_finite(self):
        feats = np.array([[0.6, 0.8], [0.6, 0.8]])
        data = Dataset(feats, np.zeros((2, 1)), 1.0)
        w = sample_weights(16, 2, 1.0, RngStream(6))
        assert math.isfinite(dis_cts_gap(data, w, 1.0))

    def test_sigma_mismatch_rejected(self):
        data = unit_data()
        w = sample_weights(8, 4, 1.0, RngStream(7))
        with pytest.raises(ValueError, match="sigma"):
            dis_cts_gap(data, w, 2.0)

    def test_median_gap_decreases_when_m_quadruples(self):
        data = unit_data(n=4, d=3, seed=9)
        gaps = {m: [] for m in (256, 1024)}
        for m in gaps:
            for s in range(50):
                w = sample_weights(m, 3, 1.0, RngStream(s).substream(f"g{m}"))
                gaps[m].append(dis_cts_gap(data, w, 1.0))
        assert np.median(gaps[1024]) < np.median(gaps[256])


class TestDisSensitivity:
    def test_beta_zero(self):
        data = unit_data()
        w = sample_weights(500, 4, 1.0, RngStream(1))
        rep = dis_sensitivity_check(data, w, 0.0, 20, RngStream(2))
        assert rep.frobenius.empirical == 0.0
        assert rep.frac_within == 1.0

    def test_slack_two_bound_mostly_holds(self):
        data = unit_data()
        w = sample_weights(10**4, 4, 1.0, RngStream(3))
        rep = dis_sensitivity_check(data, w, 0.1, 200, RngStream(4))
        assert rep.frobenius.theoretical == pytest.approx(
            2.0 * continuous_sensitivity_psi(5, 1.0, 1.0, 0.1)
        )
        assert rep.frac_within >= 0.99

    def test_sandwich_counts_consistent(self):
        data = unit_data()
        w = sample_weights(2000, 4, 1.0, RngStream(5))
        rep = dis_sensitivity_check(data, w, 0.01, 50, RngStream(6))
        assert 0 <= rep.sandwich_within <= rep.sandwich_applicable <= 50
        assert rep.sandwich_frac_within <= 1.0


class TestBoundCheck:
    def test_ratio_and_pass(self):
        assert BoundCheck("x", 2.0, 1.0).ratio == 0.5
        assert BoundCheck("x", 2.0, 1.0).passed
        assert not BoundCheck("x", 1.0, 2.0).passed

    def test_zero_bound_cases(self):
        assert BoundCheck("x", 0.0, 0.0).ratio == 0.0
        assert BoundCheck("x", 0.0, 0.0).passed
        assert BoundCheck("x", 0.0, 1.0).ratio == math.inf


def literal_whitened_deviation(h, hp, inv_sqrt):
    """One pair's whitened deviation, written out: 0 for identical kernels,
    else max |lambda - 1| of the symmetrized K^{-1/2} K' K^{-1/2}."""
    if np.array_equal(h, hp):
        return 0.0
    mid = inv_sqrt @ hp @ inv_sqrt
    return float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (mid + mid.T)) - 1.0)))


class TestStackedSweeps:
    """Each sweep is one stack of neighbor kernels; a literal loop over
    ``beta_neighbor`` pairs, one lone kernel build each, is the reference."""

    @pytest.mark.parametrize("beta", [1e-6, 0.1])
    def test_cts_gaps_equal_a_per_trial_loop(self, beta):
        data, rng = unit_data(), RngStream(21)
        h = continuous_kernel(data, 1.3).matrix.array
        literal = [
            np.linalg.norm(
                h - continuous_kernel(beta_neighbor(data, beta, rng.substream(f"trial{t}")).neighbor, 1.3).matrix.array
            )
            for t in range(60)
        ]
        rep = cts_sensitivity_check(data, 1.3, beta, 60, rng)
        assert rep.gaps.tobytes() == np.array(literal).tobytes()
        assert rep.frobenius.empirical == max(literal)

    @pytest.mark.parametrize("beta, applicable", [(1e-6, True), (0.1, False)])
    def test_dis_report_equals_a_per_trial_loop(self, beta, applicable):
        # beta = 0.1 clips moved rows back into the unit ball, and psi exceeds
        # eta_min there, so the sandwich is inapplicable.
        data, rng = unit_data(), RngStream(22)
        w = sample_weights(4096, 4, 1.0, RngStream(23))
        base = discrete_kernel(data, w)
        h, eta_min = base.matrix.array, base.eta_min
        psi = continuous_sensitivity_psi(5, 1.0, 1.0, beta)
        assert (eta_min > psi) == applicable
        inv_sqrt = _inv_sqrt(h)
        gaps, within = [], 0
        for t in range(60):
            pair = beta_neighbor(data, beta, rng.substream(f"trial{t}"))
            hp = discrete_kernel(pair.neighbor, w).matrix.array
            gaps.append(np.linalg.norm(h - hp))
            if applicable:
                within += literal_whitened_deviation(h, hp, inv_sqrt) <= psi / eta_min
        rep = dis_sensitivity_check(data, w, beta, 60, rng)
        assert rep.gaps.tobytes() == np.array(gaps).tobytes()
        assert rep.frac_within == float(np.mean(np.array(gaps) <= 2.0 * psi))
        assert rep.sandwich_applicable == (60 if applicable else 0)
        assert rep.sandwich_within == within

    @pytest.mark.parametrize("beta", [1e-6, 0.1])
    def test_pair_sweep_equals_a_per_trial_loop(self, beta):
        data, rng = unit_data(), RngStream(24)
        base = _ClosedForm(data, 1.0)
        h, inv_sqrt = base.h, base.inv_sqrt
        off = diag = unaffected = dev = 0.0
        for t in range(60):
            pair = beta_neighbor(data, beta, rng.substream(f"pair{t}"))
            hp = continuous_kernel(pair.neighbor, 1.0).matrix.array
            diff = np.abs(h - hp)
            off = max(off, float(diff[4, :4].max()))
            diag = max(diag, float(diff[4, 4]))
            unaffected = max(unaffected, float(diff[:4, :4].max()))
            dev = max(dev, literal_whitened_deviation(h, hp, inv_sqrt))
        rows = _moved_rows(data, beta, 60, rng, "pair")
        lip, sw = base.sweep(beta, 4, rows, beta, sandwich=True)
        assert (lip.off_diagonal.empirical, lip.diagonal.empirical) == (off, diag)
        assert lip.max_unaffected_delta == unaffected == 0.0
        assert sw.applicable and sw.containment.empirical == dev

    def test_moved_rows_are_the_beta_neighbor_rows(self):
        data, rng = unit_data(n=7), RngStream(25)
        rows = _moved_rows(data, 0.3, 20, rng, "trial")
        for t in range(20):
            pair = beta_neighbor(data, 0.3, rng.substream(f"trial{t}"))
            assert rows[t].tobytes() == pair.neighbor.features[6].tobytes()

    def test_forced_chunk_boundaries_give_the_same_reports(self, monkeypatch):
        data = unit_data()
        w = sample_weights(500, 4, 1.0, RngStream(26))

        def reports():
            cts = cts_sensitivity_check(data, 1.0, 1e-3, 23, RngStream(27))
            dis = dis_sensitivity_check(data, w, 1e-6, 23, RngStream(28))
            rows = _moved_rows(data, 1e-3, 23, RngStream(29), "pair")
            lip, sw = _ClosedForm(data, 1.0).sweep(1e-3, 4, rows, 1e-3, sandwich=True)
            return (cts.gaps.tobytes(), repr(cts.frobenius), dis.gaps.tobytes(), dis.frac_within,
                    dis.sandwich_within, repr(lip), repr(sw))

        whole = reports()
        for entries in (1, 3 * 25):  # one trial per chunk; chunks of 3 with a short tail
            monkeypatch.setattr(sensitivity, "_STACK_ENTRIES", entries)
            assert reports() == whole


class TestNeighborStackValidation:
    """The stack refuses, with the per-pair messages, every neighbor that
    ``Dataset`` or ``NeighborPair`` would refuse."""

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            (lambda x: x * (1.001 / np.linalg.norm(x)), "exceeds bound_B"),
            (lambda x: 0.9 * x, "farther apart than beta"),
            (lambda x: np.where(np.arange(len(x)) == 1, np.nan, x), "features and labels must be finite"),
        ],
    )
    def test_bad_moved_row_raises(self, monkeypatch, bad_row, message):
        data = unit_data()
        w = sample_weights(64, 4, 1.0, RngStream(30))
        real = sensitivity._moved_row

        def moved(data, beta, rng):
            row = real(data, beta, rng)
            return bad_row(row) if rng.path[-1] == "trial13" else row

        monkeypatch.setattr(sensitivity, "_moved_row", moved)
        with pytest.raises(ValueError, match=message):
            cts_sensitivity_check(data, 1.0, 0.01, 20, RngStream(31))
        with pytest.raises(ValueError, match=message):
            dis_sensitivity_check(data, w, 0.01, 20, RngStream(31))

    def test_changed_unchanged_row_raises(self):
        data = unit_data()
        feats = np.repeat(data.features[None], 3, axis=0)
        feats[1, 0] = unit_data(seed=1).features[0]
        with pytest.raises(ValueError, match="changed row"):
            _NeighborStack(data, 0.1, 4, feats)

    def test_asymmetric_kernel_stack_raises(self):
        hp = np.repeat(np.eye(3)[None], 2, axis=0)
        hp[1, 0, 2] = np.nextafter(0.0, 1.0)
        with pytest.raises(ValueError, match="exactly symmetric"):
            _checked_kernels(hp)


def test_verify_bounds_builds_two_closed_form_and_52_discrete_kernels(monkeypatch):
    # The pair, cts and dis sweeps build stacks, never a pair or a lone
    # neighbor kernel: continuous_kernel runs for the base and the dis/cts
    # gap, discrete_kernel for the dis base, the gap and 50 utility trials.
    counts = {}
    for name, func in (("beta_neighbor", beta_neighbor), ("continuous_kernel", continuous_kernel),
                       ("discrete_kernel", discrete_kernel)):
        def counted(*args, _func=func, _name=name, **kwargs):
            counts[_name] += 1
            return _func(*args, **kwargs)

        counts[name] = 0
        for mod in (dpntk_kernel, sensitivity, harness, regression):
            if getattr(mod, name, None) is func:
                monkeypatch.setattr(mod, name, counted)
    harness.verify_bounds(harness.ExperimentConfig(seed=1))
    assert counts == {"beta_neighbor": 0, "continuous_kernel": 2, "discrete_kernel": 52}

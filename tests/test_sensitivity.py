import math

import numpy as np
import pytest
from scipy.linalg.lapack import dtrtri

from dpntk import harness, regression, sensitivity
from dpntk import kernel as dpntk_kernel
from dpntk.kernel import Dataset, continuous_kernel, discrete_kernel, sample_weights
from dpntk.privacy import continuous_sensitivity_psi
from dpntk.rng import RngStream
from dpntk.sensitivity import (
    BoundCheck,
    _neighbor_kernels,
    cts_sensitivity_check,
    dis_cts_gap,
    dis_sensitivity_check,
    entry_lipschitz_check,
    moved_rows,
    psd_sandwich_check,
)


def unit_data(n=5, d=4, seed=0, scale=1.0):
    g = np.random.default_rng(seed)
    x = g.standard_normal((n, d))
    x = scale * x / np.linalg.norm(x, axis=1, keepdims=True)
    return Dataset(x, np.zeros((n, 1)), bound_B=1.0)


class TestMovedRows:
    def test_beta_zero_returns_the_row(self):
        data = unit_data()
        rows = moved_rows(data, 0.0, 3, RngStream(1), "pair")
        np.testing.assert_array_equal(rows, np.repeat(data.features[-1:], 3, axis=0))

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_refused_before_any_draw(self, beta, monkeypatch):
        # A NaN beta used to return unmoved rows and an infinite one NaN rows.
        def never(stream):
            raise AssertionError("drew a moved row")

        monkeypatch.setattr(RngStream, "generator", never)
        with pytest.raises(ValueError, match="beta must be finite and non-negative"):
            moved_rows(unit_data(), beta, 3, RngStream(1), "trial")

    def test_rows_stay_within_beta_and_the_ball(self):
        data = unit_data()
        rows = moved_rows(data, 0.1, 200, RngStream(0), "pair")
        assert np.all(np.linalg.norm(rows - data.features[-1], axis=1) <= 0.1 + 1e-12)
        assert np.all(np.linalg.norm(rows, axis=1) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("beta", [0.0, 1e-6, 0.1, 0.3, 2.0])
    def test_row_t_is_the_draw_of_trial_stream_t(self, beta):
        data, rng = unit_data(n=7), RngStream(25)
        rows = moved_rows(data, beta, 40, rng, "trial")
        literal = [literal_moved_row(data, beta, rng.substream(f"trial{t}")) for t in range(40)]
        assert rows.tobytes() == np.array(literal).tobytes()
        if beta == 2.0:  # many moved rows leave the unit ball and are clipped back onto it
            assert np.isclose(np.linalg.norm(rows, axis=1), 1.0, rtol=1e-12, atol=0.0).sum() >= 10

    def test_neighbors_change_only_the_last_row(self):
        data = unit_data(n=7)
        rows = moved_rows(data, 0.2, 4, RngStream(3), "pair")
        stacks = []

        def gram(feats):
            stacks.append(feats)
            return np.einsum("tid,tjd->tij", feats, feats, optimize=False)

        list(_neighbor_kernels(data, 0.2, rows, gram))
        (feats,) = stacks
        np.testing.assert_array_equal(feats[:, :6], np.repeat(data.features[None, :6], 4, axis=0))
        np.testing.assert_array_equal(feats[:, 6], rows)


class TestEntryLipschitz:
    def test_beta_zero_all_ratios_zero(self):
        data = unit_data()
        checks = entry_lipschitz_check(data, 1.0, 0.0, moved_rows(data, 0.0, 5, RngStream(1), "pair"))
        assert [c.name for c in checks] == ["entry_lipschitz_offdiag", "entry_lipschitz_diag"]
        assert all(c.ratio == 0.0 and c.passed for c in checks)

    def test_bounds_hold_over_one_thousand_neighbors(self):
        data = unit_data()
        checks = entry_lipschitz_check(data, 1.0, 0.1, moved_rows(data, 0.1, 1000, RngStream(0), "lip"))
        assert all(c.passed for c in checks)
        assert max(c.ratio for c in checks) <= 1.0

    def test_shrunk_extreme_row_is_near_tight(self):
        # x = B e1 shrunk to (1 - t) x maximizes the diagonal change:
        # ratio (1 - (1-t)^4) / (4t) -> 1 from below as t -> 0.
        d = 3
        base_feats = np.vstack([np.eye(d)[:2], np.array([1.0, 0.0, 0.0])])
        base = Dataset(base_feats, np.zeros((3, 1)), bound_B=1.0)
        t = 1e-3
        off, diag = entry_lipschitz_check(base, 1.0, t, ((1.0 - t) * base_feats[-1])[None])
        assert 0.99 <= diag.ratio <= 1.0
        assert off.passed and diag.passed


class TestCtsSensitivity:
    def test_beta_zero_gap_zero(self):
        data = unit_data()
        check = cts_sensitivity_check(data, 1.0, 0.0, moved_rows(data, 0.0, 10, RngStream(2), "trial"))
        assert check.empirical == 0.0
        assert check.passed

    def test_frobenius_bound_holds(self):
        data = unit_data()
        check = cts_sensitivity_check(data, 1.0, 0.1, moved_rows(data, 0.1, 1000, RngStream(3), "trial"))
        assert check.theoretical == pytest.approx(math.sqrt(48.0) * 0.1)
        assert check.passed

    def test_gap_scales_linearly_in_beta(self):
        # Rows strictly inside the ball so no clipping disturbs the scaling.
        data = unit_data(scale=0.8)
        hi = cts_sensitivity_check(data, 1.0, 0.1, moved_rows(data, 0.1, 300, RngStream(4), "trial"))
        lo = cts_sensitivity_check(data, 1.0, 0.05, moved_rows(data, 0.05, 300, RngStream(4), "trial"))
        assert abs(hi.empirical / lo.empirical - 2.0) <= 0.2

    def test_deterministic(self):
        def check():
            data = unit_data()
            return cts_sensitivity_check(data, 1.0, 0.1, moved_rows(data, 0.1, 50, RngStream(9), "trial"))

        assert check() == check()


class TestPsdSandwich:
    def test_whitened_spectrum_contained_over_neighbors(self):
        data = unit_data()
        check = psd_sandwich_check(data, 1.0, 0.1, moved_rows(data, 0.1, 300, RngStream(0), "sw"))
        assert check.name == "psd_sandwich_cts"
        assert 0.0 < check.theoretical < math.inf
        assert check.passed

    def test_base_potrf_refuses_fails_against_the_bound(self, monkeypatch):
        # eta_min > 0 yet potrf refuses K (as on duplicate rows, where eta_min
        # is a rounding residue): no whitening is measured, so the row fails.
        data = unit_data()
        eta_min = continuous_kernel(data, 1.0).eta_min
        assert eta_min > 0.0

        def refuse(arr, overwrite=False):
            raise sensitivity.NotPositiveDefiniteError("refused")

        monkeypatch.setattr(sensitivity, "_cholesky", refuse)
        check = psd_sandwich_check(data, 1.0, 0.1, moved_rows(data, 0.1, 5, RngStream(1), "pair"))
        psi = continuous_sensitivity_psi(data.n, 1.0, data.bound_B, 0.1)
        assert check == BoundCheck("psd_sandwich_cts", psi / eta_min, math.inf)
        assert not check.passed

    def test_singular_base_reads_zero_against_zero(self):
        # A zero row makes eta_min exactly 0: there is no K^{-1/2}.
        data = Dataset(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.zeros((3, 1)), 1.0)
        assert continuous_kernel(data, 1.0).eta_min == 0.0
        check = psd_sandwich_check(data, 1.0, 0.1, moved_rows(data, 0.1, 5, RngStream(1), "pair"))
        assert check == BoundCheck("psd_sandwich_cts", 0.0, 0.0)


class TestDisCtsGap:
    def test_large_m_gap_small(self):
        data = unit_data(n=4, d=3, seed=8)
        w = sample_weights(10**5, 3, 1.0, RngStream(5))
        gap = dis_cts_gap(data, w)
        assert gap <= 0.05 * 4

    def test_duplicate_rows_still_finite(self):
        feats = np.array([[0.6, 0.8], [0.6, 0.8]])
        data = Dataset(feats, np.zeros((2, 1)), 1.0)
        w = sample_weights(16, 2, 1.0, RngStream(6))
        assert math.isfinite(dis_cts_gap(data, w))

    def test_gap_is_taken_at_the_weights_sigma(self):
        data = unit_data(n=4, d=3, seed=8)
        w = sample_weights(64, 3, 2.0, RngStream(7))
        hd = discrete_kernel(data, w).matrix.array
        assert dis_cts_gap(data, w) == float(np.linalg.norm(hd - continuous_kernel(data, 2.0).matrix.array))
        assert dis_cts_gap(data, w) != float(np.linalg.norm(hd - continuous_kernel(data, 1.0).matrix.array))

    def test_median_gap_decreases_when_m_quadruples(self):
        data = unit_data(n=4, d=3, seed=9)
        gaps = {m: [] for m in (256, 1024)}
        for m in gaps:
            for s in range(50):
                w = sample_weights(m, 3, 1.0, RngStream(s).substream(f"g{m}"))
                gaps[m].append(dis_cts_gap(data, w))
        assert np.median(gaps[1024]) < np.median(gaps[256])


class TestDisSensitivity:
    def test_beta_zero(self):
        data = unit_data()
        w = sample_weights(500, 4, 1.0, RngStream(1))
        check = dis_sensitivity_check(data, w, 0.0, moved_rows(data, 0.0, 20, RngStream(2), "trial"))
        assert check.empirical == 0.0
        assert check.passed

    def test_slack_two_bound_holds(self):
        data = unit_data()
        w = sample_weights(10**4, 4, 1.0, RngStream(3))
        check = dis_sensitivity_check(data, w, 0.1, moved_rows(data, 0.1, 200, RngStream(4), "trial"))
        assert check.theoretical == pytest.approx(
            2.0 * continuous_sensitivity_psi(5, 1.0, 1.0, 0.1)
        )
        assert check.ratio <= 1.0


class TestBoundCheck:
    def test_ratio_and_pass(self):
        assert BoundCheck("x", 2.0, 1.0).ratio == 0.5
        assert BoundCheck("x", 2.0, 1.0).passed
        assert not BoundCheck("x", 1.0, 2.0).passed

    def test_zero_bound_cases(self):
        assert BoundCheck("x", 0.0, 0.0).ratio == 0.0
        assert BoundCheck("x", 0.0, 0.0).passed
        assert BoundCheck("x", 0.0, 1.0).ratio == math.inf


def literal_moved_row(data, beta, rng):
    """One trial of ``moved_rows``, written out as a per-trial loop body: the
    last row moved by a uniform draw in the beta-ball from the "neighbor"
    substream, clipped into the B-ball."""
    x = data.features[data.n - 1]
    if not beta > 0:
        return x.copy()
    gen = rng.substream("neighbor").generator()
    direction = gen.standard_normal(data.dim)
    direction = direction / np.linalg.norm(direction)
    radius = beta * gen.random() ** (1.0 / data.dim)
    moved = x + radius * direction
    moved_norm = np.linalg.norm(moved)
    if moved_norm > data.bound_B:
        moved = moved * (data.bound_B / moved_norm)
    return moved


def literal_neighbor(data, beta, rng):
    """``data`` with its last row moved by ``literal_moved_row``, as one ``Dataset``."""
    feats = data.features.copy()
    feats[-1] = literal_moved_row(data, beta, rng)
    return Dataset(feats, data.labels, data.bound_B)


def inverse_cholesky(h):
    """L^{-1} for K = L L^T: numpy's Cholesky factor, inverted by LAPACK trtri."""
    return dtrtri(np.linalg.cholesky(h), lower=1)[0]


def literal_whitened_deviation(h, hp):
    """One pair's whitened deviation, written out: 0 for identical kernels,
    else max |lambda - 1| of the symmetrized L^{-1} K' L^{-T}, K = L L^T."""
    if np.array_equal(h, hp):
        return 0.0
    whiten = inverse_cholesky(h)
    mid = whiten @ hp @ whiten.T
    return float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (mid + mid.T)) - 1.0)))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("beta", [1e-6, 1e-3, 0.1])
def test_cholesky_whitening_agrees_with_the_eigen_root(seed, beta):
    # L^{-1} K' L^{-T} = Q^T K^{-1/2} K' K^{-1/2} Q with Q orthogonal: the
    # same spectrum, so the deviations agree up to rounding on verify's pairs.
    # The deviation is max |lambda - 1|, and both whitenings round lambda at
    # its own scale, about 1: relative to the deviation alone, a 1e-6 one
    # differs by up to 4e-10 here.
    root = RngStream(seed).substream("verify")
    n, d = harness._VERIFY_N, harness._VERIFY_D
    data = Dataset(harness._unit_rows(n, d, root.substream("data")), np.zeros((n, 1)), 1.0)
    rows = moved_rows(data, beta, harness._VERIFY_PAIRS, root, "pair")
    h = continuous_kernel(data, 1.0).matrix.array
    w, v = np.linalg.eigh(h)
    inv_sqrt = (v / np.sqrt(w)) @ v.T
    root_dev = 0.0
    for row in rows:
        feats = data.features.copy()
        feats[-1] = row
        hp = continuous_kernel(Dataset(feats, data.labels, 1.0), 1.0).matrix.array
        mid = inv_sqrt @ hp @ inv_sqrt
        root_dev = max(root_dev, float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (mid + mid.T)) - 1.0))))
    dev = psd_sandwich_check(data, 1.0, beta, rows).empirical
    assert root_dev > 0.0
    assert abs(dev - root_dev) <= 1e-12 * (1.0 + root_dev)


class TestStackedSweeps:
    """Each oracle measures one stack of neighbor kernels; a literal loop of
    ``literal_moved_row``, ``Dataset`` and one lone kernel build per neighbor is the
    reference, bit for bit."""

    @pytest.mark.parametrize("beta", [1e-6, 0.1])
    def test_cts_check_equals_a_per_trial_loop(self, beta):
        data, rng = unit_data(), RngStream(21)
        h = continuous_kernel(data, 1.3).matrix.array
        gap = max(
            np.linalg.norm(h - continuous_kernel(literal_neighbor(data, beta, rng.substream(f"trial{t}")), 1.3).matrix.array)
            for t in range(60)
        )
        check = cts_sensitivity_check(data, 1.3, beta, moved_rows(data, beta, 60, rng, "trial"))
        assert check == BoundCheck("cts_frobenius", continuous_sensitivity_psi(5, 1.3, 1.0, beta), gap)

    @pytest.mark.parametrize("beta", [1e-6, 0.1])
    def test_dis_check_equals_a_per_trial_loop(self, beta):
        # beta = 0.1 clips moved rows back into the unit ball.
        data, rng = unit_data(), RngStream(22)
        w = sample_weights(4096, 4, 1.0, RngStream(23))
        h = discrete_kernel(data, w).matrix.array
        gap = max(
            np.linalg.norm(h - discrete_kernel(literal_neighbor(data, beta, rng.substream(f"trial{t}")), w).matrix.array)
            for t in range(60)
        )
        check = dis_sensitivity_check(data, w, beta, moved_rows(data, beta, 60, rng, "trial"))
        assert check == BoundCheck("dis_frobenius", 2.0 * continuous_sensitivity_psi(5, 1.0, 1.0, beta), gap)

    @pytest.mark.parametrize("beta", [1e-6, 0.1])
    def test_lipschitz_and_sandwich_checks_equal_a_per_pair_loop(self, beta):
        data, rng = unit_data(), RngStream(24)
        base = continuous_kernel(data, 1.0)
        h = base.matrix.array
        off = diag = dev = 0.0
        for t in range(60):
            hp = continuous_kernel(literal_neighbor(data, beta, rng.substream(f"pair{t}")), 1.0).matrix.array
            diff = np.abs(h - hp)
            off = max(off, float(diff[4, :4].max()))
            diag = max(diag, float(diff[4, 4]))
            dev = max(dev, literal_whitened_deviation(h, hp))
        rows = moved_rows(data, beta, 60, rng, "pair")
        assert entry_lipschitz_check(data, 1.0, beta, rows) == [
            BoundCheck("entry_lipschitz_offdiag", 2.0 * beta, off),
            BoundCheck("entry_lipschitz_diag", 4.0 * beta, diag),
        ]
        psi = continuous_sensitivity_psi(5, 1.0, 1.0, beta)
        assert psd_sandwich_check(data, 1.0, beta, rows) == BoundCheck("psd_sandwich_cts", psi / base.eta_min, dev)

    def test_forced_chunk_boundaries_give_the_same_checks(self, monkeypatch):
        data = unit_data()
        w = sample_weights(500, 4, 1.0, RngStream(26))
        pairs = moved_rows(data, 1e-3, 23, RngStream(29), "pair")

        def checks():
            return (
                cts_sensitivity_check(data, 1.0, 1e-3, moved_rows(data, 1e-3, 23, RngStream(27), "trial")),
                dis_sensitivity_check(data, w, 1e-6, moved_rows(data, 1e-6, 23, RngStream(28), "trial")),
                entry_lipschitz_check(data, 1.0, 1e-3, pairs),
                psd_sandwich_check(data, 1.0, 1e-3, pairs),
            )

        whole = checks()
        for entries in (1, 3 * 25):  # one trial per chunk; chunks of 3 with a short tail
            monkeypatch.setattr(sensitivity, "_STACK_ENTRIES", entries)
            assert checks() == whole


class TestNeighborStackValidation:
    """The stack refuses, with the ``Dataset`` messages, every neighbor that
    is not a beta-close change of the last row inside the B-ball."""

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            (lambda x: x * (1.001 / np.linalg.norm(x)), "exceeds bound_B"),
            (lambda x: 0.9 * x, "farther apart than beta"),
            (lambda x: np.where(np.arange(len(x)) == 1, np.nan, x), "features and labels must be finite"),
        ],
    )
    def test_bad_moved_row_raises(self, bad_row, message):
        data = unit_data()
        w = sample_weights(64, 4, 1.0, RngStream(30))
        rows = moved_rows(data, 0.01, 20, RngStream(31), "trial")
        rows[13] = bad_row(rows[13])
        for oracle in (entry_lipschitz_check, psd_sandwich_check, cts_sensitivity_check):
            with pytest.raises(ValueError, match=message):
                oracle(data, 1.0, 0.01, rows)
        with pytest.raises(ValueError, match=message):
            dis_sensitivity_check(data, w, 0.01, rows)

    def test_overflowing_row_refused_with_the_dataset_message(self):
        # Finite entries whose squares overflow: the row check Dataset runs
        # names the row, instead of comparing an inf norm with the bound.
        data = unit_data()
        rows = moved_rows(data, 0.01, 3, RngStream(31), "trial")
        rows[1] = 1e200
        with pytest.raises(ValueError) as dataset_err:
            Dataset(rows, np.zeros((3, 1)), bound_B=1.0)
        with pytest.raises(ValueError) as stack_err:
            list(_neighbor_kernels(data, 0.01, rows, lambda f: f))
        assert str(stack_err.value) == str(dataset_err.value)
        assert str(stack_err.value) == "row 1: norm is not finite (its squares overflow)"

    def test_rows_of_another_width_raise(self):
        # (T, 1) rows would broadcast across the last row's d entries.
        data = unit_data()
        rows = moved_rows(data, 0.01, 20, RngStream(31), "trial")
        with pytest.raises(ValueError, match="identical shape"):
            cts_sensitivity_check(data, 1.0, 0.01, rows[:, :1])

    def test_another_dataset_is_not_a_neighbor(self):
        # Another dataset's rows are not beta-close moves of the base's last row.
        data = unit_data(n=3, d=2, seed=5)
        other = unit_data(n=3, d=2, seed=6)
        with pytest.raises(ValueError, match="farther apart than beta"):
            cts_sensitivity_check(data, 1.0, 0.1, other.features)

    def test_asymmetric_kernel_stack_raises(self):
        data = unit_data(n=3)
        rows = moved_rows(data, 0.01, 2, RngStream(32), "trial")

        def lopsided(feats):
            hp = np.repeat(np.eye(3)[None], len(feats), axis=0)
            hp[1, 0, 2] = np.nextafter(0.0, 1.0)
            return hp

        with pytest.raises(ValueError, match="exactly symmetric"):
            list(_neighbor_kernels(data, 0.01, rows, lopsided))


def test_verify_bounds_builds_four_closed_form_and_52_discrete_kernels(monkeypatch):
    # The oracles build stacks, never a lone neighbor kernel: continuous_kernel
    # runs for the Lipschitz, sandwich and cts bases and the dis/cts gap,
    # discrete_kernel for the dis base, the gap and 50 utility trials.
    counts = {}
    for name, func in (("continuous_kernel", continuous_kernel), ("discrete_kernel", discrete_kernel)):
        def counted(*args, _func=func, _name=name, **kwargs):
            counts[_name] += 1
            return _func(*args, **kwargs)

        counts[name] = 0
        for mod in (dpntk_kernel, sensitivity, harness, regression):
            if getattr(mod, name, None) is func:
                monkeypatch.setattr(mod, name, counted)
    harness.verify_bounds(harness.ExperimentConfig(seed=1))
    assert counts == {"continuous_kernel": 4, "discrete_kernel": 52}

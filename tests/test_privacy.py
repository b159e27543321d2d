import collections
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.blas
import scipy.stats

import dpntk.linalg as linalg_module
import dpntk.privacy as privacy_module
from dpntk.harness import ExperimentConfig, verify_bounds
from dpntk.kernel import Dataset, sample_weights
from dpntk.linalg import NotPSDError, SymMatrix, eigen_extremes, psd_factor
from dpntk.privacy import (
    _TLAP_BLOCK,
    ConditionReport,
    DPParams,
    TruncLapParams,
    check_dp_conditions,
    compose,
    continuous_sensitivity_psi,
    delta_budget,
    feature_noise_width,
    gaussian_sampling_mechanism,
    max_k,
    max_k_raw,
    max_k_refusal,
    privatize_dataset,
    rho_bound,
    trunc_lap_cdf,
    trunc_lap_max_abs,
    trunc_lap_samples,
    trunc_lap_width,
)
from dpntk.regression import fit_private
from dpntk.rng import RngStream, _label_word

# A fixed orthogonal basis for non-diagonal test covariances.
ROTATION_4 = np.linalg.qr(np.random.default_rng(17).standard_normal((4, 4)))[0]


class TestDPParams:
    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, -math.inf])
    def test_epsilon_must_be_positive(self, eps):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            DPParams(eps, 1e-3)

    def test_epsilon_must_be_finite(self):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            DPParams(math.inf, 1e-3)


class TestTruncLapWidth:
    def test_unit_case_is_exactly_one(self):
        # (1, 1, 0.5): ln(1 + (e - 1)/1) = ln(e) = 1
        assert trunc_lap_width(1.0, 1.0, 0.5) == 1.0

    def test_log_two_case(self):
        assert trunc_lap_width(1.0, 1.0, (math.e - 1.0) / 2.0) == pytest.approx(
            math.log(2.0), rel=1e-12
        )

    def test_numeric_closed_form(self):
        expected = 4.0 * math.log(1.0 + (math.exp(0.5) - 1.0) / 0.2)
        got = trunc_lap_width(2.0, 0.5, 0.1)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(5.781654, abs=1e-5)

    def test_delta_zero_rejected(self):
        with pytest.raises(ValueError, match="unbounded"):
            trunc_lap_width(1.0, 1.0, 0.0)

    def test_infinite_epsilon_rejected(self):
        # (sens / eps) * ln(...) would be 0 * inf = nan.
        with pytest.raises(ValueError, match="epsilon must be finite"):
            trunc_lap_width(1.0, math.inf, 1e-3)

    def test_params_object_carries_width(self):
        p = TruncLapParams(2.0, 0.5, 0.1)
        assert p.width_BL == trunc_lap_width(2.0, 0.5, 0.1)
        assert p.scale == 4.0

    def test_width_is_derived_not_passed(self):
        with pytest.raises(TypeError, match="width_BL"):
            TruncLapParams(1.0, 1.0, 0.5, width_BL=99.0)


class TestTruncLapSampling:
    def test_cdf_median_is_zero(self):
        p = TruncLapParams(1.0, 1.0, 0.5)
        assert trunc_lap_cdf(p, 0.0) == pytest.approx(0.5)

    def test_median_quantile_maps_to_zero(self):
        from dpntk.privacy import _inverse_cdf

        p = TruncLapParams(1.0, 1.0, 0.5)
        assert float(_inverse_cdf(p, np.asarray(0.5))) == 0.0

    @pytest.mark.parametrize("sens, eps, delta", [(1.0, 1.0, 0.5), (0.3, 2.0, 1e-3), (5.0, 0.5, 0.2)])
    def test_inverse_cdf_is_the_literal_formula(self, sens, eps, delta):
        from dpntk.privacy import _inverse_cdf

        p = TruncLapParams(sens, eps, delta)
        u = np.random.default_rng(6).random(10**5)
        u[:6] = [0.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 1e-300, 1.0 - 2**-53]
        lam = p.scale
        c = math.exp(-p.width_BL / lam)
        t = c + 2.0 * (1.0 - c) * np.minimum(u, 1.0 - u)
        magnitude = -lam * np.log(t)
        literal = np.clip(np.where(u < 0.5, -magnitude, magnitude), -p.width_BL, p.width_BL)
        # Bit patterns, so a zero of the wrong sign (u = 0.5 gives -0.0) fails.
        bits = literal.view(np.uint64)
        assert np.array_equal(_inverse_cdf(p, u).view(np.uint64), bits)
        assert np.array_equal(
            _inverse_cdf(p, u.reshape(100, 1000)).view(np.uint64), bits.reshape(100, 1000)
        )

    def test_support_and_symmetry(self):
        p = TruncLapParams(1.0, 1.0, 0.5)
        z = trunc_lap_samples(p, RngStream(3), 10**6)
        assert np.abs(z).max() <= 1.0
        assert abs(z.mean()) <= 0.005

    def test_kolmogorov_smirnov_against_analytic_cdf(self):
        p = TruncLapParams(1.0, 1.0, 0.5)
        z = trunc_lap_samples(p, RngStream(4), 10**5)
        stat = scipy.stats.kstest(z, lambda v: trunc_lap_cdf(p, v)).statistic
        assert stat <= 0.01

    def test_single_draw_deterministic(self):
        p = TruncLapParams(1.0, 2.0, 0.1)
        for shape in ((), (7,), (3, 4)):
            a = trunc_lap_samples(p, RngStream(5), shape)
            assert a.shape == shape
            assert np.array_equal(a, trunc_lap_samples(p, RngStream(5), shape))

    @pytest.mark.parametrize(
        "shape",
        [0, 1, _TLAP_BLOCK - 1, _TLAP_BLOCK, _TLAP_BLOCK + 1, 3 * _TLAP_BLOCK + 7, 10**6,
         (), (2, 3), (400, 32), (7, 5, 3)],
    )
    def test_blocks_are_one_draw_bit_for_bit(self, shape):
        from dpntk.privacy import _inverse_cdf

        p = TruncLapParams(0.3, 2.0, 1e-3)
        u = RngStream(8).substream("tlap").generator().random(shape)
        literal = np.asarray(_inverse_cdf(p, u))
        got = trunc_lap_samples(p, RngStream(8), shape)
        assert got.shape == literal.shape
        assert np.array_equal(got.view(np.uint64), literal.view(np.uint64))

    @pytest.mark.parametrize(
        "size", [0, 1, _TLAP_BLOCK - 1, _TLAP_BLOCK, _TLAP_BLOCK + 1, 3 * _TLAP_BLOCK + 7, 10**6]
    )
    def test_max_abs_is_the_max_over_the_release_bit_for_bit(self, size):
        p = TruncLapParams(0.3, 2.0, 1e-3)
        draws = trunc_lap_samples(p, RngStream(8), size)
        want = float(np.abs(draws).max()) if size else 0.0
        got = trunc_lap_max_abs(p, RngStream(8), size)
        assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)

    def test_cdf_limits(self):
        p = TruncLapParams(1.0, 1.0, 0.5)
        assert trunc_lap_cdf(p, -1.0) == 0.0
        assert trunc_lap_cdf(p, 1.0) == 1.0


class TestPrivatizeDataset:
    def _data(self, n=5, d=4, seed=0):
        g = np.random.default_rng(seed)
        x = g.standard_normal((n, d))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        return Dataset(x, np.zeros((n, 1)), bound_B=1.0)

    def test_beta_zero_returns_unchanged_features(self):
        data = self._data()
        for delta in (1e-3, 0.0):
            out = privatize_dataset(data, 0.0, DPParams(1.0, delta), RngStream(1))
            np.testing.assert_array_equal(out.features, data.features)
            assert out.bound_B == data.bound_B

    def test_sensitivity_is_sqrt_d_beta(self):
        # d = 4, beta = 0.5 -> sensitivity 1.0, so B_L of the output bound
        # uses trunc_lap_width(1.0, eps, delta).
        data = self._data(d=4)
        dp = DPParams(1.0, 1e-2)
        out = privatize_dataset(data, 0.5, dp, RngStream(2))
        b_l = trunc_lap_width(1.0, dp.epsilon, dp.delta)
        assert out.bound_B == pytest.approx(1.0 + 2.0 * b_l)

    def test_feature_noise_width_is_the_drawn_width(self):
        dp = DPParams(1.0, 1e-2)
        out = privatize_dataset(self._data(d=4), 0.5, dp, RngStream(2))
        assert out.bound_B == 1.0 + 2.0 * feature_noise_width(4, 0.5, dp)
        assert feature_noise_width(4, 0.0, dp) == 0.0
        with pytest.raises(ValueError, match="beta"):
            feature_noise_width(4, -0.5, dp)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_refused_before_any_draw(self, beta, monkeypatch):
        dp = DPParams(1.0, 1e-3)
        with pytest.raises(ValueError, match="beta must be finite and non-negative") as width_err:
            feature_noise_width(3, beta, dp)

        def never(*args):
            raise AssertionError("drew noise")

        monkeypatch.setattr(privacy_module, "trunc_lap_samples", never)
        data = Dataset(np.eye(3), np.zeros((3, 1)), bound_B=1.0)
        with pytest.raises(ValueError) as drawn_err:
            privatize_dataset(data, beta, dp, RngStream(1))
        assert str(drawn_err.value) == str(width_err.value)

    def test_smallest_subnormal_beta_draws(self, monkeypatch):
        # The branch is on beta, not on the width.
        data = self._data(d=3)
        shapes = []

        def counted(params, rng, shape):
            shapes.append(shape)
            return trunc_lap_samples(params, rng, shape)

        monkeypatch.setattr(privacy_module, "trunc_lap_samples", counted)
        tiny = privatize_dataset(data, 5e-324, DPParams(1.0, 1e-3), RngStream(1))
        assert shapes == [(5, 3)]
        assert tiny.bound_B == 1.0 + math.sqrt(3) * feature_noise_width(3, 5e-324, DPParams(1.0, 1e-3))

    def test_noise_support_over_seeds(self):
        data = self._data()
        dp = DPParams(0.8, 5e-3)
        d = data.dim
        b_l = trunc_lap_width(math.sqrt(d) * 0.1, dp.epsilon, dp.delta)
        for s in range(100):
            out = privatize_dataset(data, 0.1, dp, RngStream(s))
            diff = out.features - data.features
            assert np.abs(diff).max() <= b_l
            assert np.linalg.norm(diff, axis=1).max() <= math.sqrt(d) * b_l

    def test_labels_never_perturbed(self):
        data = self._data()
        out = privatize_dataset(data, 0.3, DPParams(1.0, 1e-3), RngStream(7))
        np.testing.assert_array_equal(out.labels, data.labels)

    def test_delta_zero_rejected(self):
        data = self._data()
        with pytest.raises(ValueError):
            privatize_dataset(data, 0.1, DPParams(1.0, 0.0), RngStream(1))

    def test_release_is_features_plus_the_literal_noise(self):
        from dpntk.privacy import _inverse_cdf

        data = self._data(n=300, d=7, seed=4)
        dp = DPParams(0.8, 5e-3)
        out = privatize_dataset(data, 0.2, dp, RngStream(9))
        params = TruncLapParams(math.sqrt(7) * 0.2, dp.epsilon, dp.delta)
        noise = _inverse_cdf(params, RngStream(9).substream("tlap").generator().random((300, 7)))
        literal = data.features + noise
        assert np.array_equal(out.features.view(np.uint64), literal.view(np.uint64))


class TestGaussianSamplingMechanism:
    def test_zero_matrix_maps_to_zero(self):
        out = gaussian_sampling_mechanism(np.zeros((3, 3)), 5, RngStream(1))
        np.testing.assert_array_equal(out.array, np.zeros((3, 3)))

    def test_k_one_is_rank_one(self):
        g = np.random.default_rng(0).standard_normal((4, 4))
        out = gaussian_sampling_mechanism(SymMatrix(g @ g.T), 1, RngStream(2))
        w = np.linalg.eigvalsh(out.array)
        assert np.sum(w > 1e-10 * w.max()) == 1
        assert w[0] >= -1e-12 * w.max()

    def test_identity_concentration_at_large_k(self):
        out = gaussian_sampling_mechanism(np.eye(3), 10**6, RngStream(3))
        assert np.linalg.norm(out.array - np.eye(3)) <= 0.05

    def test_unbiased_on_diagonal_target(self):
        target = np.diag([1.0, 2.0, 3.0])
        total = np.zeros((3, 3))
        runs = 10_000
        root = RngStream(11)
        for t in range(runs):
            total += gaussian_sampling_mechanism(target, 10, root.substream(f"r{t}")).array
        assert np.max(np.abs(total / runs - target)) <= 0.05

    @staticmethod
    def _wishart_ranks(sig, k):
        # Sigma_hat ~ Wishart(k, Sigma) / k: E = Sigma and
        # Var[i, j] = (Sigma_ij^2 + Sigma_ii Sigma_jj) / k for every k,
        # including k < n where the output has rank k. Returns the ranks.
        runs = 1200
        root = RngStream(31)
        draws = np.stack([
            gaussian_sampling_mechanism(sig, k, root.substream(f"w{t}")).array
            for t in range(runs)
        ])
        var = (sig**2 + np.outer(np.diag(sig), np.diag(sig))) / k
        mean_z = np.abs(draws.mean(axis=0) - sig) / np.sqrt(var / runs)
        assert mean_z.max() <= 4.0
        assert np.max(np.abs(draws.var(axis=0) / var - 1.0)) <= 0.3
        return np.linalg.matrix_rank(draws)

    @pytest.mark.parametrize("k", [1, 2, 4, 12])
    @pytest.mark.parametrize("rank", [4, 2])
    def test_wishart_moments_and_rank(self, k, rank):
        if rank == 4:
            sig = np.array([
                [2.0, 0.5, 0.3, 0.0],
                [0.5, 1.5, -0.2, 0.1],
                [0.3, -0.2, 1.0, 0.4],
                [0.0, 0.1, 0.4, 0.8],
            ])
        else:
            # Rank 2 of n = 5: potrf fails, and the release is drawn through
            # the pivoted factor with G's columns scattered back to Sigma's order.
            b = np.random.default_rng(1).standard_normal((5, 2))
            sig = SymMatrix(b @ b.T).array
        assert (psd_factor(sig)[1] is None) == (rank == 4)
        assert set(self._wishart_ranks(sig, k).tolist()) == {min(k, rank)}

    @pytest.mark.parametrize("k", [1, 2, 4, 12])
    def test_wishart_moments_and_rank_ill_conditioned(self, k):
        # Eigenvalues from 1 down to 1e-8 in a rotated basis.
        sig = SymMatrix((ROTATION_4 * [1.0, 1e-3, 1e-5, 1e-8]) @ ROTATION_4.T).array
        assert psd_factor(sig)[1] is None
        ranks = self._wishart_ranks(sig, k)
        if k < 4:
            assert set(ranks.tolist()) == {k}
        else:
            # At k >= n the smallest eigenvalue is about 1e-8 lambda_min(W) / k
            # for W ~ Wishart(k, I). At k = n that reaches rounding level
            # (~1e-16) in about one draw per thousand, whichever factor of
            # Sigma is used, and the default rank tolerance cannot tell.
            assert ranks.max() == 4 and np.mean(ranks == 4) >= 0.99

    def test_rank_deficient_input_takes_pivoted_cholesky(self):
        # Rank 3 of 5: exact zero rows and columns make the Cholesky pivot
        # exactly zero, so the factor is pivoted: the three nonzero indices
        # first, and the zero rows of Sigma exact zero rows of the factor and
        # of every release.
        m = np.random.default_rng(4).standard_normal((3, 3))
        sig = np.zeros((5, 5))
        sig[np.ix_([0, 2, 4], [0, 2, 4])] = m @ m.T
        factor, order = psd_factor(sig)
        assert np.array_equal(factor, np.tril(factor))
        assert sorted(order[3:]) == [1, 3]
        assert not factor[3:].any() and not factor[:, 3:].any()
        np.testing.assert_allclose(factor @ factor.T, sig[np.ix_(order, order)], rtol=0.0, atol=1e-13)
        root = RngStream(41)
        for k in (1, 2, 3, 50, 10**6):
            out = gaussian_sampling_mechanism(sig, k, root.substream(f"k{k}")).array
            assert np.linalg.matrix_rank(out) <= min(k, 3)
            assert not out[[1, 3]].any() and not out[:, [1, 3]].any()

    def test_not_psd_input_rejected(self):
        with pytest.raises(NotPSDError):
            gaussian_sampling_mechanism(np.array([[0.0, 1.0], [1.0, 0.0]]), 3, RngStream(1))

    def test_deterministic_given_stream(self):
        sig = SymMatrix(np.diag([1.0, 0.5]))
        a = gaussian_sampling_mechanism(sig, 64, RngStream(9))
        b = gaussian_sampling_mechanism(sig, 64, RngStream(9))
        np.testing.assert_array_equal(a.array, b.array)

    def test_psd_output_over_random_inputs(self):
        root = RngStream(21)
        for t in range(500):
            gen = root.substream(f"in{t}").generator()
            n = int(gen.integers(1, 11))
            m = gen.standard_normal((n, n))
            sig = SymMatrix(m @ m.T)
            for k in (1, 5, 100):
                est = gaussian_sampling_mechanism(sig, k, root.substream(f"out{t}/{k}"))
                lo, _ = eigen_extremes(est)
                assert lo >= -1e-10 * max(est.frob_norm(), 1e-300)

    def test_whitened_sandwich_concentration(self):
        # Eigenvalues of Sigma^{-1/2} Sigma_hat Sigma^{-1/2} stay inside
        # [1 - rho, 1 + rho] with rho = rho_bound(5, 1e5, 0.01, c=3) in at
        # least 99 of 100 seeded trials.
        gen = np.random.default_rng(123)
        m = gen.standard_normal((5, 5))
        sig = SymMatrix(m @ m.T + np.eye(5))
        w, v = np.linalg.eigh(sig.array)
        inv_sqrt = (v / np.sqrt(w)) @ v.T
        rho = rho_bound(5, 10**5, 0.01, 3.0)
        hits = 0
        for t in range(100):
            est = gaussian_sampling_mechanism(sig, 10**5, RngStream(t))
            eigs = np.linalg.eigvalsh(inv_sqrt @ est.array @ inv_sqrt)
            if np.all(np.abs(eigs - 1.0) <= rho):
                hits += 1
        assert hits >= 99


class TestDeltaBudget:
    def test_example_values(self):
        assert delta_budget(DPParams(0.5, math.exp(-2)), 8) == pytest.approx(0.03125)
        assert delta_budget(DPParams(1.0, math.exp(-1)), 2) == pytest.approx(0.125)

    def test_branches_meet_at_crossover(self):
        eps, delta = 0.7, 1e-3
        log_term = math.log(1.0 / delta)
        k_star = 8.0 * log_term
        sqrt_branch = eps / math.sqrt(8.0 * k_star * log_term)
        flat_branch = eps / (8.0 * log_term)
        assert sqrt_branch == pytest.approx(flat_branch, rel=1e-12)

    def test_monotone_in_k_and_epsilon(self):
        dp = DPParams(1.0, 1e-3)
        vals = [delta_budget(dp, k) for k in (1, 10, 100, 1000)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert delta_budget(DPParams(2.0, 1e-3), 50) > delta_budget(DPParams(1.0, 1e-3), 50)

    def test_delta_zero_rejected(self):
        with pytest.raises(ValueError):
            delta_budget(DPParams(1.0, 0.0), 4)


class TestRhoBound:
    def test_unit_example(self):
        # n=1, gamma=e^-1, k=2: sqrt(2/2) + 2/2 = 2
        assert rho_bound(1, 2, math.exp(-1), 1.0) == pytest.approx(2.0)

    def test_vanishes_as_k_grows(self):
        vals = [rho_bound(3, k, 0.01) for k in (10, 10**3, 10**5, 10**7)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-2

    def test_doubling_k_strictly_decreases(self):
        assert rho_bound(4, 64, 0.05) > rho_bound(4, 128, 0.05)


class TestSensitivityFormulas:
    def test_psi_zero_beta(self):
        assert continuous_sensitivity_psi(3, 1.0, 1.0, 0.0) == 0.0

    @pytest.mark.parametrize("sigma, beta", [(1.0, math.nan), (math.nan, 0.1)])
    def test_psi_refuses_a_nan_sigma_or_beta(self, sigma, beta):
        with pytest.raises(ValueError, match="must be finite and non-negative"):
            continuous_sensitivity_psi(3, sigma, 1.0, beta)

    @pytest.mark.parametrize("eta_min", [0.01, 0.0])
    @pytest.mark.parametrize("name", ["sigma", "bound_B", "beta"])
    def test_psi_and_max_k_raw_refuse_an_infinite_parameter(self, name, eta_min):
        # Each used to read as a valid input: psi and M came out infinite.
        args = {"n": 3, "sigma": 1.0, "bound_B": 1.0, "beta": 0.1, name: math.inf}
        with pytest.raises(ValueError, match=f"{name} must be finite and"):
            continuous_sensitivity_psi(**args)
        with pytest.raises(ValueError, match=f"{name} must be finite and"):
            max_k_raw(eps=1.0, delta=1e-3, eta_min=eta_min, **args)

    @pytest.mark.parametrize("bound_B, power", [(1e200, 3), (1e80, 4)])
    def test_overflowing_powers_of_b_refused_on_every_m_path(self, bound_B, power):
        # A finite B whose cube (in psi) or fourth power (in M) overflows a
        # float raised Python's OverflowError from the float power.
        match = f"bound_B\\*\\*{power} overflows a float"
        if power == 3:
            with pytest.raises(ValueError, match=match):
                continuous_sensitivity_psi(3, 1.0, bound_B, 0.1)
        else:
            assert continuous_sensitivity_psi(3, 1.0, bound_B, 0.1) > 0
        with pytest.raises(ValueError, match=match):
            max_k(1.0, 1e-3, 3, 1.0, bound_B, 0.1, 0.01)
        with pytest.raises(ValueError, match=match):
            max_k_raw(1.0, 1e-3, 3, 1.0, bound_B, 0.1, 0.01)
        with pytest.raises(ValueError, match=match):
            check_dp_conditions(DPParams(1.0, 1e-3), 100, 3, 1.0, bound_B, 0.1, 0.01)

    def test_psi_proof_constant(self):
        # n=1: (2n-2)*4 + 16 = 16, sqrt = 4
        assert continuous_sensitivity_psi(1, 1.0, 1.0, 1.0) == pytest.approx(4.0)
        assert continuous_sensitivity_psi(3, 1.0, 1.0, 0.1) == pytest.approx(
            math.sqrt(32.0) * 0.1
        )


class TestMaxK:
    # Reference parameters: eps=1, delta=2e-3, n=1e3, sigma=1, B=1,
    # eta_min=7e-3, beta=1e-6.
    REF = dict(eps=1.0, delta=2e-3, n=1000, sigma=1.0, bound_B=1.0,
               beta=1e-6, eta_min=7e-3)

    def test_reference_point_is_infeasible(self):
        raw = max_k_raw(**self.REF)
        assert raw == pytest.approx(0.986, abs=1e-3)
        assert max_k(**self.REF) == 0

    def test_epsilon_scaling_is_exactly_quadratic(self):
        base = max_k_raw(**self.REF)
        scaled = max_k_raw(**{**self.REF, "eps": 10.0})
        assert scaled == pytest.approx(100.0 * base, rel=1e-12)

    def test_nan_beta_raises_not_the_cap(self):
        # NaN passes `beta < 0`; it used to make M NaN and eps / M infinite.
        with pytest.raises(ValueError, match="beta must be finite and non-negative"):
            max_k(1.0, 1e-3, 70, 1.0, 1.0, math.nan, 0.01)
        with pytest.raises(ValueError, match="beta must be finite and non-negative"):
            max_k_raw(1.0, 1e-3, 70, 1.0, 1.0, math.nan, 0.01)

    def test_beta_zero_reports_cap(self):
        assert max_k(**{**self.REF, "beta": 0.0}) == 10_000_000
        assert max_k(**{**self.REF, "beta": 0.0}, cap=1234) == 1234

    def test_sigma_zero_is_accepted_as_sample_weights_accepts_it(self):
        # Its all-zero kernel is rank-deficient: no k. A zero gate numerator,
        # from sigma = 0 or a beta whose M underflows, reads as beta = 0.
        assert max_k_raw(**{**self.REF, "sigma": 0.0, "eta_min": 0.0}) == 0.0
        assert max_k_raw(**{**self.REF, "sigma": 0.0}) == math.inf
        assert max_k_raw(**{**self.REF, "beta": 1e-320}) == math.inf
        with pytest.raises(ValueError, match="sigma must be finite and non-negative"):
            max_k_raw(**{**self.REF, "sigma": -1.0})

    def test_feasible_at_larger_epsilon(self):
        k = max_k(**{**self.REF, "eps": 100.0})
        assert k == math.floor(max_k_raw(**{**self.REF, "eps": 100.0}))
        assert k >= math.ceil(8.0 * math.log(1.0 / 2e-3))

    def test_no_k_when_m_is_at_least_one(self):
        # M = 100 * 1e-3 / 0.05 = 2. The largest k with M <= Delta, 4523, has
        # Delta >= 2, and Delta < 1 needs a k where M > Delta.
        p = dict(eps=1000.0, delta=1e-3, n=100, sigma=1.0, bound_B=1.0, beta=1e-3, eta_min=0.05)
        assert math.floor(max_k_raw(**p)) == 4523
        assert max_k(**p) == 0
        assert not check_dp_conditions(DPParams(1000.0, 1e-3), 4523, 100, 1.0, 1.0, 1e-3, 0.05).feasible
        why = max_k_refusal(DPParams(1000.0, 1e-3), 100, 1.0, 1.0, 1e-3, 0.05)
        assert why == "M = 2 >= 1: no k gives Delta < 1 with M <= Delta"

    def test_no_k_when_the_cap_keeps_delta_at_least_one(self):
        # beta = 0 gives M = 0, so k is the cap; Delta(100) = 1.418 at eps = 100.
        p = {**self.REF, "eps": 100.0, "beta": 0.0}
        assert max_k(**p, cap=100) == 0
        assert max_k(**p, cap=10_000) == 10_000
        why = max_k_refusal(DPParams(100.0, 2e-3), 1000, 1.0, 1.0, 0.0, 7e-3, cap=100)
        assert why == "Delta = 1.41823 >= 1 at k = 100, the largest k with M = 0 <= Delta"

    def test_admitted_k_is_the_gates_where_m_squared_underflows(self):
        # M = 1e-162, so M^2 underflows: eps^2 / (8 ln(1/delta) M^2) read
        # 18400, a k the gate refuses, where (eps / M)^2 / (8 ln(1/delta))
        # reads 18095. An M that underflows to 0 reads as beta = 0.
        dp = DPParams(1e-159, 1e-3)
        k = max_k(dp.epsilon, dp.delta, 1, 1.0, 1.0, 2.5e-163, 1.0)
        assert check_dp_conditions(dp, k, 1, 1.0, 1.0, 2.5e-163, 1.0).feasible
        assert not check_dp_conditions(dp, k + 1, 1, 1.0, 1.0, 2.5e-163, 1.0).feasible
        assert max_k_raw(1.0, 1e-3, 1, 0.5, 1.0, 5e-324, 10.0) == math.inf

    def test_no_refusal_where_max_k_admits(self):
        # M = 0.142857 <= Delta(9855) = 0.142863 < 1: k = 9855 is admitted,
        # so there is no reason to give.
        assert max_k(**{**self.REF, "eps": 100.0}) == 9855
        assert max_k_refusal(DPParams(100.0, 2e-3), 1000, 1.0, 1.0, 1e-6, 7e-3) == ""

    def test_max_k_and_refusal_agree_with_the_gate_over_random_budgets(self):
        # An admitted k passes the gate, k + 1 does not (below the cap), and
        # there is no reason; a refusal has one, and the gate refuses both
        # ends of [ceil(8 ln 1/delta), cap]. Every tenth budget has beta = 0,
        # sigma = 0 or eta_min <= 0, and three in ten put M on Delta(k) for
        # some k, where the floored raw bound rounds either way.
        gen = np.random.default_rng(22)
        seen = collections.Counter()
        for i in range(2000):
            eps = float(10 ** gen.uniform(-2, 4))
            delta = float(10 ** gen.uniform(-10, -0.05))
            n = int(gen.integers(1, 500))
            sigma = 0.0 if i % 10 == 1 else float(gen.uniform(0.1, 3.0))
            bound = float(gen.uniform(0.1, 3.0))
            eta = -float(gen.uniform(0.0, 1.0)) if i % 10 == 2 else float(10 ** gen.uniform(-6, 1))
            cap = int(10 ** gen.uniform(0, 8))
            dp = DPParams(eps, delta)
            k_min = math.ceil(8.0 * math.log(1.0 / delta))
            beta = float(10 ** gen.uniform(-9, -1))
            if i % 10 == 0:
                beta = 0.0
            elif i % 10 in (3, 4, 5) and sigma > 0 and eta > 0:
                on = int(10 ** gen.uniform(math.log10(k_min), 8))
                unit_m = check_dp_conditions(dp, 1, n, sigma, bound, 1.0, eta).m_bound
                beta = float(np.nextafter(delta_budget(dp, on) / unit_m, (0.0, 1.0, 2.0)[i % 10 - 3]))

            def gate(k):
                return check_dp_conditions(dp, k, n, sigma, bound, beta, eta).feasible

            k = max_k(eps, delta, n, sigma, bound, beta, eta, cap=cap)
            why = max_k_refusal(dp, n, sigma, bound, beta, eta, cap)
            if k > 0:
                assert gate(k) and k >= k_min and why == ""
                assert k == cap or not gate(k + 1)
                seen["admitted"] += 1
            else:
                assert why != ""
                assert cap < k_min or not (gate(k_min) or gate(cap))
                seen[why[:why.index("=")] + (">= 1" if ">= 1:" in why else "")] += 1
        assert set(seen) == {"admitted", "the kernel is rank-deficient: eta_min ", "k_cap ",
                             "M >= 1", "M ", "Delta "}


class TestCompose:
    def test_stated_sum(self):
        out = compose([DPParams(0.5, 1e-3), DPParams(0.5, 1e-3)])
        assert out.epsilon == pytest.approx(1.0)
        assert out.delta == pytest.approx(2e-3)

    def test_single_element(self):
        p = DPParams(0.3, 1e-4)
        assert compose([p]) == p

    def test_order_invariance(self):
        parts = [DPParams(0.1, 1e-4), DPParams(0.2, 2e-4), DPParams(0.3, 3e-4)]
        assert compose(parts) == compose(list(reversed(parts)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compose([])


class TestCheckDpConditions:
    def test_beta_zero_m_le_delta(self):
        rep = check_dp_conditions(DPParams(0.5, 1e-2), 64, 10, 1.0, 1.0, 0.0, 0.1)
        assert rep.m_bound == 0.0
        assert rep.m_le_delta
        assert rep.delta_lt_one
        assert rep.feasible

    def test_synthetic_m_example(self):
        # eps=0.5, delta=e^-2, k=8 gives Delta=0.03125; n=1, sigma=1, B=1,
        # beta=0.02, eta=1: n sigma^2 B^4 beta = 0.02 <= Delta, but the proven
        # psi / eta = sqrt(16) * 0.02 = 0.08 > Delta, so the report is infeasible.
        rep = check_dp_conditions(DPParams(0.5, math.exp(-2)), 8, 1, 1.0, 1.0, 0.02, 1.0)
        assert rep.delta_cap == pytest.approx(0.03125)
        assert rep.m_bound == pytest.approx(0.08)
        assert not rep.m_le_delta
        assert not rep.feasible

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 30, 100, 400])
    @pytest.mark.parametrize("bound_B", [0.1, 0.5, 1.0, 2.0])
    def test_gate_is_at_least_the_proven_bound(self, n, bound_B):
        # ||K^{-1/2} K' K^{-1/2} - I||_F <= psi / eta_min is proven for every
        # n and B; the gate must never sit below it, and max_k must invert
        # exactly the value that gates: it finds a k exactly when the
        # smallest admissible one passes (M >= 1 passes at none).
        sigma, beta, eta = 1.3, 1e-5, 0.02
        psi = continuous_sensitivity_psi(n, sigma, bound_B, beta)
        m_route = n * sigma**2 * bound_B**4 * beta
        dp = DPParams(1.0, 1e-3)
        rep = check_dp_conditions(dp, 100, n, sigma, bound_B, beta, eta)
        assert rep.m_bound >= psi / eta
        assert rep.m_bound == pytest.approx(max(m_route, psi) / eta, rel=1e-12)
        cap = 10**9
        for eps in (10.0 ** e for e in range(-3, 4)):
            dp = DPParams(eps, 1e-3)
            k_star = max_k(eps, dp.delta, n, sigma, bound_B, beta, eta, cap=cap)
            k_min = math.ceil(8.0 * math.log(1.0 / dp.delta))
            probe = k_star if k_star >= 1 else k_min
            at = check_dp_conditions(dp, probe, n, sigma, bound_B, beta, eta)
            assert at.feasible == (k_star >= 1)
            if 1 <= k_star < cap:
                above = check_dp_conditions(dp, k_star + 1, n, sigma, bound_B, beta, eta)
                assert not above.m_le_delta

    def test_psi_route_binds_where_n_b_is_small(self):
        # n B = 5 < sqrt(48): the direct route is the larger, 1.39x M.
        rep = check_dp_conditions(DPParams(1.0, 1e-3), 100, 5, 1.0, 1.0, 1e-4, 0.01)
        assert rep.m_bound == continuous_sensitivity_psi(5, 1.0, 1.0, 1e-4) / 0.01
        assert rep.m_bound / (5 * 1e-4 / 0.01) == pytest.approx(math.sqrt(48.0) / 5.0)

    def test_k_above_max_k_fails_m_le_delta(self):
        params = dict(n=50, sigma=1.0, bound_B=1.0, beta=1e-4, eta_min=0.05)
        dp = DPParams(20.0, 1e-3)
        k_star = max_k(dp.epsilon, dp.delta, **params)
        assert k_star >= 1
        above = check_dp_conditions(dp, k_star + 1, params["n"], params["sigma"],
                                    params["bound_B"], params["beta"], params["eta_min"])
        assert not above.m_le_delta

    def test_max_k_inversion_over_random_parameters(self):
        gen = np.random.default_rng(31)
        tested = 0
        for _ in range(200):
            eps = float(gen.uniform(0.5, 50.0))
            delta = float(gen.uniform(1e-5, 0.1))
            n = int(gen.integers(1, 200))
            sigma = float(gen.uniform(0.5, 2.0))
            bound = float(gen.uniform(0.5, 1.5))
            beta = float(10 ** gen.uniform(-7, -3))
            eta = float(10 ** gen.uniform(-3, 0))
            k_star = max_k(eps, delta, n, sigma, bound, beta, eta)
            if k_star < 1:
                continue
            tested += 1
            rep = check_dp_conditions(DPParams(eps, delta), k_star, n, sigma, bound, beta, eta)
            assert rep.feasible
        assert tested >= 20

    def test_report_holds_four_numbers_and_derives_its_verdict(self):
        assert [f.name for f in dataclasses.fields(ConditionReport)] == [
            "delta_cap", "m_bound", "rho", "k"]
        with pytest.raises(TypeError):
            ConditionReport(delta_cap=0.1, m_bound=0.0, rho=1.0, k=5, delta_lt_one=True)
        rep = ConditionReport(delta_cap=0.1, m_bound=0.05, rho=1.0, k=5)
        assert rep.delta_lt_one and rep.m_le_delta and rep.k_ge_one and rep.feasible
        assert not ConditionReport(delta_cap=0.1, m_bound=1e9, rho=1.0, k=5).feasible
        assert not ConditionReport(delta_cap=1.0, m_bound=0.0, rho=1.0, k=5).delta_lt_one
        assert not ConditionReport(delta_cap=math.inf, m_bound=0.0, rho=math.inf, k=0).k_ge_one
        with pytest.raises(AttributeError):
            rep.feasible = False

    def test_k_zero_is_an_infeasible_report(self):
        rep = check_dp_conditions(DPParams(1.0, 1e-3), 0, 9, 1.0, 1.0, 1e-4, 0.05)
        assert not rep.k_ge_one
        assert not rep.feasible
        assert rep.delta_cap == math.inf and rep.rho == math.inf

    def test_report_gates_on_the_k_bound_route(self):
        rep = check_dp_conditions(DPParams(1.0, 1e-3), 100, 9, 1.0, 1.0, 1e-4, 0.05)
        assert rep.m_bound == pytest.approx(9 * 1e-4 / 0.05)


def _route_cholesky(a: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor on the library of the LAPACK route in use:
    numpy's, or scipy's where dpntk falls back to scipy's wrappers."""
    if linalg_module._ROUTE == "scipy.linalg.lapack":
        return scipy.linalg.cholesky(a, lower=True)
    return np.linalg.cholesky(a)


def _gsm_reference(sig: SymMatrix, k: int, rng: RngStream) -> np.ndarray:
    """The mechanism written with the route's Cholesky factor, the int-list
    SeedSequence of the "gsm" substream and a literal draw order: row i of
    the Bartlett factor takes its n - 1 - i normals right of the diagonal,
    rows in order, then the chi-squares fill the diagonal. The product with
    the factor's transpose is one BLAS trmm on a copy of the Bartlett
    factor."""
    cov_factor = _route_cholesky(sig.array)
    n = cov_factor.shape[0]
    r = min(k, n)
    path = rng.path + ("gsm",)
    entropy = [rng.seed & (2**64 - 1)] + [_label_word(lbl) for lbl in path]
    gen = np.random.default_rng(np.random.SeedSequence(entropy))
    bartlett = np.zeros((r, n))
    for i in range(r):
        bartlett[i, i + 1:] = gen.standard_normal(n - 1 - i)
    for i, dof in enumerate(k - np.arange(r)):
        bartlett[i, i] = math.sqrt(gen.chisquare(dof))
    g = scipy.linalg.blas.dtrmm(1.0, cov_factor, bartlett, side=1, lower=1, trans_a=1)
    scatter = g.T @ g
    scatter /= k
    return SymMatrix(scatter).array


@pytest.mark.parametrize("n", [1, 2, 5, 8, 40, 100])
def test_gsm_is_the_triu_reference_bit_for_bit(n):
    g = np.random.default_rng(n).standard_normal((n, n + 2))
    sig = SymMatrix(g @ g.T / n + 1e-3 * np.eye(n))
    root = RngStream(2**40 + n, ("gsm-ref",))
    for k in sorted({1, 2, n - 1, n, 100, 10**6} - {0}):
        stream = root.substream(f"k{k}")
        out = gaussian_sampling_mechanism(sig, k, stream).array
        assert out.tobytes() == _gsm_reference(sig, k, stream).tobytes(), k


@pytest.mark.parametrize("k", [7, 400, 20_000])
def test_gsm_trmm_product_matches_the_gemm_product(k, monkeypatch):
    # At n = 400 the triangular product R L^T and a full GEMM of the same
    # factors round differently but agree to 1e-13 relative.
    n = 400
    g = np.random.default_rng(k).standard_normal((n, n + 2))
    sig = SymMatrix(g @ g.T / n + 1e-3 * np.eye(n))
    stream = RngStream(2**41 + k, ("gsm-gemm",))
    out = gaussian_sampling_mechanism(sig, k, stream).array

    def gemm(a, b):
        return b @ a.T

    monkeypatch.setattr(privacy_module, "trmm", gemm)
    ref = gaussian_sampling_mechanism(sig, k, stream).array
    assert not np.array_equal(out, ref)
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("singular", [False, True], ids=["potrf", "pstrf"])
def test_gsm_through_a_held_factor_is_the_fresh_release_bit_for_bit(singular):
    n = 9
    g = np.random.default_rng(50 + singular).standard_normal((n, 4 if singular else n + 3))
    root = RngStream(2**42, ("gsm-held",))
    for k in (3, n, 1000):
        fresh_input, held_input = SymMatrix(g @ g.T), SymMatrix(g @ g.T)
        fresh = gaussian_sampling_mechanism(fresh_input, k, root.substream(f"k{k}")).array
        # A release through a matrix that holds no factor leaves none.
        assert "factor" not in vars(fresh_input)
        assert (held_input.factor[1] is not None) == singular
        for _ in range(2):
            held = gaussian_sampling_mechanism(held_input, k, root.substream(f"k{k}")).array
            assert held.tobytes() == fresh.tobytes(), k


@pytest.mark.parametrize("r", range(1, 17))
def test_gsm_chi_squares_are_the_array_draws_at_every_rank(r, monkeypatch):
    # Below rank 12 the Bartlett diagonal's chi-squares are drawn one scalar
    # at a time; forcing either path at every rank gives the same bytes.
    g = np.random.default_rng(r).standard_normal((r, r + 2))
    sig = SymMatrix(g @ g.T)
    for k in (r, r + 1, 10**6):
        stream = RngStream(2**43 + r, (f"chi2-{k}",))
        releases = []
        for threshold in (1, 17):
            monkeypatch.setattr(privacy_module, "_ARRAY_CHISQUARE_FROM", threshold)
            releases.append(gaussian_sampling_mechanism(sig, k, stream).array.tobytes())
        assert releases[0] == releases[1], k


def _traced_peak(call) -> int:
    """Bytes a call adds at its peak: tracemalloc's peak during the call
    minus the memory traced just before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestFeatureNoiseMemory:
    """The truncated-Laplace path holds its release and one block, not
    full-size uniform, sign or sum arrays beside it."""

    def test_sampler_holds_its_result_and_one_block(self):
        p = TruncLapParams(1.0, 1.0, 0.5)
        assert _traced_peak(lambda: trunc_lap_samples(p, RngStream(1), 10**6)) <= 8_000_000 + 2**20

    def test_privatize_holds_its_release_and_one_temporary(self):
        # The second n x d array is Dataset's row-norm temporary.
        g = np.random.default_rng(0)
        x = g.standard_normal((20_000, 16))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        data = Dataset(x, np.zeros((20_000, 1)), bound_B=1.0)
        peak = _traced_peak(lambda: privatize_dataset(data, 0.1, DPParams(1.0, 1e-3), RngStream(2)))
        assert peak <= 2 * 2_560_000 + 2**20

    def test_support_reduction_holds_two_blocks(self):
        # A uniform block, a z block and sign bytes, not the 8 MB release.
        # Warm first: a fresh interpreter's first stream imports modules.
        p = TruncLapParams(1.0, 1.0, 0.5)
        trunc_lap_max_abs(p, RngStream(1), 10**6)
        assert _traced_peak(lambda: trunc_lap_max_abs(p, RngStream(1), 10**6)) <= 512 * 2**10

    def test_fit_private_holds_no_kernel_factor(self):
        # The kernel it builds is released once, so its factor lives only
        # inside the mechanism: the peak is the kernel, the release, the
        # mechanism's two temporaries and small change (3.62 n x n arrays;
        # holding the kernel's factor through the release reads 4.2).
        n = 300
        x = np.random.default_rng(3).standard_normal((n, 32))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        data = Dataset(x, np.where(np.arange(n) % 2, 1.0, -1.0).reshape(-1, 1), bound_B=1.0)
        w = sample_weights(1024, 32, 1.0, RngStream(4))
        dp = DPParams(500.0, 1e-3)

        def call(label):
            fit_private(data, w, 0.3, 20_000, dp, dp, 1e-6, RngStream(5, (label,)))

        call("warm")
        assert _traced_peak(lambda: call("op")) < 4 * 8 * n * n

    def test_verify_bounds_holds_no_release_of_its_draws(self):
        # verify's 1e6 support draws (8 MB) are reduced block by block; what
        # is left is mostly the dis_cts_gap weights and their QR copy.
        cfg = ExperimentConfig(seed=1)
        verify_bounds(cfg)
        assert _traced_peak(lambda: verify_bounds(cfg)) <= 5 * 2**20

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from dpntk.kernel import Dataset
from dpntk.linalg import SymMatrix, eigen_extremes, psd_factor, sym_eigen
from dpntk.privacy import (
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
    privatize_dataset,
    rho_bound,
    trunc_lap_cdf,
    trunc_lap_samples,
    trunc_lap_width,
)
from dpntk.rng import RngStream, _label_word

# A fixed orthogonal basis for non-diagonal test covariances.
ROTATION_4 = np.linalg.qr(np.random.default_rng(17).standard_normal((4, 4)))[0]


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

    def test_params_object_carries_width(self):
        p = TruncLapParams(2.0, 0.5, 0.1)
        assert p.width_BL == trunc_lap_width(2.0, 0.5, 0.1)
        assert p.scale == 4.0


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
        out = privatize_dataset(data, 0.0, DPParams(1.0, 1e-3), RngStream(1))
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
        factor = psd_factor(sig)
        assert np.array_equal(factor, np.tril(factor))  # Cholesky, not the eigen root
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
    def test_wishart_moments_and_rank(self, k):
        sig = np.array([
            [2.0, 0.5, 0.3, 0.0],
            [0.5, 1.5, -0.2, 0.1],
            [0.3, -0.2, 1.0, 0.4],
            [0.0, 0.1, 0.4, 0.8],
        ])
        assert set(self._wishart_ranks(sig, k).tolist()) == {min(k, 4)}

    @pytest.mark.parametrize("k", [1, 2, 4, 12])
    def test_wishart_moments_and_rank_ill_conditioned(self, k):
        # Eigenvalues from 1 down to 1e-8 in a rotated basis.
        sig = SymMatrix((ROTATION_4 * [1.0, 1e-3, 1e-5, 1e-8]) @ ROTATION_4.T).array
        ranks = self._wishart_ranks(sig, k)
        if k < 4:
            assert set(ranks.tolist()) == {k}
        else:
            # At k >= n the smallest eigenvalue is about 1e-8 lambda_min(W) / k
            # for W ~ Wishart(k, I). At k = n that reaches rounding level
            # (~1e-16) in about one draw per thousand, whichever factor of
            # Sigma is used, and the default rank tolerance cannot tell.
            assert ranks.max() == 4 and np.mean(ranks == 4) >= 0.99

    def test_rank_deficient_input_takes_the_eigen_root(self):
        # Rank 3 of 5: exact zero rows and columns make the Cholesky pivot
        # exactly zero, so the factor is the symmetric eigen root.
        m = np.random.default_rng(4).standard_normal((3, 3))
        sig = np.zeros((5, 5))
        sig[np.ix_([0, 2, 4], [0, 2, 4])] = m @ m.T
        factor = psd_factor(sig)
        assert np.array_equal(factor, factor.T)
        root = RngStream(41)
        for k in (1, 2, 3, 50, 10**6):
            out = gaussian_sampling_mechanism(sig, k, root.substream(f"k{k}")).array
            assert np.linalg.matrix_rank(out) <= min(k, 3)
            np.testing.assert_allclose(out[[1, 3]], 0.0, atol=1e-12)

    def test_negative_tol_rejected_before_factoring(self):
        with pytest.raises(ValueError, match="tol must be non-negative"):
            gaussian_sampling_mechanism(np.eye(2), 3, RngStream(1), tol=-1e-12)

    def test_not_psd_input_rejected(self):
        from dpntk.linalg import NotPSDError

        with pytest.raises(NotPSDError):
            gaussian_sampling_mechanism(np.array([[0.0, 1.0], [1.0, 0.0]]), 3, RngStream(1), tol=1e-12)

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
        w, v = sym_eigen(sig)
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

    def test_beta_zero_reports_cap(self):
        assert max_k(**{**self.REF, "beta": 0.0}) == 10_000_000
        assert max_k(**{**self.REF, "beta": 0.0}, cap=1234) == 1234

    def test_feasible_at_larger_epsilon(self):
        k = max_k(**{**self.REF, "eps": 100.0})
        assert k == math.floor(max_k_raw(**{**self.REF, "eps": 100.0}))
        assert k >= math.ceil(8.0 * math.log(1.0 / 2e-3))


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
        # exactly the value that gates.
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
            assert at.m_le_delta == (k_star >= 1)
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
            assert rep.m_le_delta
        assert tested >= 20

    def test_k_zero_is_an_infeasible_report(self):
        rep = check_dp_conditions(DPParams(1.0, 1e-3), 0, 9, 1.0, 1.0, 1e-4, 0.05)
        assert not rep.k_ge_one
        assert not rep.feasible
        assert rep.delta_cap == math.inf and rep.rho == math.inf

    def test_report_gates_on_the_k_bound_route(self):
        rep = check_dp_conditions(DPParams(1.0, 1e-3), 100, 9, 1.0, 1.0, 1e-4, 0.05)
        assert rep.m_bound == pytest.approx(9 * 1e-4 / 0.05)


def _gsm_reference(sig: SymMatrix, k: int, rng: RngStream) -> np.ndarray:
    """The mechanism written with the scipy Cholesky wrapper, the int-list
    SeedSequence of the "gsm" substream and a literal draw order: row i of
    the Bartlett factor takes its n - 1 - i normals right of the diagonal,
    rows in order, then the chi-squares fill the diagonal."""
    cov_factor = scipy.linalg.cholesky(sig.array, lower=True, check_finite=False)
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
    g = bartlett @ cov_factor.T
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

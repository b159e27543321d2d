import math
import sys

import numpy as np
import pytest

from dpntk import regression
from dpntk.cli import EXIT_OK, main
from dpntk.data import generate_synthetic, save_features_csv
from dpntk.kernel import Dataset, WeightMatrix, discrete_kernel, kernel_vector, sample_weights
from dpntk.linalg import SymMatrix, spd_solve
from dpntk.persistence import save_model
from dpntk.privacy import BudgetInfeasibleError, DPParams, gaussian_sampling_mechanism, rho_bound
from dpntk.regression import (
    NTKModel,
    PrivateNTKModel,
    decode,
    fit,
    fit_private,
    inverse_gap_bound,
    kxX_gap_bound,
    predict,
    predict_private,
    regression_utility_bound,
)
from dpntk.rng import RngStream

DP = DPParams(1.0, 1e-3)


def unit_data(n=5, d=4, seed=0, labels=None):
    g = np.random.default_rng(seed)
    x = g.standard_normal((n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    if labels is None:
        labels = np.where(g.random(n) < 0.5, -1.0, 1.0).reshape(-1, 1)
    return Dataset(x, labels, bound_B=1.0)


def naive_entry(weights, a, b):
    m = weights.shape[0]
    total = 0.0
    for r in range(m):
        total += float(np.dot(np.dot(weights[r], a) * a, np.dot(weights[r], b) * b))
    return total / m


def oracle_predict(data, w, lam, x):
    """Straight-line re-implementation from the defining formulas."""
    n = data.n
    kmat = np.array(
        [
            [naive_entry(w.weights, data.features[i], data.features[j]) for j in range(n)]
            for i in range(n)
        ]
    )
    alpha = np.linalg.solve(kmat + lam * np.eye(n), data.labels)
    kv = np.array([naive_entry(w.weights, x, data.features[j]) for j in range(n)])
    return kv @ alpha / n


class TestFit:
    def test_scalar_solve(self):
        # K = [1] from x=(1,0), w=(1,1); (1 + 1) alpha = 1 -> alpha = 0.5
        data = Dataset(np.array([[1.0, 0.0]]), np.array([[1.0]]), 1.0)
        w = WeightMatrix(np.array([[1.0, 1.0]]), sigma=1.0)
        model = fit(data, w, 1.0)
        assert model.alpha[0, 0] == pytest.approx(0.5)

    def test_zero_labels_zero_alpha(self):
        data = unit_data(labels=np.zeros((5, 1)))
        w = sample_weights(16, 4, 1.0, RngStream(1))
        model = fit(data, w, 2.0)
        np.testing.assert_array_equal(model.alpha, np.zeros((5, 1)))

    def test_residual(self):
        data = unit_data(n=3, seed=2)
        w = sample_weights(32, 4, 1.0, RngStream(2))
        model = fit(data, w, 0.5)
        kern = discrete_kernel(data, w).matrix.array
        res = (kern + 0.5 * np.eye(3)) @ model.alpha - data.labels
        assert np.abs(res).max() <= 1e-10

    def test_fits_solve_the_dense_identity_sum(self):
        # Both fits solve the shifted kernel in place; the coefficients are
        # those of a solve against K + lambda I built with a dense identity.
        data = unit_data(n=6, seed=3)
        w = sample_weights(32, 4, 1.0, RngStream(3))
        kern = discrete_kernel(data, w)
        dense = SymMatrix(kern.matrix.array + 0.3 * np.eye(6))
        assert fit(data, w, 0.3).alpha.tobytes() == spd_solve(dense, data.labels).tobytes()
        pm = fit_private(data, w, 0.3, 50, DP, DP, 1e-4, RngStream(4), enforce=False)
        private_dense = SymMatrix(pm.private_kernel.array + 0.3 * np.eye(6))
        assert pm.private_alpha.tobytes() == spd_solve(private_dense, data.labels).tobytes()

    def test_lambda_must_be_positive(self):
        data = unit_data()
        w = sample_weights(4, 4, 1.0, RngStream(3))
        with pytest.raises(ValueError):
            fit(data, w, 0.0)
        # fit and fit_private share one check, which refuses NaN and inf too.
        for lam in (math.nan, math.inf):
            with pytest.raises(ValueError, match="lambda must be finite and positive"):
                fit(data, w, lam)
            with pytest.raises(ValueError, match="lambda must be finite and positive"):
                fit_private(data, w, lam, 50, DP, DP, 1e-4, RngStream(4), enforce=False)


class TestPredict:
    def test_zero_alpha_zero_prediction(self):
        data = unit_data(labels=np.zeros((5, 1)))
        w = sample_weights(8, 4, 1.0, RngStream(4))
        model = fit(data, w, 1.0)
        assert predict(model, data.features[0])[0] == 0.0

    def test_scalar_case(self):
        data = Dataset(np.array([[1.0, 0.0]]), np.array([[1.0]]), 1.0)
        w = WeightMatrix(np.array([[1.0, 1.0]]), sigma=1.0)
        model = fit(data, w, 1.0)
        # f(x1) = (1/1) * K(x1,x1) * alpha = 1 * 0.5
        assert predict(model, np.array([1.0, 0.0]))[0] == pytest.approx(0.5)

    def test_matches_independent_oracle(self):
        data = unit_data(n=4, seed=5)
        w = sample_weights(12, 4, 1.0, RngStream(5))
        model = fit(data, w, 1.5)
        g = np.random.default_rng(6)
        for _ in range(3):
            x = g.standard_normal(4)
            x /= np.linalg.norm(x)
            expected = oracle_predict(data, w, 1.5, x)
            np.testing.assert_allclose(predict(model, x), expected.ravel(), atol=1e-10)


class TestFitPrivate:
    def test_work_budget(self, monkeypatch):
        # One private fit: one sytrd (eta_min), one potrf for the sampling
        # mechanism's factor, one posv for the ridge solve, one trmm for the
        # mechanism's product, and no SymMatrix copy: the kernel and the
        # release are adopted as built.
        import dpntk.linalg as linalg_module
        import dpntk.privacy as privacy_module

        calls = []
        for module, name in ((linalg_module, "potrf"), (linalg_module, "posv"), (linalg_module, "sytrd"),
                             (privacy_module, "trmm")):
            routine = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, _f=routine, _n=name, **k: calls.append(_n) or _f(*a, **k)
            )
        post_init = SymMatrix.__post_init__
        monkeypatch.setattr(SymMatrix, "__post_init__", lambda m: calls.append("SymMatrix") or post_init(m))
        data = unit_data(n=40, d=16, seed=11)
        w = sample_weights(256, 16, 1.0, RngStream(11))
        fit_private(data, w, 0.3, 20_000, DP, DP, 1e-6, RngStream(12), enforce=False)
        assert sorted(calls) == ["posv", "potrf", "sytrd", "trmm"]

    def test_zero_labels_zero_private_alpha(self):
        data = unit_data(labels=np.zeros((5, 1)))
        w = sample_weights(16, 4, 1.0, RngStream(7))
        pm = fit_private(data, w, 1.0, 50, DP, DP, 1e-4, RngStream(8), enforce=False)
        np.testing.assert_array_equal(pm.private_alpha, np.zeros((5, 1)))

    def test_budget_is_exact_composition(self):
        data = unit_data()
        w = sample_weights(16, 4, 1.0, RngStream(9))
        dp_x = DPParams(0.25, 5e-4)
        dp_a = DPParams(0.75, 1.5e-3)
        pm = fit_private(data, w, 1.0, 50, dp_a, dp_x, 1e-5, RngStream(10), enforce=False)
        assert pm.budget.epsilon == dp_x.epsilon + dp_a.epsilon
        assert pm.budget.delta == dp_x.delta + dp_a.delta

    def test_enforce_raises_on_infeasible(self):
        data = unit_data()
        w = sample_weights(16, 4, 1.0, RngStream(11))
        with pytest.raises(BudgetInfeasibleError) as exc:
            fit_private(data, w, 1.0, 10**6, DPParams(0.1, 1e-3), DP, 0.1, RngStream(12))
        assert not exc.value.report.feasible

    def test_k_zero_refused_before_any_mechanism(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a mechanism ran on an infeasible budget")

        monkeypatch.setattr("dpntk.regression.gaussian_sampling_mechanism", never)
        monkeypatch.setattr("dpntk.regression.privatize_dataset", never)
        data = unit_data()
        w = sample_weights(16, 4, 1.0, RngStream(11))
        with pytest.raises(BudgetInfeasibleError) as exc:
            fit_private(data, w, 1.0, 0, DP, DP, 1e-4, RngStream(12))
        assert not exc.value.report.k_ge_one

    def test_holds_the_kernel_it_solved_against(self):
        data = unit_data()
        w = sample_weights(16, 4, 1.0, RngStream(13))
        kern = discrete_kernel(data, w)
        pm = fit_private(data, w, 1.0, 100, DP, DP, 1e-2, RngStream(14), enforce=False,
                         kernel=kern)
        replay = gaussian_sampling_mechanism(kern.matrix, 100, RngStream(14))
        assert pm.private_kernel.array.tobytes() == replay.array.tobytes()
        solved = spd_solve(pm.private_kernel.array + np.eye(5), data.labels)
        assert pm.private_alpha.tobytes() == solved.tobytes()

    def test_raw_features_not_retained(self):
        data = unit_data()
        w = sample_weights(16, 4, 1.0, RngStream(13))
        pm = fit_private(data, w, 1.0, 100, DP, DP, 1e-2, RngStream(14), enforce=False)
        assert not np.array_equal(pm.private_features.features, data.features)
        assert pm.private_features.bound_B > data.bound_B

    def test_deterministic_given_stream(self):
        data = unit_data()
        w = sample_weights(16, 4, 1.0, RngStream(15))
        a = fit_private(data, w, 1.0, 64, DP, DP, 1e-3, RngStream(16), enforce=False)
        b = fit_private(data, w, 1.0, 64, DP, DP, 1e-3, RngStream(16), enforce=False)
        np.testing.assert_array_equal(a.private_alpha, b.private_alpha)
        np.testing.assert_array_equal(
            a.private_features.features, b.private_features.features
        )

    def test_private_predictions_converge_in_k(self):
        # beta = 0 isolates the kernel noise; the median prediction gap over
        # 20 seeds must be non-increasing across k = 1e2, 1e4, 1e6.
        data = unit_data(n=5, seed=20)
        w = sample_weights(64, 4, 1.0, RngStream(21))
        model = fit(data, w, 1.0)
        x = np.zeros(4)
        x[0] = 1.0
        base = predict(model, x)[0]
        medians = []
        for k in (100, 10_000, 1_000_000):
            gaps = [
                abs(
                    predict_private(
                        fit_private(
                            data, w, 1.0, k, DP, DP, 0.0,
                            RngStream(s).substream(f"k{k}"), enforce=False,
                        ),
                        x,
                    )[0]
                    - base
                )
                for s in range(20)
            ]
            medians.append(np.median(gaps))
        assert medians[0] >= medians[1] >= medians[2]


class TestPostProcessing:
    def test_predictions_depend_only_on_released_state(self):
        data = unit_data(seed=30)
        w = sample_weights(32, 4, 1.0, RngStream(31))
        pm = fit_private(data, w, 1.0, 128, DP, DP, 1e-3, RngStream(32), enforce=False)
        replay = PrivateNTKModel(
            private_features=pm.private_features,
            weights=pm.weights,
            lam=pm.lam,
            private_alpha=pm.private_alpha,
            budget=pm.budget,
            condition_report=pm.condition_report,
        )
        g = np.random.default_rng(33)
        for _ in range(20):
            x = g.standard_normal(4)
            x /= np.linalg.norm(x)
            np.testing.assert_array_equal(predict_private(pm, x), predict_private(replay, x))


class TestBatchPredict:
    def _queries(self):
        g = np.random.default_rng(50)
        x = g.standard_normal((12, 5))
        return x / np.linalg.norm(x, axis=1, keepdims=True)

    @pytest.mark.parametrize("n_cls", [1, 2, 3])
    def test_batch_rows_equal_single_queries_bit_for_bit(self, n_cls):
        data = generate_synthetic(24, 5, n_cls, 1.0, RngStream(51))
        w = sample_weights(48, 5, 1.0, RngStream(52))
        plain = fit(data, w, 1.0)
        private = fit_private(data, w, 1.0, 256, DP, DP, 1e-4, RngStream(53), enforce=False)
        q = self._queries()
        for model, score in ((plain, predict), (private, predict), (private, predict_private)):
            batch = score(model, q)
            single = np.stack([score(model, x) for x in q])
            assert batch.shape == (12, n_cls)
            assert np.array_equal(batch, single)
            labels = decode(batch)
            assert np.array_equal(labels, [decode(row) for row in single])
            if n_cls == 1:
                assert np.array_equal(labels, np.where(batch[:, 0] >= 0, 1, -1))
            else:
                assert np.array_equal(labels, np.argmax(batch, axis=1))
        np.testing.assert_array_equal(predict(private, q), predict_private(private, q))

    @pytest.mark.parametrize("x, row", [
        ([1e200, 0.0], 0),
        ([[0.5, 0.0], [1e200, 0.0], [0.0, 1.0]], 1),
    ])
    def test_overflowing_query_raises_with_its_row(self, x, row):
        data = Dataset(np.eye(2), np.array([[1.0], [-1.0]]), 1.0)
        w = sample_weights(8, 2, 1.0, RngStream(1))
        private = fit_private(data, w, 1.0, 256, DP, DP, 1e-4, RngStream(2), enforce=False)
        for model in (fit(data, w, 1.0), private):
            with pytest.warns(UserWarning, match="bound_B") as rec, pytest.raises(
                ValueError, match=f"query row {row}: non-finite scores"
            ):
                predict(model, np.array(x))
            assert [r.category for r in rec] == [UserWarning]


def unit_rows(q, d, seed):
    x = np.random.default_rng(seed).standard_normal((q, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestPrimalScores:
    """predict scores through V = sum_j alpha_j phi(x_j) / n; the dual
    kernel_vector(Q, X, w) @ alpha / n is the reference."""

    @pytest.mark.parametrize("n, d, m, sigma, n_cls", [
        (1, 4, 16, 1.0, 2),   # one training row
        (12, 6, 3, 1.0, 2),   # m < d: R has m rows
        (10, 5, 1, 1.0, 3),   # m = 1
        (9, 4, 8, 0.0, 2),    # sigma = 0: every score is exactly 0
        (20, 5, 48, 0.7, 3),
        (15, 3, 64, 1.0, 1),
    ])
    def test_scores_equal_the_dual_form(self, n, d, m, sigma, n_cls):
        data = Dataset(unit_rows(n, d, n + d + m),
                       np.random.default_rng(m).standard_normal((n, n_cls)), 1.0)
        w = sample_weights(m, d, sigma, RngStream(70))
        plain = fit(data, w, 1.0)
        private = fit_private(data, w, 1.0, 256, DP, DP, 1e-4, RngStream(71), enforce=False)
        q = unit_rows(7, d, 72)
        for model, train, alpha in ((plain, data, plain.alpha),
                                    (private, private.private_features, private.private_alpha)):
            kv = kernel_vector(q, train, w)
            dual = kv @ alpha / train.n
            primal = predict(model, q)
            assert primal.shape == (7, n_cls)
            # rtol 1e-12 of each score; where the dual sum cancels, of the sum
            # of its absolute terms (0 at sigma = 0, so exact zeros there).
            scale = np.maximum(np.abs(dual), np.abs(kv) @ np.abs(alpha) / train.n)
            assert np.all(np.abs(primal - dual) <= 1e-12 * scale)
            if sigma == 0.0:
                assert np.all(primal == 0.0)

    def test_scoring_builds_no_kernel_row(self, tmp_path, monkeypatch):
        data = generate_synthetic(24, 5, 2, 1.0, RngStream(73))
        w = sample_weights(48, 5, 1.0, RngStream(74))
        plain = fit(data, w, 1.0)
        private = fit_private(data, w, 1.0, 256, DP, DP, 1e-4, RngStream(75), enforce=False)
        expected = [predict(plain, data.features), predict(private, data.features)]
        save_model(private, str(tmp_path / "private.bin"))
        save_features_csv(data, str(tmp_path / "q.csv"))

        def refuse(*args, **kwargs):
            raise AssertionError("a dual kernel row was built to score a query")

        for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "dpntk"]:
            for name in ("_kernel_rows", "kernel_vector"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, refuse)
        assert np.array_equal(predict(plain, data.features), expected[0])
        assert np.array_equal(predict_private(private, data.features), expected[1])
        assert main(["predict", "--model", str(tmp_path / "private.bin"),
                     "--input", str(tmp_path / "q.csv"), "--out", str(tmp_path / "p.csv")]) == EXIT_OK
        assert len((tmp_path / "p.csv").read_text().splitlines()) == 25

    def test_primal_is_cached_over_read_only_coefficients(self):
        # The primal block V is built once per model from its coefficients,
        # so neither may change after the first query.
        data = generate_synthetic(20, 5, 2, 1.0, RngStream(76))
        w = sample_weights(24, 5, 1.0, RngStream(77))
        plain = fit(data, w, 1.0)
        private = fit_private(data, w, 1.0, 256, DP, DP, 1e-4, RngStream(78), enforce=False)
        for model, alpha in ((plain, plain.alpha), (private, private.private_alpha)):
            with pytest.raises(ValueError, match="read-only"):
                alpha[0, 0] = 1.0
            v = model.primal
            assert v.shape == (2, 5, 5) and not v.flags.writeable
            assert model.primal is v
            with pytest.raises(ValueError, match="read-only"):
                v[0, 0, 0] = 1.0

    def test_non_contiguous_queries_equal_a_contiguous_copy(self):
        data = generate_synthetic(30, 6, 3, 1.0, RngStream(80))
        w = sample_weights(40, 6, 1.0, RngStream(81))
        model = fit_private(data, w, 1.0, 256, DP, DP, 1e-4, RngStream(82), enforce=False)
        q = unit_rows(14, 6, 83)
        for view in (np.asfortranarray(q), q[::2], q[::-3]):
            assert not view.flags.c_contiguous
            assert np.array_equal(predict(model, view), predict(model, view.copy(order="C")))

    def test_batch_longer_than_a_block_equals_single_queries(self):
        d, m = 32, 64
        data = generate_synthetic(42, d, 3, 1.0, RngStream(76))
        w = sample_weights(m, d, 1.0, RngStream(77))
        model = fit_private(data, w, 1.0, 256, DP, DP, 1e-4, RngStream(78), enforce=False)
        q = unit_rows(131, d, 79)
        batch = predict(model, q)
        assert np.array_equal(batch, np.stack([predict(model, x) for x in q]))


class TestPredictClass:
    def _toy_model(self):
        data = generate_synthetic(20, 5, 2, 1.2, RngStream(40))
        w = sample_weights(64, 5, 1.0, RngStream(41))
        return data, fit(data, w, 1.0)

    def test_separable_toy_classified_correctly(self):
        data, model = self._toy_model()
        for i in range(data.n):
            assert decode(predict(model, data.features[i])) == int(np.argmax(data.labels[i]))

    def test_tie_breaks_to_lowest_index(self):
        data = Dataset(np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]]), 1.0)
        w = WeightMatrix(np.array([[1.0, 1.0]]), sigma=1.0)
        model = fit(data, w, 1.0)
        assert decode(predict(model, np.array([1.0, 0.0]))) == 0

    def test_permuting_label_columns_permutes_argmax(self):
        data, model = self._toy_model()
        perm = [1, 0]
        permuted = Dataset(data.features, data.labels[:, perm], data.bound_B)
        model_p = fit(permuted, model.weights, model.lam)
        for i in range(0, data.n, 3):
            a = decode(predict(model, data.features[i]))
            b = decode(predict(model_p, data.features[i]))
            assert b == perm.index(a)


class TestUtilityBounds:
    def test_inverse_gap_examples(self):
        assert inverse_gap_bound(0.0, 1.0, 2.0, 1.0) == 0.0
        assert inverse_gap_bound(0.1, 1.0, 2.0, 1.0) == pytest.approx(0.05)
        lams = [inverse_gap_bound(0.1, 1.0, 2.0, l) for l in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(lams, lams[1:]))

    def test_kxx_gap_examples(self):
        assert kxX_gap_bound(4, 1, 1.0, 1.0, 0.0) == 0.0
        assert kxX_gap_bound(4, 4, 1.0, 1.0, 1.0) == pytest.approx(8.0)

    def test_regression_utility_examples(self):
        assert regression_utility_bound(0.1, 1.0, 2.0, 1.0, 1, 1.0, 1.0, 0.0) == pytest.approx(0.3)
        assert regression_utility_bound(0.0, 1.0, 2.0, 1.0, 1, 1.0, 1.0, 0.0) == 0.0
        # omega = 6 d sigma^2 B^4 = 72 at d = 3, sigma = 2, B = 1.
        assert regression_utility_bound(0.1, 1.0, 2.0, 1.0, 3, 2.0, 1.0, 0.0) == pytest.approx(
            0.1 * 2.0 * 72 / 4.0
        )

    def test_shifted_kernel_must_be_positive(self):
        with pytest.raises(ValueError, match=r"eta_min \+ lambda"):
            inverse_gap_bound(0.1, -1.0, 2.0, 1.0)
        with pytest.raises(ValueError, match=r"eta_min \+ lambda"):
            regression_utility_bound(0.1, -1.0, 2.0, 1.0, 1, 1.0, 1.0, 0.0)

    def test_kxx_gap_empirical(self):
        from dpntk.privacy import privatize_dataset, trunc_lap_width

        data = unit_data(seed=50)
        w = sample_weights(64, 4, 1.0, RngStream(51))
        x = np.array([1.0, 0.0, 0.0, 0.0])
        base = kernel_vector(x, data, w)
        beta = 1e-3
        b_l = trunc_lap_width(2.0 * beta, DP.epsilon, DP.delta)
        bound = kxX_gap_bound(5, 4, 1.0, 1.0, b_l)
        for s in range(100):
            priv = privatize_dataset(data, beta, DP, RngStream(s))
            gap = np.linalg.norm(kernel_vector(x, priv, w) - base)
            assert gap <= bound

    def test_inverse_gap_empirical_with_slack_ten(self):
        from dpntk.privacy import gaussian_sampling_mechanism

        data = unit_data(seed=60)
        w = sample_weights(128, 4, 1.0, RngStream(61))
        kern = discrete_kernel(data, w)
        lam, k = 1.0, 10_000
        shifted = kern.matrix.array + lam * np.eye(5)
        inv_plain = np.linalg.inv(shifted)
        rho = rho_bound(5, k, 0.01, 1.0)
        bound = 10.0 * inverse_gap_bound(rho, kern.eta_min, kern.eta_max, lam)
        hits = 0
        for s in range(200):
            est = gaussian_sampling_mechanism(kern.matrix, k, RngStream(s))
            gap = np.linalg.norm(np.linalg.inv(est.array + lam * np.eye(5)) - inv_plain, 2)
            hits += int(gap <= bound)
        assert hits >= 190

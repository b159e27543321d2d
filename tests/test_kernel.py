import numpy as np
import pytest

from dpntk.kernel import (
    Dataset,
    WeightMatrix,
    continuous_kernel,
    discrete_kernel,
    kernel_vector,
    normalize_rows,
    sample_weights,
)
from dpntk.linalg import eigen_extremes
from dpntk.rng import RngStream


def naive_discrete_entry(weights, xi, xj):
    """Triple-loop evaluation of the defining sum, no algebraic identity."""
    m = weights.shape[0]
    total = 0.0
    for r in range(m):
        left = np.dot(weights[r], xi) * xi
        right = np.dot(weights[r], xj) * xj
        total += float(np.dot(left, right))
    return total / m


def unit_rows(n, d, seed):
    g = np.random.default_rng(seed)
    x = g.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestDataset:
    def test_row_norm_validated_against_bound(self):
        with pytest.raises(ValueError, match="exceeds bound_B"):
            Dataset(np.array([[3.0, 4.0]]), np.zeros((1, 1)), bound_B=1.0)

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            Dataset(np.eye(2), np.zeros((2, 1)), bound_B=0.0)

    def test_labels_length_checked(self):
        with pytest.raises(ValueError):
            Dataset(np.eye(2), np.zeros((3, 1)), bound_B=2.0)

    def test_immutable(self):
        d = Dataset(np.eye(2), np.zeros((2, 1)), bound_B=1.0)
        with pytest.raises(ValueError):
            d.features[0, 0] = 2.0


class TestSampleWeights:
    def test_sigma_zero_gives_all_zero(self):
        w = sample_weights(3, 2, 0.0, RngStream(1))
        assert np.array_equal(w.weights, np.zeros((3, 2)))

    def test_moments_at_one_million_entries(self):
        w = sample_weights(1000, 1000, 1.0, RngStream(5))
        flat = w.weights.ravel()
        assert abs(flat.mean()) <= 0.005
        assert abs(flat.var() - 1.0) <= 0.01

    def test_deterministic_given_stream(self):
        a = sample_weights(10, 4, 2.0, RngStream(9))
        b = sample_weights(10, 4, 2.0, RngStream(9))
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_records_stream_path(self):
        w = sample_weights(2, 2, 1.0, RngStream(1).substream("exp"))
        assert "weights" in w.seed_record


class TestDiscreteKernel:
    def test_orthogonal_rows_give_zero_entry(self):
        data = Dataset(np.eye(2), np.zeros((2, 1)), bound_B=1.0)
        w = sample_weights(16, 2, 1.0, RngStream(3))
        kern = discrete_kernel(data, w)
        assert kern.matrix.array[0, 1] == 0.0

    def test_single_weight_direct_evaluation(self):
        # m=1, w=(1,1), x=(1,0): (w.x)^2 ||x||^2 = 1
        data = Dataset(np.array([[1.0, 0.0]]), np.zeros((1, 1)), bound_B=1.0)
        w = WeightMatrix(np.array([[1.0, 1.0]]), sigma=1.0)
        kern = discrete_kernel(data, w)
        assert kern.matrix.array[0, 0] == pytest.approx(1.0)

    def test_matches_naive_triple_loop(self):
        data = Dataset(unit_rows(3, 2, 0), np.zeros((3, 1)), bound_B=1.0)
        w = sample_weights(50, 2, 1.0, RngStream(8))
        kern = discrete_kernel(data, w).matrix.array
        for i in range(3):
            for j in range(3):
                expected = naive_discrete_entry(w.weights, data.features[i], data.features[j])
                assert kern[i, j] == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        data = Dataset(np.eye(3), np.zeros((3, 1)), bound_B=1.0)
        w = sample_weights(4, 2, 1.0, RngStream(1))
        with pytest.raises(ValueError, match="dim"):
            discrete_kernel(data, w)

    def test_psd_over_random_instances(self):
        gen = np.random.default_rng(17)
        for t in range(200):
            n = int(gen.integers(1, 7))
            d = int(gen.integers(1, 5))
            m = int(gen.integers(1, 20))
            data = Dataset(unit_rows(n, d, 1000 + t), np.zeros((n, 1)), bound_B=1.0)
            w = sample_weights(m, d, 1.0, RngStream(t))
            lo, _ = eigen_extremes(discrete_kernel(data, w).matrix)
            assert lo >= -1e-8

    def test_exactly_symmetric(self):
        data = Dataset(unit_rows(7, 3, 4), np.zeros((7, 1)), bound_B=1.0)
        w = sample_weights(33, 3, 1.0, RngStream(2))
        h = discrete_kernel(data, w).matrix.array
        assert np.array_equal(h, h.T)

    def test_kernel_matrix_caches_extremes_and_checks_kind(self):
        from dpntk.kernel import KernelMatrix
        from dpntk.linalg import SymMatrix

        with pytest.raises(ValueError, match="kind"):
            KernelMatrix(SymMatrix(np.eye(2)), kind="noisy")
        kern = KernelMatrix(SymMatrix(np.diag([1.0, 3.0])), kind="privatized")
        assert (kern.eta_min, kern.eta_max) == (1.0, 3.0)
        assert kern._extremes is kern._extremes  # cached, not recomputed


class TestContinuousKernel:
    def test_identical_unit_rows(self):
        data = Dataset(np.array([[1.0, 0.0], [1.0, 0.0]]), np.zeros((2, 1)), bound_B=1.0)
        kern = continuous_kernel(data, 1.0)
        np.testing.assert_allclose(kern.matrix.array, np.ones((2, 2)))

    def test_direct_formula(self):
        # x_i . x_j = 0.5, sigma = 2 -> 4 * 0.25 = 1
        x = np.array([[1.0, 0.0], [0.5, np.sqrt(0.75)]])
        data = Dataset(x, np.zeros((2, 1)), bound_B=1.0)
        kern = continuous_kernel(data, 2.0)
        assert kern.matrix.array[0, 1] == pytest.approx(1.0)

    def test_monte_carlo_expectation_over_single_weight_draws(self):
        # Mean of m=1 kernels converges to the closed form; at 1e4 draws the
        # entrywise gap stays under 0.05 and the Frobenius gap under
        # 0.05 sigma^2 B^4. Tetrahedron rows keep the per-entry variance
        # representative rather than dominated by near-collinear pairs.
        tetra = np.array(
            [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
        ) / np.sqrt(3.0)
        data = Dataset(tetra, np.zeros((4, 1)), bound_B=1.0)
        target = continuous_kernel(data, 1.0).matrix.array
        total = np.zeros((4, 4))
        root = RngStream(78)
        draws = 10_000
        for t in range(draws):
            w = sample_weights(1, 3, 1.0, root.substream(f"d{t}"))
            total += discrete_kernel(data, w).matrix.array
        mean = total / draws
        assert np.max(np.abs(mean - target)) <= 0.05
        assert np.linalg.norm(mean - target) <= 0.05

    def test_psd(self):
        data = Dataset(unit_rows(6, 4, 3), np.zeros((6, 1)), bound_B=1.0)
        lo, _ = eigen_extremes(continuous_kernel(data, 1.5).matrix)
        assert lo >= -1e-10

    def test_gap_shrinks_with_more_weights(self):
        # Frobenius gap to the closed form decays like 1/sqrt(m): quadrupling
        # m should shrink the median gap by at least 1.8x.
        data = Dataset(unit_rows(4, 3, 5), np.zeros((4, 1)), bound_B=1.0)
        target = continuous_kernel(data, 1.0).matrix.array
        medians = []
        for m in (1000, 4000, 16000):
            gaps = []
            for s in range(30):
                w = sample_weights(m, 3, 1.0, RngStream(s).substream(f"m{m}"))
                gaps.append(np.linalg.norm(discrete_kernel(data, w).matrix.array - target))
            medians.append(np.median(gaps))
        assert medians[0] / medians[1] >= 1.8
        assert medians[1] / medians[2] >= 1.8


class TestKernelVector:
    def test_orthogonal_query_gives_zero(self):
        data = Dataset(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), np.zeros((2, 1)), 1.0)
        w = sample_weights(8, 3, 1.0, RngStream(4))
        kv = kernel_vector(np.array([0.0, 0.0, 1.0]), data, w)
        np.testing.assert_array_equal(kv, np.zeros(2))

    def test_training_row_reproduces_matrix_row_exactly(self):
        data = Dataset(unit_rows(6, 4, 9), np.zeros((6, 1)), bound_B=1.0)
        w = sample_weights(25, 4, 1.0, RngStream(5))
        h = discrete_kernel(data, w).matrix.array
        for i in range(6):
            kv = kernel_vector(data.features[i].copy(), data, w)
            assert np.array_equal(kv, h[i])
        assert np.array_equal(kernel_vector(data.features, data, w), h)

    def test_matches_naive_evaluation(self):
        data = Dataset(unit_rows(3, 4, 11), np.zeros((3, 1)), bound_B=1.0)
        w = sample_weights(20, 4, 1.0, RngStream(6))
        x = unit_rows(1, 4, 12)[0]
        kv = kernel_vector(x, data, w)
        for j in range(3):
            expected = naive_discrete_entry(w.weights, x, data.features[j])
            assert kv[j] == pytest.approx(expected, abs=1e-12)

    def test_out_of_ball_query_warns(self):
        data = Dataset(unit_rows(2, 3, 13), np.zeros((2, 1)), bound_B=1.0)
        w = sample_weights(4, 3, 1.0, RngStream(7))
        with pytest.warns(UserWarning, match="bound_B"):
            kernel_vector(np.array([2.0, 0.0, 0.0]), data, w)

    def test_batch_with_one_out_of_ball_row_warns_once(self):
        data = Dataset(unit_rows(2, 3, 13), np.zeros((2, 1)), bound_B=1.0)
        w = sample_weights(4, 3, 1.0, RngStream(7))
        batch = np.vstack([unit_rows(3, 3, 15), [[0.0, 2.0, 0.0]]])
        with pytest.warns(UserWarning, match="query norm 2 exceeds bound_B") as rec:
            kv = kernel_vector(batch, data, w)
        assert len(rec) == 1
        assert kv.shape == (4, 2)

    def test_dimension_mismatch(self):
        data = Dataset(unit_rows(2, 3, 14), np.zeros((2, 1)), bound_B=1.0)
        w = sample_weights(4, 3, 1.0, RngStream(7))
        with pytest.raises(ValueError):
            kernel_vector(np.ones(4), data, w)


class TestNormalizeRows:
    def test_three_four_five(self):
        data = Dataset(np.array([[3.0, 4.0]]), np.zeros((1, 1)), bound_B=5.0)
        out = normalize_rows(data)
        np.testing.assert_allclose(out.features, [[0.6, 0.8]])
        assert out.bound_B == 1.0

    def test_idempotent_on_unit_rows(self):
        data = Dataset(np.array([[0.6, 0.8]]), np.zeros((1, 1)), bound_B=1.0)
        out = normalize_rows(normalize_rows(data))
        np.testing.assert_allclose(out.features, [[0.6, 0.8]], atol=1e-15)

    def test_all_norms_become_one(self):
        g = np.random.default_rng(20)
        data = Dataset(g.standard_normal((10, 5)), np.zeros((10, 1)), bound_B=10.0)
        out = normalize_rows(data)
        np.testing.assert_allclose(np.linalg.norm(out.features, axis=1), 1.0, atol=1e-12)

    def test_zero_row_rejected(self):
        data = Dataset(np.array([[0.0, 0.0], [1.0, 0.0]]), np.zeros((2, 1)), bound_B=1.0)
        with pytest.raises(ValueError, match="zero row"):
            normalize_rows(data)

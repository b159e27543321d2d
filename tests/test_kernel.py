import ast
import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest

import dpntk
from dpntk.kernel import (
    _KERNEL_BLOCK as B,
    Dataset,
    WeightMatrix,
    _closed_form_entries,
    _kernel_rows,
    continuous_kernel,
    discrete_kernel,
    kernel_vector,
    normalize_rows,
    sample_weights,
)
from dpntk.linalg import eigen_extremes
from dpntk.regression import fit, predict
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

    def test_bound_must_be_finite(self):
        with pytest.raises(ValueError, match="bound_B must be finite"):
            Dataset(np.eye(2), np.zeros((2, 1)), bound_B=np.inf)

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

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0, 2.5])
    def test_weights_are_sigma_times_the_normals(self, sigma):
        normals = RngStream(4).substream("weights").generator().standard_normal((30, 7))
        w = sample_weights(30, 7, sigma, RngStream(4))
        # Bit patterns, so sigma = 0 must give -0.0 where a normal is negative.
        assert np.array_equal(w.weights.view(np.uint64), (sigma * normals).view(np.uint64))


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf])
def test_every_sigma_taker_refuses_a_non_finite_sigma(sigma, monkeypatch):
    # One check (kernel._check_scale); sample_weights runs it before drawing.
    message = "sigma must be finite and non-negative"
    with pytest.raises(ValueError, match=message):
        WeightMatrix(np.ones((2, 2)), sigma)
    with pytest.raises(ValueError, match=message):
        continuous_kernel(Dataset(np.eye(2), np.zeros((2, 1)), bound_B=1.0), sigma)

    def never(stream):
        raise AssertionError("drew weights")

    monkeypatch.setattr(RngStream, "generator", never)
    with pytest.raises(ValueError, match=message):
        sample_weights(4, 2, sigma, RngStream(1))


class TestWeightFactor:
    def test_one_qr_per_weight_matrix(self, monkeypatch):
        calls = []
        qr = np.linalg.qr

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted)
        data = Dataset(unit_rows(6, 4, 21), np.ones((6, 1)), bound_B=1.0)
        w = sample_weights(40, 4, 1.0, RngStream(22))
        kern = discrete_kernel(data, w)
        kernel_vector(data.features[0], data, w)
        model = fit(data, w, 1.0, kernel=kern)
        predict(model, unit_rows(3, 4, 23))
        discrete_kernel(data, w)
        assert calls == [(40, 4)]

    def test_factor_is_read_only(self):
        w = sample_weights(5, 3, 1.0, RngStream(24))
        r = w.factor
        assert r.shape == (3, 3) and not r.flags.writeable
        with pytest.raises(ValueError):
            r[0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.factor = np.eye(3)
        assert w.factor is r
        np.testing.assert_allclose(r.T @ r, w.weights.T @ w.weights, atol=1e-12)


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

    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 1, 400])
    def test_block_build_equals_full_contraction(self, n):
        # Row blocks meet only the columns from their own first row on and
        # are mirrored; every block edge must land on the full build's bits.
        data = Dataset(unit_rows(n, 8, n), np.zeros((n, 1)), bound_B=1.0)
        w = sample_weights(40, 8, 1.0, RngStream(n))
        h = discrete_kernel(data, w).matrix.array
        assert h.tobytes() == _kernel_rows(data.features, data.features, w).tobytes()
        assert h.tobytes() == kernel_vector(data.features, data, w).tobytes()
        assert h.tobytes() == np.ascontiguousarray(h.T).tobytes()

    @pytest.mark.parametrize("m, d, sigma", [(3, 7, 1.0), (1, 5, 1.0), (1, 1, 2.0), (6, 4, 0.0)])
    def test_edge_shapes_match_naive_sum(self, m, d, sigma):
        # m < d and m = 1 give a factor R with fewer rows than d; sigma = 0
        # gives all-zero weights, whose kernel must be exact zeros.
        data = Dataset(unit_rows(5, d, 21), np.zeros((5, 1)), bound_B=1.0)
        w = sample_weights(m, d, sigma, RngStream(22))
        h = discrete_kernel(data, w).matrix.array
        queries = unit_rows(3, d, 23)
        kv = kernel_vector(queries, data, w)
        for rows, got in ((data.features, h), (queries, kv)):
            naive = [[naive_discrete_entry(w.weights, x, xj) for xj in data.features] for x in rows]
            np.testing.assert_allclose(got, naive, rtol=1e-12, atol=0.0)
        assert np.array_equal(kernel_vector(data.features, data, w), h)
        if sigma == 0.0:
            assert not h.any() and not kv.any()

    def test_kernel_matrix_caches_extremes(self, monkeypatch):
        # One sytrd for both ends; each end is bisected on its own first
        # read, once, so reading eta_min alone runs one stebz.
        import dpntk.linalg as linalg_module
        from dpntk.kernel import KernelMatrix
        from dpntk.linalg import SymMatrix

        calls = []
        for name in ("dsytrd", "dstebz"):
            lapack = getattr(linalg_module, name)
            monkeypatch.setattr(
                linalg_module, name, lambda *a, _f=lapack, _n=name, **k: calls.append(_n) or _f(*a, **k)
            )
        kern = KernelMatrix(SymMatrix(np.diag([1.0, 3.0])))
        assert kern.eta_min == 1.0
        assert calls == ["dsytrd", "dstebz"]
        assert kern.eta_min == 1.0
        assert calls == ["dsytrd", "dstebz"]
        assert kern.eta_max == 3.0
        assert kern.eta_max == 3.0
        assert calls == ["dsytrd", "dstebz", "dstebz"]
        assert (kern.eta_min, kern.eta_max) == eigen_extremes(kern.matrix)


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

    def test_exactly_symmetric_and_other_rows_unchanged(self):
        # Changing one row may move only that row and column, bit for bit;
        # the Lipschitz oracle measures that row alone.
        x = unit_rows(9, 5, 30)
        h = continuous_kernel(Dataset(x.copy(), np.zeros((9, 1)), 1.0), 1.3).matrix.array
        assert np.array_equal(h, h.T)
        x[4] = unit_rows(1, 5, 31)[0]
        hp = continuous_kernel(Dataset(x, np.zeros((9, 1)), 1.0), 1.3).matrix.array
        keep = np.arange(9) != 4
        assert np.array_equal(hp[np.ix_(keep, keep)], h[np.ix_(keep, keep)])
        assert not np.array_equal(hp[4], h[4])

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

    @pytest.mark.parametrize("n,d,m", [(1, 3, 5), (1, 4, 2), (2, 5, 3), (7, 4, 2),
                                       (33, 8, 1), (40, 16, 64)])
    def test_matrix_equals_query_path_bit_for_bit(self, n, d, m):
        # The matrix build fills one triangle and mirrors it; the query path
        # computes every entry. They must never drift apart.
        data = Dataset(unit_rows(n, d, 100 + n), np.zeros((n, 1)), bound_B=1.0)
        w = sample_weights(m, d, 1.3, RngStream(n * d + m))
        h = discrete_kernel(data, w).matrix.array
        assert np.array_equal(h, kernel_vector(data.features, data, w))

    def test_non_contiguous_queries_equal_a_contiguous_copy(self):
        data = Dataset(unit_rows(10, 6, 32), np.zeros((10, 1)), bound_B=1.0)
        w = sample_weights(40, 6, 1.0, RngStream(33))
        q = unit_rows(14, 6, 34)
        for view in (np.asfortranarray(q), q[::2], q[::-3]):
            assert not view.flags.c_contiguous
            expected = kernel_vector(view.copy(order="C"), data, w)
            assert np.array_equal(kernel_vector(view, data, w), expected)

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

    def test_training_row_at_the_ball_edge_scores_without_a_warning(self):
        # Dataset accepts a row up to the B-ball's absolute slack; scoring
        # that same row as a query must not warn that it leaves the ball.
        edge = np.array([[1e-6 + 5e-13, 0.0], [0.0, 1e-6]])
        data = Dataset(edge, np.array([[1.0], [-1.0]]), bound_B=1e-6)
        w = sample_weights(4, 2, 1.0, RngStream(7))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            predict(fit(data, w, 1.0), edge[0])

    def test_batch_with_one_out_of_ball_row_warns_once(self):
        data = Dataset(unit_rows(2, 3, 13), np.zeros((2, 1)), bound_B=1.0)
        w = sample_weights(4, 3, 1.0, RngStream(7))
        batch = np.vstack([unit_rows(3, 3, 15), [[0.0, 2.0, 0.0]]])
        with pytest.warns(UserWarning, match="query norm 2 exceeds bound_B") as rec:
            kv = kernel_vector(batch, data, w)
        assert len(rec) == 1
        assert kv.shape == (4, 2)

    @pytest.mark.parametrize("x, row", [
        ([1e200, 0.0], 0),
        ([[0.5, 0.0], [1e200, 0.0], [0.0, 1.0]], 1),
    ])
    def test_overflowing_query_raises_with_its_row(self, x, row):
        data = Dataset(np.eye(2), np.zeros((2, 1)), 1.0)
        w = sample_weights(8, 2, 1.0, RngStream(1))
        with pytest.warns(UserWarning, match="bound_B") as rec, pytest.raises(
            ValueError, match=f"query row {row}: non-finite kernel row"
        ):
            kernel_vector(np.array(x), data, w)
        assert [r.category for r in rec] == [UserWarning]

    @pytest.mark.parametrize("build", ["discrete", "continuous"])
    def test_overflowing_kernel_refused_without_a_warning(self, build):
        # Rows of norm about 2e100 are finite with finite norms, but their
        # kernel entries overflow; the suite turns numpy's RuntimeWarning
        # into an error, so only the ValueError may come out.
        x = np.array([[1e100, 1e100], [1e100, -1e100], [0.0, 1.0]])
        data = Dataset(x, np.zeros((3, 1)), bound_B=2e100)
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            if build == "discrete":
                discrete_kernel(data, sample_weights(8, 2, 1.0, RngStream(1)))
            else:
                continuous_kernel(data, 1.0)

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

    def test_row_with_overflowing_norm_rejected(self):
        # Its true norm 1.4e308 is within the largest float, the bound; the
        # computed one overflows, and dividing by it would zero the row, so
        # no Dataset holds it for normalize_rows to see.
        with pytest.raises(ValueError, match="row 1: norm is not finite"):
            Dataset(np.array([[1.0, 0.0], [1e308, 1e308]]), np.zeros((2, 1)),
                    bound_B=np.finfo(np.float64).max)


class TestStackedKernels:
    """A (T, n, d) stack of datasets through the same contraction as one
    dataset: slice t equals the lone build of dataset t bit for bit."""

    def _stacks(self, n, d):
        g = np.random.default_rng(n + d)
        x = g.standard_normal((14, n, d))
        x /= np.linalg.norm(x, axis=2, keepdims=True)
        return {"T=1": x[:1], "T=7": x[:7], "non-contiguous": x[::2]}

    @pytest.mark.parametrize("n, d, m", [(5, 4, 4096), (9, 33, 40), (1, 3, 7)])
    def test_discrete_slices_equal_single_builds(self, n, d, m):
        w = sample_weights(m, d, 1.3, RngStream(n))
        for name, stack in self._stacks(n, d).items():
            hp = _kernel_rows(stack, stack, w)
            assert hp.shape == (len(stack), n, n), name
            for t, feats in enumerate(stack):
                single = discrete_kernel(Dataset(feats, np.zeros((n, 1)), 1.0), w).matrix.array
                assert hp[t].tobytes() == single.tobytes(), (name, t)

    @pytest.mark.parametrize("n, d", [(5, 4), (9, 33), (1, 3)])
    def test_closed_form_slices_equal_single_builds(self, n, d):
        for name, stack in self._stacks(n, d).items():
            hp = _closed_form_entries(stack, 1.3)
            for t, feats in enumerate(stack):
                single = continuous_kernel(Dataset(feats, np.zeros((n, 1)), 1.0), 1.3).matrix.array
                assert hp[t].tobytes() == single.tobytes(), (name, t)


def test_every_einsum_runs_numpy_c_loop():
    # optimize=True may route a contraction through BLAS (tensordot), whose
    # rounding depends on the batch shape and the BLAS thread count.
    calls = []
    for path in sorted(Path(dpntk.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "einsum":
                opt = [k.value for k in node.keywords if k.arg == "optimize"]
                calls.append((path.name, node.lineno))
                assert len(opt) == 1 and isinstance(opt[0], ast.Constant), calls[-1]
                assert opt[0].value is False, calls[-1]
    assert len(calls) >= 3

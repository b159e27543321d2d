import math

import numpy as np
import pytest
import scipy.linalg

from dpntk.linalg import (
    _ASYM_RTOL,
    NotPSDError,
    NotPositiveDefiniteError,
    SymMatrix,
    eigen_extremes,
    is_psd,
    psd_factor,
    psd_sqrt,
    spd_solve,
    sym_eigen,
)
from dpntk.kernel import Dataset, WeightMatrix, discrete_kernel


class TestSymMatrix:
    def test_bitwise_symmetry_after_construction(self):
        gen = np.random.default_rng(0)
        a = gen.standard_normal((6, 6))
        m = SymMatrix(a + a.T)
        assert np.array_equal(m.array, m.array.T)

    @pytest.mark.parametrize("n", [1, 2, 5, 400])
    def test_stores_the_upper_triangle_and_mirrors_it(self, n):
        # The lower triangle is perturbed within the accepted asymmetry, so a
        # constructor that kept it (or averaged the two) would be caught.
        gen = np.random.default_rng(n)
        a = gen.standard_normal((n, n))
        a = a + a.T
        lower = np.tril_indices(n, -1)
        a[lower] *= 1.0 + 0.01 * _ASYM_RTOL * gen.uniform(0.5, 1.0, len(lower[0]))
        arr = SymMatrix(a).array
        upper = np.triu_indices(n)
        assert arr[upper].tobytes() == a[upper].tobytes()
        assert arr.T[upper].tobytes() == a[upper].tobytes()
        if n > 1:
            assert not np.array_equal(arr[lower], a[lower])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            SymMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))

    @pytest.mark.parametrize("upper", [0.25, 25.0])
    def test_asymmetry_at_the_tolerance_edge(self, upper):
        # The tolerance is _ASYM_RTOL * max(1, ||a||_F), with ||a||_F about
        # sqrt(2) * upper here: 1e-8 at 0.25, 3.5e-7 at 25. Just inside it the
        # upper triangle is kept and mirrored; just outside it raises.
        tol = _ASYM_RTOL * max(1.0, math.sqrt(2.0) * upper)
        inside = np.array([[0.0, upper], [upper + 0.9 * tol, 0.0]])
        assert inside[1, 0] != upper
        arr = SymMatrix(inside).array
        assert arr[1, 0] == arr[0, 1] == upper
        outside = np.array([[0.0, upper], [upper + 1.1 * tol, 0.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            SymMatrix(outside)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            SymMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            SymMatrix(np.zeros((2, 3)))

    def test_entries_read_only(self):
        m = SymMatrix(np.eye(3))
        with pytest.raises(ValueError):
            m.array[0, 0] = 5.0


class TestSymEigen:
    def test_identity(self):
        w, v = sym_eigen(np.eye(3))
        np.testing.assert_allclose(w, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(v @ v.T, np.eye(3), atol=1e-14)

    def test_diagonal(self):
        w, v = sym_eigen(np.diag([1.0, 3.0]))
        np.testing.assert_allclose(w, [1.0, 3.0])
        # axis-aligned up to sign
        assert np.allclose(np.abs(v), np.eye(2), atol=1e-14)

    def test_2x2_characteristic_polynomial(self):
        # [[2,1],[1,2]]: det(A - t I) = (2-t)^2 - 1 = t^2 - 4t + 3 = (t-1)(t-3)
        w, _ = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(w, [1.0, 3.0], atol=1e-12)

    def test_reconstruction_on_random_matrices(self):
        gen = np.random.default_rng(42)
        for _ in range(200):
            n = int(gen.integers(1, 21))
            a = gen.standard_normal((n, n))
            a = SymMatrix(a + a.T)
            w, v = sym_eigen(a)
            recon = (v * w) @ v.T
            assert np.all(np.diff(w) >= 0)
            assert np.max(np.abs(recon - a.array)) <= 1e-10 * np.linalg.norm(a.array)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            sym_eigen(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestEigenExtremes:
    def test_identity(self):
        assert eigen_extremes(np.eye(4)) == (1.0, 1.0)

    def test_diagonal(self):
        lo, hi = eigen_extremes(np.diag([0.0, 5.0]))
        assert lo == pytest.approx(0.0, abs=1e-14)
        assert hi == pytest.approx(5.0)

    def test_duplicate_rows_give_zero_eigenvalue(self):
        # Identical data rows make the kernel rank deficient.
        x = np.array([[0.6, 0.8], [0.6, 0.8]])
        data = Dataset(x, np.zeros((2, 1)), bound_B=1.0)
        w = WeightMatrix(np.array([[0.3, -1.2], [0.7, 0.1]]), sigma=1.0)
        kern = discrete_kernel(data, w)
        lo, _ = eigen_extremes(kern.matrix)
        assert abs(lo) < 1e-10


class TestIsPsd:
    def test_identity(self):
        assert is_psd(np.eye(3), tol=0.0)

    def test_antisymmetric_spectrum(self):
        assert not is_psd(np.array([[0.0, 1.0], [1.0, 0.0]]), tol=1e-12)

    def test_rank_one_grams(self):
        gen = np.random.default_rng(7)
        for _ in range(100):
            g = gen.standard_normal(int(gen.integers(1, 9)))
            assert is_psd(np.outer(g, g))

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            is_psd(np.eye(2), tol=-1.0)


class TestPsdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(psd_sqrt(np.eye(3)).array, np.eye(3), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(
            psd_sqrt(np.diag([4.0, 9.0])).array, np.diag([2.0, 3.0]), atol=1e-12
        )

    def test_reconstruction_2x2(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        s = psd_sqrt(a).array
        np.testing.assert_allclose(s @ s, a, atol=1e-12)

    def test_reconstruction_on_random_psd(self):
        gen = np.random.default_rng(3)
        for _ in range(100):
            n = int(gen.integers(1, 13))
            m = gen.standard_normal((n, n))
            a = SymMatrix(m @ m.T)
            s = psd_sqrt(a).array
            err = np.linalg.norm(s @ s - a.array)
            assert err <= 1e-9 * max(1.0, np.linalg.norm(a.array))

    def test_exactly_singular_input_accepted(self):
        a = np.outer([1.0, 1.0], [1.0, 1.0])  # rank 1, eigenvalue 0
        s = psd_sqrt(a).array
        np.testing.assert_allclose(s @ s, a, atol=1e-12)

    def test_not_psd_raises(self):
        with pytest.raises(NotPSDError):
            psd_sqrt(np.array([[0.0, 1.0], [1.0, 0.0]]), tol=1e-12)

    def test_ndarray_input_validated_once(self, monkeypatch):
        # One SymMatrix for the ndarray input and one for the root.
        calls = []
        post_init = SymMatrix.__post_init__

        def counting(self):
            calls.append(1)
            post_init(self)

        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        expected = psd_sqrt(a).array
        monkeypatch.setattr(SymMatrix, "__post_init__", counting)
        assert np.array_equal(psd_sqrt(a).array, expected)
        assert len(calls) == 2


class TestPsdFactor:
    def test_cholesky_on_positive_definite(self):
        gen = np.random.default_rng(5)
        for _ in range(50):
            n = int(gen.integers(1, 13))
            m = gen.standard_normal((n, n))
            a = SymMatrix(m @ m.T + 1e-6 * np.eye(n))
            f = psd_factor(a)
            assert np.array_equal(f, np.tril(f))
            err = np.linalg.norm(f @ f.T - a.array)
            assert err <= 1e-12 * max(1.0, np.linalg.norm(a.array))

    def test_singular_input_falls_back_to_the_root(self):
        a = np.outer([1.0, 1.0], [1.0, 1.0])
        np.testing.assert_array_equal(psd_factor(a), psd_sqrt(a).array)

    def test_not_psd_raises(self):
        with pytest.raises(NotPSDError):
            psd_factor(np.array([[0.0, 1.0], [1.0, 0.0]]), tol=1e-12)

    def test_negative_tol_rejected_on_the_cholesky_path(self):
        with pytest.raises(ValueError, match="tol must be non-negative"):
            psd_factor(np.eye(2), tol=-1.0)


class TestSpdSolve:
    def test_identity(self):
        b = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(spd_solve(np.eye(3), b), b)

    def test_scalar(self):
        assert spd_solve(np.array([[2.0]]), np.array([[4.0]]))[0, 0] == pytest.approx(2.0)

    def test_residual_on_random_spd(self):
        gen = np.random.default_rng(11)
        for _ in range(100):
            n = int(gen.integers(1, 9))
            m = gen.standard_normal((n, n))
            a = SymMatrix(m @ m.T + np.eye(n))
            b = gen.standard_normal((n, 2))
            x = spd_solve(a, b)
            res = np.linalg.norm(a.array @ x - b)
            assert res <= 1e-9 * max(1.0, np.linalg.norm(b))

    def test_not_positive_definite(self):
        # The message is the one scipy's cho_factor raised.
        with pytest.raises(NotPositiveDefiniteError, match="2-th leading minor"):
            spd_solve(SymMatrix(np.diag([1.0, 0.0])), np.ones((2, 1)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            spd_solve(np.eye(3), np.ones((2, 1)))


def _spd(n: int, seed: int) -> SymMatrix:
    g = np.random.default_rng(seed).standard_normal((n, n + 2))
    return SymMatrix(g @ g.T / n + 1e-3 * np.eye(n))


def _read_only(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


class TestDirectLapackEqualsScipyWrappers:
    """psd_factor and spd_solve call LAPACK potrf/potrs themselves; their
    results must be the bits of the scipy.linalg wrappers they replace."""

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 40, 100, 400])
    def test_psd_factor_is_scipy_cholesky(self, n):
        a = _spd(n, n)
        literal = scipy.linalg.cholesky(a.array, lower=True, check_finite=False)
        factor = psd_factor(a)
        assert factor.tobytes() == literal.tobytes()
        assert factor.tobytes() == psd_factor(np.array(a.array)).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 40, 100])
    @pytest.mark.parametrize("cols", [None, 1, 3])
    def test_spd_solve_is_cho_factor_then_cho_solve(self, n, cols):
        a = _spd(n, 100 + n)
        shape = (n,) if cols is None else (n, cols)
        b = _read_only(np.random.default_rng(n).standard_normal(shape))
        b_bytes = b.tobytes()
        factor = scipy.linalg.cho_factor(a.array, lower=True, check_finite=False)
        literal = scipy.linalg.cho_solve(factor, b, check_finite=False)
        x = spd_solve(a, b)
        assert x.shape == shape and x.flags.c_contiguous
        assert x.tobytes() == np.ascontiguousarray(literal).tobytes()
        assert b.tobytes() == b_bytes

    def test_inputs_are_never_written(self):
        arr = _read_only(_spd(5, 3).array)
        before = arr.tobytes()
        psd_factor(arr)
        spd_solve(arr, np.ones(5))
        assert arr.tobytes() == before
        a = _spd(5, 3)
        psd_factor(a)
        spd_solve(a, np.ones((5, 2)))
        assert a.array.tobytes() == before

    def test_rank_one_falls_back_to_the_root(self):
        # The second pivot is 4 - 2 * 2 = 0 exactly, so potrf fails.
        a = np.outer([1.0, 2.0, -1.0], [1.0, 2.0, -1.0])
        assert psd_factor(a).tobytes() == psd_sqrt(a).array.tobytes()

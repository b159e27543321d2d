import ctypes
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.blas
import scipy.linalg.lapack
from scipy.linalg.lapack import dpstrf

import dpntk.linalg as linalg_module
from dpntk.linalg import (
    _ASYM_RTOL,
    NotPSDError,
    NotPositiveDefiniteError,
    SymMatrix,
    default_tol,
    eigen_extremes,
    psd_factor,
    psd_sqrt,
    spd_solve,
)
from dpntk.kernel import Dataset, WeightMatrix, continuous_kernel, discrete_kernel

# Whether dpntk.linalg runs on numpy's bundled OpenBLAS (else on scipy's
# wrappers, where the bound routines are scipy's own objects).
BUNDLED = linalg_module._ROUTE != "scipy.linalg.lapack"


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


def _mirror(a: np.ndarray) -> np.ndarray:
    """Reference construction: the upper triangle mirrored by np.where, then
    the asymmetry tolerance."""
    sym = np.where(np.tri(a.shape[0], k=-1, dtype=bool), a.T, a)
    if np.abs(a - sym).max() > _ASYM_RTOL * max(1.0, float(np.linalg.norm(a))):
        raise ValueError("matrix is not symmetric within tolerance")
    return sym


def _symmetric_inputs(n: int) -> dict[str, np.ndarray]:
    gen = np.random.default_rng(50 + n)
    g = gen.standard_normal((n, n))
    exact = g + g.T
    zeros = exact.copy()
    i, j = np.triu_indices(n, 1)
    pick = gen.random(len(i)) < 0.3
    zeros[i[pick], j[pick]] = 0.0
    zeros[j[pick], i[pick]] = -0.0
    zeros[np.diag_indices(n)] = -0.0
    swapped = zeros.T.copy()  # -0.0 above the diagonal, 0.0 below
    within = exact.copy()
    within[j, i] *= 1.0 + 0.01 * _ASYM_RTOL * gen.uniform(0.5, 1.0, len(i))
    beyond = exact.copy()
    beyond[n - 1, 0] += 1.0
    return {"exact": exact, "signed_zeros": zeros, "swapped_zeros": swapped,
            "within": within, "beyond": beyond}


def _layouts(a: np.ndarray) -> dict[str, np.ndarray]:
    n = a.shape[0]
    buf = np.zeros((2 * n, 3 * n))
    buf[::2, ::3] = a
    return {"C": np.array(a, order="C"), "F": np.array(a, order="F"), "strided": buf[::2, ::3]}


class TestSymMatrixAdopt:
    """``SymMatrix._adopt`` stores a fresh bit-symmetric array itself, frozen;
    anything else takes the constructor, with its copy and its messages."""

    def test_adopts_without_a_copy(self):
        a = np.random.default_rng(1).standard_normal((6, 6))
        a = a + a.T
        expected = SymMatrix(a).array.tobytes()
        m = SymMatrix._adopt(a)
        assert m.array is a and not a.flags.writeable
        assert m.array.tobytes() == expected
        with pytest.raises(ValueError):
            a[0, 0] = 1.0

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.array([[1.0, np.nan], [np.nan, 1.0]]), "matrix entries must be finite"),
            (np.array([[np.inf, 0.0], [0.0, 1.0]]), "matrix entries must be finite"),
            (np.array([[1.0, 2.0], [3.0, 1.0]]), "matrix is not symmetric within tolerance"),
            (np.ones((2, 3)), "expected a square matrix"),
        ],
    )
    def test_refuses_with_the_constructor_messages(self, bad, message):
        with pytest.raises(ValueError, match=message):
            SymMatrix(bad.copy())
        with pytest.raises(ValueError, match=message):
            SymMatrix._adopt(bad)
        assert bad.flags.writeable

    def test_anything_else_is_copied(self):
        a = np.random.default_rng(2).standard_normal((5, 5))
        a = a + a.T
        near = a.copy()
        near[3, 1] *= 1.0 + 0.01 * _ASYM_RTOL  # within tolerance: mirrored
        signed = a.copy()
        signed[0, 4], signed[4, 0] = 0.0, -0.0  # equal values, different bits
        wide = np.zeros((5, 6))
        wide[:, :5] = a
        for arr in (near, signed, np.asfortranarray(a), wide[:, :5], a.astype(np.float32)):
            m = SymMatrix._adopt(arr)
            assert m.array is not arr and m.array.tobytes() == SymMatrix(arr).array.tobytes()
            assert arr.flags.writeable


class TestSymMatrixStoresTheMirror:
    """Every construction stores the bytes of the np.where mirror of its
    input, or raises its error, whatever the input's memory layout."""

    @pytest.mark.parametrize("n", [2, 5, 64])
    @pytest.mark.parametrize("kind", ["exact", "signed_zeros", "swapped_zeros", "within", "beyond"])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_same_bytes_as_the_mirror(self, n, kind, layout):
        a = _layouts(_symmetric_inputs(n)[kind])[layout]
        before = a.tobytes()
        if kind == "beyond":
            with pytest.raises(ValueError, match="not symmetric within tolerance"):
                _mirror(a)
            with pytest.raises(ValueError, match="not symmetric within tolerance"):
                SymMatrix(a)
        else:
            want = _mirror(a)
            got = SymMatrix(a).array
            assert got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous and not got.flags.writeable
            assert not np.shares_memory(got, a)
        # The caller's array is neither written nor frozen.
        assert a.tobytes() == before and a.flags.writeable

    def test_read_only_input_is_copied(self):
        a = np.eye(3)
        a.setflags(write=False)
        arr = SymMatrix(a).array
        assert not np.shares_memory(arr, a) and arr.tobytes() == a.tobytes()


EPS = np.finfo(np.float64).eps


def _spectrum_cases(n: int) -> dict[str, np.ndarray]:
    gen = np.random.default_rng(1000 + n)
    g = gen.standard_normal((n, n))
    gram = g @ g.T / n
    return {
        "indefinite": g + g.T,
        "psd": gram,
        "negative_definite": -gram - np.eye(n),
        "small": 1e-3 * (g + g.T),
    }


class TestEigenExtremes:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 31, 32, 33, 100, 400])
    def test_ends_of_eigvalsh(self, n):
        # eigvalsh finds the ends by QL/QR on the same tridiagonal form, with
        # a rounding error that grows with n: up to about 51 eps * ||A||_2 at
        # n = 400 (the bisection is within 0.5 eps |lambda| of an
        # extended-precision Sturm count). Hence the sqrt(n) factor.
        for name, a in _spectrum_cases(n).items():
            want = np.linalg.eigvalsh(a)
            got = eigen_extremes(a)
            tol = 16 * EPS * math.sqrt(n) * max(1.0, np.linalg.norm(a, 2))
            assert abs(got[0] - want[0]) <= tol, name
            assert abs(got[1] - want[-1]) <= tol, name
            assert np.array(got).tobytes() == np.array(eigen_extremes(a)).tobytes(), name

    @pytest.mark.parametrize("n", [8, 100, 400])
    def test_path_graph_laplacian_closed_form(self, n):
        # Eigenvalues 2 - 2 cos(k pi / (n + 1)), k = 1..n.
        a = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        lo, hi = eigen_extremes(a)
        tol = 16 * EPS * 4.0
        assert abs(lo - (2.0 - 2.0 * math.cos(math.pi / (n + 1)))) <= tol
        assert abs(hi - (2.0 - 2.0 * math.cos(n * math.pi / (n + 1)))) <= tol

    def test_2x2_characteristic_polynomial(self):
        lo, hi = eigen_extremes(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert lo == pytest.approx(1.0, abs=4 * EPS * 3)
        assert hi == pytest.approx(3.0, abs=4 * EPS * 3)
        lo, hi = eigen_extremes(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert lo == pytest.approx(-1.0, abs=4 * EPS) and hi == pytest.approx(1.0, abs=4 * EPS)

    @pytest.mark.parametrize("scale", [1e-150, 1e80])
    def test_single_read_outside_syevx_range_is_scaled_and_back(self, scale):
        # syevx scales a matrix whose largest entry lies outside about
        # [1e-146, 8e76] before its reduction, and its eigenvalues back.
        a = scale * np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 5.0]])
        lo = linalg_module._eigenvalue(SymMatrix(a), 1)
        hi = linalg_module._eigenvalue(SymMatrix(a), -1)
        assert lo == pytest.approx(scale, rel=8 * EPS) and hi == pytest.approx(5.0 * scale, rel=8 * EPS)

    def test_rank_deficient_kernel(self):
        # 40 rows in d = 2: the quadratic kernel has rank at most 3.
        gen = np.random.default_rng(9)
        x = gen.standard_normal((40, 2))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        data = Dataset(x, np.zeros((40, 1)), bound_B=1.0)
        w = WeightMatrix(gen.standard_normal((64, 2)), sigma=1.0)
        k = discrete_kernel(data, w).matrix
        lo, hi = eigen_extremes(k)
        assert abs(lo) <= default_tol(k)
        want = np.linalg.eigvalsh(k.array)
        tol = 16 * EPS * math.sqrt(40) * max(1.0, want[-1])
        assert abs(lo - want[0]) <= tol and abs(hi - want[-1]) <= tol

    def test_does_not_compute_the_whole_spectrum(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert eigen_extremes(np.diag([1.0, -4.0, 2.0])) == (-4.0, 2.0)

    def test_lapack_failures_raise(self, monkeypatch):
        a = np.diag([1.0, 2.0, 3.0])

        def sytrd_fails(arr, lower, lwork):
            return arr, np.zeros(3), np.zeros(2), np.zeros(2), -4

        def stebz_finds_none(d, e, *args):
            return 0, np.zeros(3), np.zeros(3, np.int32), np.zeros(3, np.int32), 0

        def stebz_fails(d, e, *args):
            return 1, np.zeros(3), np.zeros(3, np.int32), np.zeros(3, np.int32), 1

        with monkeypatch.context() as m:
            m.setattr(linalg_module, "dsytrd", sytrd_fails)
            with pytest.raises(ValueError, match="argument 4 of LAPACK sytrd"):
                eigen_extremes(a)
        for stebz, match in [(stebz_finds_none, "found 0 eigenvalues"), (stebz_fails, "info=1")]:
            with monkeypatch.context() as m:
                m.setattr(linalg_module, "dstebz", stebz)
                with pytest.raises(ValueError, match=match):
                    eigen_extremes(a)

    def test_single_read_failures_raise(self, monkeypatch):
        a = SymMatrix(np.diag([1.0, 2.0, 3.0]))

        def syevx_returning(found, info):
            def syevx(arr, **kwargs):
                return np.zeros(3), np.empty((0, 0)), found, np.empty(0, np.int32), info
            return syevx

        for found, info, match in [(1, -4, "argument 4 of LAPACK syevx"), (0, 0, "found 0 eigenvalues"),
                                   (1, 1, "info=1")]:
            with monkeypatch.context() as m:
                m.setattr(linalg_module, "dsyevx", syevx_returning(found, info))
                with pytest.raises(ValueError, match=match):
                    linalg_module._eigenvalue(a, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 40, 100, 400])
    def test_single_read_is_the_shared_reduction_bit_for_bit(self, n):
        # syevx runs sytrd, then stebz: one call gives the bits of two.
        for seed in range(3):
            g = np.random.default_rng(seed).standard_normal((n, n + 1))
            for a in (SymMatrix(g @ g.T / n), SymMatrix(g[:, :n] + g[:, :n].T)):
                d, e = linalg_module._tridiagonal(a)
                for index in (1, -1):
                    assert linalg_module._eigenvalue(a, index) == linalg_module._bisect(d, e, index)

    def test_identity(self):
        assert eigen_extremes(np.eye(4)) == (1.0, 1.0)

    def test_diagonal(self):
        # Exact: the reduction leaves a diagonal matrix as it is, and each
        # 1 x 1 block of the tridiagonal form is its own eigenvalue.
        for diag in [[0.0, 5.0], [3.0], [-2.0, 7.5], [3.0, -1.0, 2.5, 0.0, -0.0, 7e-300]]:
            assert eigen_extremes(np.diag(diag)) == (min(diag), max(diag))

    def test_duplicate_rows_give_zero_eigenvalue(self):
        # Identical data rows make the kernel rank deficient.
        x = np.array([[0.6, 0.8], [0.6, 0.8]])
        data = Dataset(x, np.zeros((2, 1)), bound_B=1.0)
        w = WeightMatrix(np.array([[0.3, -1.2], [0.7, 0.1]]), sigma=1.0)
        kern = discrete_kernel(data, w)
        lo, _ = eigen_extremes(kern.matrix)
        assert abs(lo) < 1e-10


class TestPsdFactor:
    def test_cholesky_on_positive_definite(self):
        gen = np.random.default_rng(5)
        for _ in range(50):
            n = int(gen.integers(1, 13))
            m = gen.standard_normal((n, n))
            a = SymMatrix(m @ m.T + 1e-6 * np.eye(n))
            f, order = psd_factor(a)
            assert order is None and np.array_equal(f, np.tril(f))
            err = np.linalg.norm(f @ f.T - a.array)
            assert err <= 1e-12 * max(1.0, np.linalg.norm(a.array))

    def test_singular_input_falls_back_to_pstrf(self):
        # LAPACK pstrf's lower factor, upper triangle and columns past the
        # rank zeroed, with its 1-based pivots as a 0-based order.
        a = np.outer([1.0, 1.0, 0.5], [1.0, 1.0, 0.5])
        factor, order = psd_factor(a)
        assert_triangular_factor(factor, order, a)
        lapack, piv, rank, _ = dpstrf(a, lower=1)
        assert rank == 1 and np.array_equal(order, piv - 1)
        np.testing.assert_array_equal(factor, np.tril(lapack) * [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("a", [
        # pstrf stops before the negative pivot: only the Schur check sees it.
        np.diag([1.0, -4.0, 2.0]),
        # A zero diagonal: rank 0, and the Schur complement is the input.
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[1.0, 2.0], [2.0, 1.0]]),
    ], ids=["negative_pivot", "zero_diagonal", "indefinite"])
    def test_not_psd_raises(self, a):
        with pytest.raises(NotPSDError, match="matrix not PSD"):
            psd_factor(a)

    def test_eigenvalue_just_below_zero_is_accepted(self):
        # Eigenvalues 3, 2, 1 and e: e = -1e-9 lies in [-tol, 0) for
        # tol = default_tol = 3.7e-8 and is dropped; e = -1e-7 is refused.
        q = np.linalg.qr(np.random.default_rng(1).standard_normal((4, 4)))[0]
        a = SymMatrix((q * [3.0, 2.0, 1.0, -1e-9]) @ q.T)
        factor, order = psd_factor(a)
        assert order is not None
        np.testing.assert_allclose(factor @ factor.T, a.array[np.ix_(order, order)], rtol=0.0, atol=1e-8)
        with pytest.raises(NotPSDError):
            psd_factor((q * [3.0, 2.0, 1.0, -1e-7]) @ q.T)

    def test_rank_136_kernel_at_n_400(self):
        # The quadratic kernel of 400 unit rows in d = 16 has rank
        # d (d + 1) / 2 = 136, so potrf fails and pstrf stops at that rank.
        x = np.random.default_rng(0).standard_normal((400, 16))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        k = continuous_kernel(Dataset(x, np.zeros((400, 1)), 1.0), 1.0).matrix.array
        factor, order = psd_factor(k)
        assert order is not None and np.count_nonzero(np.diag(factor)) == 136
        permuted = k[np.ix_(order, order)]
        assert np.linalg.norm(factor @ factor.T - permuted) <= 1e-12 * np.linalg.norm(k)


class TestHeldFactor:
    """``SymMatrix.factor`` is one ``psd_factor`` call, held read-only."""

    @pytest.mark.parametrize("singular", [False, True], ids=["potrf", "pstrf"])
    def test_factor_is_psd_factor_bit_for_bit_computed_once(self, singular, monkeypatch):
        g = np.random.default_rng(11).standard_normal((7, 5 if singular else 9))
        a = SymMatrix(g @ g.T)
        fresh, fresh_order = psd_factor(a)
        assert (fresh_order is not None) == singular
        calls = []
        original = linalg_module.psd_factor
        monkeypatch.setattr(linalg_module, "psd_factor", lambda m: calls.append(m) or original(m))
        factor, order = a.factor
        assert a.factor is a.factor and len(calls) == 1
        assert factor.tobytes() == fresh.tobytes()
        assert (order is None) if not singular else np.array_equal(order, fresh_order)
        for held in (factor, order) if singular else (factor,):
            assert not held.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                held[0] = 0

    def test_release_factor_reads_a_held_factor_else_factors_anew(self, monkeypatch):
        g = np.random.default_rng(12).standard_normal((6, 8))
        a = SymMatrix(g @ g.T)
        calls = []
        original = linalg_module.psd_factor
        monkeypatch.setattr(linalg_module, "psd_factor", lambda m: calls.append(m) or original(m))
        fresh = linalg_module._release_factor(a)
        assert len(calls) == 1 and "factor" not in vars(a) and fresh[0].flags.writeable
        held = a.factor
        assert linalg_module._release_factor(a) is held and len(calls) == 2
        assert linalg_module._release_factor(np.array(a.array))[0].tobytes() == held[0].tobytes()
        assert len(calls) == 3

    def test_not_psd_factor_raises_on_each_read(self):
        a = SymMatrix(np.diag([1.0, -4.0, 2.0]))
        for _ in range(2):
            with pytest.raises(NotPSDError):
                a.factor


class TestPsdSqrt:
    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_positive_definite_root_is_the_eigen_root(self, n):
        m = np.random.default_rng(n).standard_normal((n, n))
        a = m @ m.T + 0.1 * np.eye(n)
        root = psd_sqrt(a).array
        assert np.array_equal(root, root.T)
        w, v = np.linalg.eigh(a)
        reference = (v * np.sqrt(w)) @ v.T
        assert np.linalg.norm(root - reference) <= 1e-12 * np.linalg.norm(reference)
        assert np.linalg.norm(root @ root - a) <= 1e-12 * np.linalg.norm(a)

    @pytest.mark.parametrize("n,rank", [(3, 1), (5, 2), (40, 13), (400, 136)])
    def test_singular_input_takes_the_pivoted_factor(self, n, rank):
        # Rank-deficient inputs, where potrf fails and the pstrf factor's
        # rows are put back in the input's order before the polar step.
        x = np.random.default_rng(rank).standard_normal((n, rank))
        a = x @ x.T
        root = psd_sqrt(a).array
        assert np.array_equal(root, root.T)
        assert np.linalg.norm(root @ root - a) <= 1e-12 * np.linalg.norm(a)
        assert np.linalg.eigvalsh(root)[0] >= -1e-12 * np.linalg.norm(root)

    def test_zero_matrix_is_its_own_root(self):
        np.testing.assert_array_equal(psd_sqrt(np.zeros((3, 3))).array, np.zeros((3, 3)))

    def test_input_is_not_written(self):
        a = np.outer([1.0, 1.0, 0.5], [1.0, 1.0, 0.5])
        before = a.copy()
        psd_sqrt(a)
        np.testing.assert_array_equal(a, before)

    def test_not_psd_raises(self):
        with pytest.raises(NotPSDError, match="matrix not PSD"):
            psd_sqrt(np.diag([1.0, -4.0, 2.0]))


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

    @pytest.mark.parametrize("n", [1, 5, 100])
    def test_shift_is_the_dense_identity_sum(self, n):
        # -0.0 entries become +0.0 as when the identity's zeros are added.
        gen = np.random.default_rng(n)
        m = gen.standard_normal((n, n + 1))
        a = m @ m.T
        if n > 1:
            a[0, n - 1] = a[n - 1, 0] = -0.0
        a = SymMatrix(a)
        b = gen.standard_normal((n, 2))
        dense = spd_solve(SymMatrix(a.array + 0.3 * np.eye(n)), b)
        assert spd_solve(a, b, shift=0.3).tobytes() == dense.tobytes()
        assert spd_solve(a.array, b, shift=0.3).tobytes() == dense.tobytes()

    def test_shift_clears_negative_zeros_as_the_identity_sum(self):
        # Kept, the -0.0 off the diagonal would flip the sign of x's zeros.
        a = SymMatrix(np.array([[2.0, -0.0], [-0.0, 3.0]]))
        for b in ([1.0, -0.0], [-0.0, 1.0], [-0.0, -0.0]):
            dense = spd_solve(SymMatrix(a.array + 0.5 * np.eye(2)), np.array(b))
            assert spd_solve(a, np.array(b), shift=0.5).tobytes() == dense.tobytes()

    def test_shift_leaves_the_input_alone_and_checks_the_diagonal(self):
        a = _spd(4, 8)
        before = a.array.tobytes()
        spd_solve(a, np.ones(4), shift=1.0)
        assert a.array.tobytes() == before
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            spd_solve(a, np.ones(4), shift=np.inf)
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            spd_solve(SymMatrix(np.diag([1e308, 1.0])), np.ones(2), shift=1e308)


def assert_triangular_factor(factor: np.ndarray, order: np.ndarray, a: np.ndarray) -> None:
    """factor is lower-triangular and factor @ factor.T reproduces a with
    rows and columns in pivot order."""
    assert np.array_equal(factor, np.tril(factor))
    permuted = a[np.ix_(order, order)]
    np.testing.assert_allclose(factor @ factor.T, permuted, rtol=0.0, atol=1e-14 * max(1.0, np.abs(a).max()))


def _spd(n: int, seed: int) -> SymMatrix:
    g = np.random.default_rng(seed).standard_normal((n, n + 2))
    return SymMatrix(g @ g.T / n + 1e-3 * np.eye(n))


def _read_only(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


class TestDirectLapack:
    """psd_factor and spd_solve call LAPACK potrf and posv themselves: their
    results are the bits of numpy's Cholesky, on the same OpenBLAS, and of
    potrf then potrs."""

    @pytest.mark.skipif(not BUNDLED, reason="numpy's LAPACK is not the route in use")
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 40, 100, 400])
    def test_psd_factor_is_numpy_cholesky(self, n):
        a = _spd(n, n)
        literal = np.linalg.cholesky(a.array)
        factor, order = psd_factor(a)
        assert order is None and factor.tobytes() == literal.tobytes()
        assert factor.tobytes() == psd_factor(np.array(a.array))[0].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 40, 100, 400])
    @pytest.mark.parametrize("cols", [None, 1, 3])
    def test_spd_solve_is_potrf_then_potrs(self, n, cols):
        a = _spd(n, 100 + n)
        shape = (n,) if cols is None else (n, cols)
        b = _read_only(np.random.default_rng(n).standard_normal(shape))
        b_bytes = b.tobytes()
        literal = _potrs(linalg_module.dpotrf(a.array, lower=1)[0], b)
        x = spd_solve(a, b)
        assert x.shape == shape and x.flags.c_contiguous
        assert x.tobytes() == np.ascontiguousarray(literal).tobytes()
        assert b.tobytes() == b_bytes
        # scipy's own wrappers, on scipy's OpenBLAS build, round differently.
        factor = scipy.linalg.cho_factor(a.array, lower=True, check_finite=False)
        other = scipy.linalg.cho_solve(factor, b, check_finite=False)
        assert np.abs(x - other).max() <= 1e-13 * np.abs(other).max() * n

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

    def test_rank_one_falls_back_to_pstrf(self):
        # The second pivot is 4 - 2 * 2 = 0 exactly, so potrf fails; pstrf
        # pivots the largest diagonal entry, 4, first and stops at rank 1.
        # It factors a copy: the SymMatrix's own array is not written.
        a = SymMatrix(np.outer([1.0, 2.0, -1.0], [1.0, 2.0, -1.0]))
        before = a.array.tobytes()
        factor, order = psd_factor(a)
        assert order[0] == 1 and not factor[:, 1:].any()
        assert_triangular_factor(factor, order, a.array)
        assert a.array.tobytes() == before


def _potrs(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """LAPACK potrs (lower) on the library of the route in use: scipy's
    wrapper on the scipy route, else a direct call into numpy's OpenBLAS."""
    if not BUNDLED:
        return scipy.linalg.lapack.dpotrs(factor, b, lower=1)[0]
    from dpntk import _openblas

    potrs = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 7, ctypes.c_size_t)(
        ("scipy_dpotrs_64_", _openblas.LIBRARY))
    factor = np.asfortranarray(factor)
    x = np.array(b, dtype=np.float64, order="F")
    ints = np.array([factor.shape[0], x.size // factor.shape[0], 0], dtype=np.int64)
    p = ints.ctypes.data
    potrs(b"L", p, p + 8, factor.ctypes.data, p, x.ctypes.data, p, p + 16, 1)
    assert ints[2] == 0
    return x


def _rel_gap(ours: np.ndarray, ref: np.ndarray) -> float:
    """max |ours - ref| relative to max |ref|."""
    return float(np.abs(ours - ref).max() / max(np.abs(ref).max(), np.finfo(float).tiny))


_SIZES = [1, 2, 3, 5, 6, 8, 17, 40, 100, 400]


def _indefinite(n: int, seed: int) -> np.ndarray:
    g = np.random.default_rng(seed).standard_normal((n, n))
    return g + g.T


def _singular(n: int, seed: int) -> np.ndarray:
    """PSD and exactly singular: a positive definite matrix with row and
    column n // 2 zeroed, so that pivot is exactly 0 on any build."""
    a = _spd(n, seed).array.copy()
    a[n // 2, :] = a[:, n // 2] = 0.0
    return a


@pytest.mark.skipif(not BUNDLED, reason="numpy bundles no scipy-openblas64 library")
class TestBindingAgreesWithScipyWrappers:
    """Each routine bound to numpy's OpenBLAS against scipy's f2py wrapper of
    the same name, on scipy's OpenBLAS build: the same info, rank, pivot and
    count codes, and values within 1e-13 relative (two builds of one
    library round differently)."""

    # Values are compared on positive definite inputs; on the others only
    # the info codes are defined.

    @pytest.mark.parametrize("n", _SIZES)
    def test_potrf(self, n):
        for a in (_indefinite(n, n), _singular(n, n)):
            assert linalg_module.dpotrf(a.T, lower=1)[1] == scipy.linalg.lapack.dpotrf(a.T, lower=1)[1]
        a = _spd(n, n).array
        ours, info = linalg_module.dpotrf(a.T, lower=1, clean=1)
        ref, ref_info = scipy.linalg.lapack.dpotrf(a.T, lower=1, clean=1)
        assert info == ref_info == 0
        assert _rel_gap(ours, ref) <= 1e-13 and not np.triu(ours, 1).any()

    @pytest.mark.parametrize("n", _SIZES)
    def test_posv(self, n):
        b = np.random.default_rng(n).standard_normal((n, 2))
        for a in (_spd(n, n).array, _indefinite(n, n), _singular(n, n)):
            _, x, info = linalg_module.dposv(a.T, b, lower=1)
            _, ref, ref_info = scipy.linalg.lapack.dposv(a.T, b, lower=1)
            assert info == ref_info
        for rhs in (b, b[:, 0]):
            _, x, _ = linalg_module.dposv(_spd(n, n).array, rhs, lower=1)
            _, ref, _ = scipy.linalg.lapack.dposv(_spd(n, n).array, rhs, lower=1)
            assert x.shape == ref.shape and _rel_gap(x, ref) <= 1e-13 * n

    @pytest.mark.parametrize("n", _SIZES)
    def test_pstrf(self, n):
        for a in (_spd(n, n).array, _singular(n, n)):
            ours, piv, rank, info = linalg_module.dpstrf(a.T, lower=1)
            ref, ref_piv, ref_rank, ref_info = scipy.linalg.lapack.dpstrf(a.T, lower=1)
            assert (rank, info) == (ref_rank, ref_info)
            assert np.array_equal(piv, ref_piv)
            assert _rel_gap(np.tril(ours), np.tril(ref)) <= 1e-13

    @pytest.mark.parametrize("n", _SIZES)
    def test_sytrd_and_stebz(self, n):
        assert linalg_module.dsytrd_lwork(n, lower=1) == scipy.linalg.lapack.dsytrd_lwork(n, lower=1)
        lwork = int(linalg_module.dsytrd_lwork(n, lower=1)[0])
        tol = 2.0 * np.finfo(np.float64).tiny
        for a in (_spd(n, n).array, _indefinite(n, n), _singular(n, n)):
            ours = linalg_module.dsytrd(a.T, lower=1, lwork=lwork)
            ref = scipy.linalg.lapack.dsytrd(a.T, lower=1, lwork=lwork)
            assert ours[4] == ref[4] == 0
            for got, want in zip(ours[1:4], ref[1:4]):
                assert got.shape == want.shape
                if want.size:
                    assert _rel_gap(got, want) <= 1e-13
            d, e = ref[1], ref[2]
            if n == 1:
                # scipy's stebz wrapper refuses the empty e that LAPACK never reads.
                m, w, _, _, info = linalg_module.dstebz(d, e, 0, 0.0, 0.0, 0, 0, 0.0, b"E")
                assert (m, w[0], info) == (1, d[0], 0)
                continue
            for args in ((2, 0.0, 0.0, 1, 1), (2, 0.0, 0.0, n, n), (2, 0.0, 0.0, 1, n), (0, 0.0, 0.0, 0, 0),
                         (1, -1.0, 1.0, 0, 0)):
                m, w, iblock, _, info = linalg_module.dstebz(d, e, *args, tol, b"E")
                ref_m, ref_w, ref_iblock, _, ref_info = scipy.linalg.lapack.dstebz(d, e, *args, tol, b"E")
                assert (m, info) == (ref_m, ref_info)
                assert np.array_equal(iblock[:m], ref_iblock[:m])
                if m:
                    assert _rel_gap(w[:m], ref_w[:m]) <= 1e-13

    @pytest.mark.parametrize("n", _SIZES)
    def test_syevx(self, n):
        assert linalg_module.dsyevx_lwork(n, lower=1) == scipy.linalg.lapack.dsyevx_lwork(n, lower=1)
        lwork = int(linalg_module.dsyevx_lwork(n, lower=1)[0])
        tol = 2.0 * np.finfo(np.float64).tiny
        for a in (_spd(n, n).array, _indefinite(n, n), _singular(n, n)):
            for kwargs in ({"range": "I", "il": 1, "iu": 1}, {"range": "I", "il": n, "iu": n},
                           {"range": "I", "il": 1, "iu": n}, {"range": "A"},
                           {"range": "V", "vl": -1.0, "vu": 1.0}):
                ours = linalg_module.dsyevx(a.T, compute_v=0, lower=1, abstol=tol, lwork=lwork, **kwargs)
                ref = scipy.linalg.lapack.dsyevx(a.T, compute_v=0, lower=1, abstol=tol, lwork=lwork, **kwargs)
                w, _, m, _, info = ours
                assert (m, info) == (ref[2], ref[4]) and info == 0
                if m:
                    assert _rel_gap(w[:m], ref[0][:m]) <= 1e-13

    @pytest.mark.parametrize("n", _SIZES)
    def test_trtri_and_trmm(self, n):
        factor = np.linalg.cholesky(_spd(n, n).array)
        for unitdiag in (0, 1):
            ours, info = linalg_module.dtrtri(factor, lower=1, unitdiag=unitdiag)
            ref, ref_info = scipy.linalg.lapack.dtrtri(factor, lower=1, unitdiag=unitdiag)
            assert info == ref_info == 0 and _rel_gap(ours, ref) <= 1e-13
        singular = np.tril(factor)
        singular[n // 2, n // 2] = 0.0
        assert linalg_module.dtrtri(singular, lower=1)[1] == scipy.linalg.lapack.dtrtri(singular, lower=1)[1]
        g = np.random.default_rng(n)
        for side, lower, trans_a, diag in np.ndindex(2, 2, 2, 2):
            tri = factor if lower else factor.T
            b = g.standard_normal((3, n) if side else (n, 3))
            ours = linalg_module.dtrmm(0.5, tri, b, side=side, lower=lower, trans_a=trans_a, diag=diag)
            ref = scipy.linalg.blas.dtrmm(0.5, tri, b, side=side, lower=lower, trans_a=trans_a, diag=diag)
            assert ours.shape == ref.shape and _rel_gap(ours, ref) <= 1e-13

    def test_arguments_are_checked_before_any_call(self):
        with pytest.raises(ValueError, match="square"):
            linalg_module.dpotrf(np.ones((2, 3)))
        with pytest.raises(ValueError, match="shape mismatch"):
            linalg_module.dposv(np.eye(3), np.ones(2))
        with pytest.raises(ValueError, match="shape mismatch"):
            linalg_module.dtrmm(1.0, np.eye(3), np.ones((2, 2)), side=1)
        with pytest.raises(ValueError, match="at least 3 entries"):
            linalg_module.dstebz(np.ones(4), np.ones(2), 0, 0.0, 0.0, 0, 0, 0.0, b"E")
        with pytest.raises(ValueError, match="square"):
            linalg_module.dsyevx(np.ones((2, 3)), compute_v=0)
        with pytest.raises(ValueError, match="range must be"):
            linalg_module.dsyevx(np.eye(2), compute_v=0, range="X")
        with pytest.raises(ValueError, match="compute_v=0"):
            linalg_module.dsyevx(np.eye(2))

    def test_overwrite_works_in_place_on_fortran_input_only(self):
        a = np.asfortranarray(_spd(5, 1).array)
        factor, _ = linalg_module.dpotrf(a, lower=1, overwrite_a=1)
        assert factor is a
        c_ordered = _spd(5, 1).array
        before = c_ordered.tobytes()
        assert linalg_module.dpotrf(c_ordered, lower=1, overwrite_a=1)[0] is not c_ordered
        assert c_ordered.tobytes() == before


_SCIPY_ROUTINES = {
    "lapack": ("dpotrf", "dposv", "dpstrf", "dsytrd", "dsytrd_lwork", "dstebz", "dsyevx", "dsyevx_lwork",
               "dtrtri"),
    "blas": ("dtrmm",),
}

_NO_SCIPY = """
import sys
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def _run_fresh(code: str) -> str:
    """Run code in a new interpreter that imports this checkout's dpntk."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(linalg_module.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestLapackBlasRoute:
    """dpntk.linalg binds numpy's bundled OpenBLAS and imports no scipy
    module; where the locator finds no such library, it takes scipy's f2py
    wrappers, and the whole pipeline runs on them."""

    @pytest.mark.skipif(not BUNDLED, reason="numpy bundles no scipy-openblas64 library")
    def test_bundled_route_imports_no_scipy(self):
        code = """
import os, numpy as np
import dpntk.linalg as ours
from dpntk import _openblas
assert ours._ROUTE == _openblas.LIBRARY._name
assert os.path.basename(ours._ROUTE).startswith("libscipy_openblas64_")
for name in ("dpotrf", "dposv", "dpstrf", "dsytrd", "dsytrd_lwork", "dstebz", "dsyevx", "dsyevx_lwork", "dtrtri",
             "dtrmm"):
    assert getattr(ours, name) is getattr(_openblas, name), name
""" + _NO_SCIPY + 'print("bundled")'
        assert _run_fresh(code) == "bundled\n"

    @pytest.mark.parametrize("found", [
        # The locator finds no library file at all.
        "[]",
        # It finds a shared library that exports no scipy-openblas64 names
        # (and does not link one, whose names a lookup would find).
        "[_ctypes.__file__]",
    ], ids=["no-library", "wrong-library"])
    def test_fallback_takes_scipy_wrappers_and_runs(self, found, tmp_path):
        code = f"""
import _ctypes, glob
real_glob = glob.glob
glob.glob = lambda pattern, *args, **kwargs: {found}
import dpntk.linalg as ours
glob.glob = real_glob
import scipy.linalg.blas, scipy.linalg.lapack
assert ours._ROUTE == "scipy.linalg.lapack"
for module, names in {_SCIPY_ROUTINES!r}.items():
    for name in names:
        assert getattr(ours, name) is getattr(getattr(scipy.linalg, module), name), name
from dpntk import cli
from dpntk.harness import ExperimentConfig, verify_bounds
d = {str(tmp_path)!r}
assert cli.main(["gen-data", "--seed", "3", "--n", "40", "--d", "10", "--out", d + "/data.csv"]) == 0
assert cli.main([
    "fit", "--input", d + "/data.csv", "--seed", "3", "--m", "32", "--lambda", "1.0",
    "--private", "--epsilon", "10", "--beta", "1e-6", "--k-policy", "fixed", "--k", "200",
    "--out", d + "/private.bin",
]) == 0
assert cli.main(["predict", "--model", d + "/private.bin", "--input", d + "/data.csv",
                 "--out", d + "/preds.csv"]) == 0
assert all(check.passed for check in verify_bounds(ExperimentConfig(seed=1)))
print("ran on scipy")
"""
        assert _run_fresh(code).endswith("ran on scipy\n")
        assert len((tmp_path / "preds.csv").read_text().splitlines()) == 41


def test_calls_from_threads_share_no_scratch():
    # Every wrapper allocates its scalars and workspace per call, and the
    # LAPACK calls release the interpreter lock: threads interleaving them
    # on different sizes get the bits of one thread, call by call.
    mats = [_spd(n, 500 + n) for n in (2, 3, 5, 8, 17, 40) * 4]
    rhs = [np.ones(a.array.shape[0]) for a in mats]

    def work(i):
        a = mats[i]
        return (eigen_extremes(a), psd_factor(a)[0].tobytes(), spd_solve(a, rhs[i], shift=0.5).tobytes())

    alone = [work(i) for i in range(len(mats))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(5):
                together = list(pool.map(work, range(len(mats)), timeout=60))
                assert together == alone
    finally:
        sys.setswitchinterval(interval)

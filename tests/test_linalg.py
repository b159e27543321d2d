import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
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


class TestDirectLapackEqualsScipyWrappers:
    """psd_factor and spd_solve call LAPACK potrf/potrs themselves; their
    results must be the bits of the scipy.linalg wrappers they replace."""

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 40, 100, 400])
    def test_psd_factor_is_scipy_cholesky(self, n):
        a = _spd(n, n)
        literal = scipy.linalg.cholesky(a.array, lower=True, check_finite=False)
        factor, order = psd_factor(a)
        assert order is None and factor.tobytes() == literal.tobytes()
        assert factor.tobytes() == psd_factor(np.array(a.array))[0].tobytes()

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


# The eight compiled routines the package calls, by the scipy module that
# exports each.
_ROUTINES = {
    "lapack": ("dpotrf", "dpotrs", "dpstrf", "dsytrd", "dsytrd_lwork", "dstebz", "dtrtri"),
    "blas": ("dtrmm",),
}

_SAME_OBJECTS = f"""
import scipy.linalg.blas, scipy.linalg.lapack
for module, names in {_ROUTINES!r}.items():
    for name in names:
        assert getattr(ours, name) is getattr(getattr(scipy.linalg, module), name), name
print("same")
"""


def _run_fresh(code: str) -> str:
    """Run code in a new interpreter that imports this checkout's dpntk."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(linalg_module.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestLapackBlasLoader:
    """dpntk.linalg loads scipy's compiled LAPACK and BLAS modules without
    scipy.linalg's __init__, or falls back to scipy.linalg.lapack and .blas:
    either way its eight routines are the objects scipy exports."""

    def test_dpntk_first_loads_without_scipy_linalg(self):
        code = """
import sys
import dpntk.linalg as ours
assert "scipy.linalg" not in sys.modules
assert sys.modules["scipy.linalg._flapack"] is ours._lapack
""" + _SAME_OBJECTS
        assert _run_fresh(code) == "same\n"

    def test_scipy_linalg_first(self):
        assert _run_fresh("import scipy.linalg\nimport dpntk.linalg as ours\n" + _SAME_OBJECTS) == "same\n"

    @pytest.mark.parametrize("miss", [
        # A path search that finds no compiled file, as if scipy had moved it.
        """
class Finder(importlib.machinery.PathFinder):
    @classmethod
    def find_spec(cls, fullname, path=None, target=None):
        return None
""",
        # A compiled file that does not load.
        """
class Broken(importlib.machinery.ExtensionFileLoader):
    def create_module(self, spec):
        raise ImportError("does not load")
class Finder(importlib.machinery.PathFinder):
    @classmethod
    def find_spec(cls, fullname, path=None, target=None):
        spec = super().find_spec(fullname, path, target)
        spec.loader = Broken(spec.loader.name, spec.loader.path)
        return spec
""",
    ], ids=["no-file", "load-fails"])
    def test_fallback_gives_the_same_objects(self, miss):
        # The patched name serves only dpntk.linalg's lookup: the import
        # system holds the real PathFinder in sys.meta_path, and importlib.abc,
        # first imported by the fallback, registers the real classes because
        # it is imported before the patch.
        code = "import importlib.abc, importlib.machinery, sys\n" + miss + """
importlib.machinery.PathFinder = Finder
import dpntk.linalg as ours
assert "scipy.linalg" in sys.modules
assert ours._lapack is sys.modules["scipy.linalg.lapack"]
""" + _SAME_OBJECTS
        assert _run_fresh(code) == "same\n"

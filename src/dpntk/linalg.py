"""Dense symmetric linear algebra used by every other module, and the one
place the package gets LAPACK and BLAS.

All operations are pure functions over :class:`SymMatrix`, a thin wrapper
that guarantees bit-exact symmetry and finite entries. No path of the
package computes an eigenvector (``psd_sqrt``, which none calls, takes one
SVD of the ``psd_factor`` factor). The spectrum ends (``eigen_extremes`` and ``KernelMatrix``'s
eta_min and eta_max) take one blocked reduction to tridiagonal form (LAPACK
``sytrd``) and bisection for the first or the last eigenvalue (``stebz``,
absolute tolerance 2 * safmin), not the whole spectrum; each end is
bisected only where it is read. A matrix whose spectrum is read once, at
one end, takes both steps in one ``syevx`` call, with the same bits.
Cholesky factorizations back both the solves of shifted kernels and
``psd_factor``, the lower-triangular covariance factor the Gaussian
sampling mechanism draws through; a singular or semidefinite input falls
back to pivoted Cholesky (``pstrf``). They call LAPACK ``potrf`` and
``posv`` directly, with the arguments ``scipy.linalg.cholesky`` and
``cho_factor`` pass, without those wrappers' cost, which at the n <= 8 of
the bound checks is most of a call.

The package's compiled routines, the LAPACK ``dpotrf``, ``dposv``,
``dpstrf``, ``dsytrd``, ``dstebz``, ``dsyevx`` (the last two of these
with their workspace queries ``dsytrd_lwork`` and ``dsyevx_lwork``) and
``dtrtri`` and the BLAS ``dtrmm``, are defined here; ``privacy`` and
``sensitivity`` import the last two. They come from the OpenBLAS that numpy
bundles, through ``dpntk._openblas``, a ctypes binding with the call shapes
of scipy's f2py wrappers, so every process holds one BLAS library, the one
numpy's own products run on. Where numpy bundles no such library
(Accelerate, MKL or a system BLAS), they are scipy's wrappers from
``scipy.linalg.lapack`` and ``.blas``, on scipy's OpenBLAS. ``_ROUTE`` names
the one in use; results follow its bits. Only ``psd_sqrt`` imports
``scipy.linalg`` (for ``polar``) on either route.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._masks import strict_lower_mask

try:
    from ._openblas import (LIBRARY, dposv, dpotrf, dpstrf, dstebz, dsyevx, dsyevx_lwork, dsytrd,
                            dsytrd_lwork, dtrmm, dtrtri)

    _ROUTE = LIBRARY._name
except ImportError:
    from scipy.linalg import blas, lapack

    dposv, dpotrf, dpstrf, dtrtri = lapack.dposv, lapack.dpotrf, lapack.dpstrf, lapack.dtrtri
    dstebz, dsytrd, dsytrd_lwork = lapack.dstebz, lapack.dsytrd, lapack.dsytrd_lwork
    dsyevx, dsyevx_lwork = lapack.dsyevx, lapack.dsyevx_lwork
    dtrmm = blas.dtrmm
    _ROUTE = "scipy.linalg.lapack"

__all__ = [
    "SymMatrix",
    "NotPSDError",
    "NotPositiveDefiniteError",
    "default_tol",
    "eigen_extremes",
    "psd_factor",
    "psd_sqrt",
    "spd_solve",
]


class NotPSDError(ValueError):
    """Matrix has an eigenvalue below the allowed negative tolerance."""


class NotPositiveDefiniteError(ValueError):
    """Cholesky factorization hit a non-positive pivot."""


# Relative asymmetry accepted before construction fails. Inputs produced by
# symmetric arithmetic are bit-symmetric already; this guards caller mistakes.
_ASYM_RTOL = 1e-8


def _bit_symmetric(a: np.ndarray) -> bool:
    """True iff a float64 square matrix equals its transpose bit for bit
    (the int64 view tells -0.0 from 0.0)."""
    bits = a.view(np.int64)
    return bool((bits == bits.T).all())


@dataclass(frozen=True)
class SymMatrix:
    """Symmetric real matrix with entry(i, j) == entry(j, i) bit-for-bit.

    Construction stores a C-ordered copy of the upper triangle mirrored onto
    the lower triangle, so the stored entries for i <= j are exactly the
    caller's values; the caller's array is neither written nor frozen.
    Inputs whose asymmetry exceeds ``_ASYM_RTOL * max(1, ||a||_F)`` are
    rejected. ``_adopt`` wraps a fresh array that its builder hands over
    without the copy: the same checks, then the array itself is frozen.
    """

    array: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.array, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        # Kernels built by symmetric arithmetic equal their transpose bit for
        # bit, so their mirror would be the same bytes: one comparison pass
        # and one copy. Any other input is mirrored, and only one that
        # differs from its mirror pays for the gap and the norm. |a - sym|
        # holds |a_ij - a_ji| below the diagonal and zeros above, so its
        # maximum is max|a - a^T|.
        if _bit_symmetric(a):
            sym = a.copy()
        else:
            sym = np.where(strict_lower_mask(a.shape[0]), a.T, a)
            if not np.array_equal(sym, a):
                gap = a - sym
                np.abs(gap, out=gap)
                if gap.max() > _ASYM_RTOL * max(1.0, float(np.linalg.norm(a))):
                    raise ValueError("matrix is not symmetric within tolerance")
        sym.setflags(write=False)
        object.__setattr__(self, "array", sym)

    @classmethod
    def _adopt(cls, a: np.ndarray) -> SymMatrix:
        """Wrap a fresh matrix its builder will not write again, without
        copying it: a C-ordered float64 array that owns its data, is finite
        and equals its transpose bit for bit is frozen and stored as is.
        Anything else goes through the constructor, with its messages."""
        if (a.dtype == np.float64 and a.ndim == 2 and a.shape[0] == a.shape[1] >= 1
                and a.flags.c_contiguous and a.flags.owndata and a.flags.writeable
                and np.isfinite(a).all() and _bit_symmetric(a)):
            a.setflags(write=False)
            sym = object.__new__(cls)
            object.__setattr__(sym, "array", a)
            return sym
        return cls(a)

    def frob_norm(self) -> float:
        return float(np.linalg.norm(self.array))


def _as_sym(a: SymMatrix | np.ndarray) -> SymMatrix:
    return a if isinstance(a, SymMatrix) else SymMatrix(np.asarray(a, dtype=np.float64))


def default_tol(a: SymMatrix | np.ndarray) -> float:
    """PSD tolerance 1e-8 * max(1, ||a||_F), matching eigensolver perturbation
    at the sizes this package targets."""
    return 1e-8 * max(1.0, float(np.linalg.norm(_as_sym(a).array)))


# Absolute tolerance of the bisection for the spectrum ends: twice the
# underflow threshold, the value at which LAPACK ``stebz`` documents its most
# accurate eigenvalues (a tolerance of zero would fall back to ulp * ||T||).
_BISECT_ABSTOL = 2.0 * np.finfo(np.float64).tiny


@functools.lru_cache(maxsize=32)
def _sytrd_lwork(n: int) -> int:
    """Optimal workspace of the blocked ``sytrd`` reduction at order n."""
    work, info = dsytrd_lwork(n, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK sytrd_lwork")
    return int(work)


def _tridiagonal(a: SymMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of a tridiagonal matrix with the spectrum
    of ``a``: one blocked Householder reduction (LAPACK ``sytrd``, the first
    step of ``eigvalsh``). An order-1 matrix is its own.

    Raises:
        ValueError: if LAPACK reports an illegal argument.
    """
    arr = a.array
    n = arr.shape[0]
    if n == 1:
        return arr[0].copy(), np.empty(0)
    # As in _cholesky, the transpose is the Fortran-ordered view of the same
    # symmetric matrix, so the wrapper copies it straight.
    _, d, e, _, info = dsytrd(arr.T, lower=1, lwork=_sytrd_lwork(n))
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK sytrd")
    return d, e


def _bisect(d: np.ndarray, e: np.ndarray, index: int) -> float:
    """The index-th smallest (1-based) eigenvalue of the symmetric
    tridiagonal matrix with diagonal d and off-diagonal e (LAPACK ``stebz``
    at absolute tolerance 2 * safmin); index -1 is the largest. An order-1
    matrix is its own eigenvalue.

    Raises:
        ValueError: if LAPACK reports an error or does not return the
            requested eigenvalue.
    """
    n = d.shape[0]
    if n == 1:
        return float(d[0])
    if index < 0:
        index += n + 1
    # range 2 is LAPACK's 'I': eigenvalues il..iu of the ascending spectrum.
    found, w, _, _, info = dstebz(d, e, 2, 0.0, 0.0, index, index, _BISECT_ABSTOL, b"E")
    if info != 0:
        raise ValueError(f"LAPACK stebz failed with info={info}")
    if found != 1:
        raise ValueError(f"LAPACK stebz found {found} eigenvalues at index {index}")
    return float(w[0])


@functools.lru_cache(maxsize=32)
def _syevx_lwork(n: int) -> int:
    """Optimal workspace of ``syevx`` at order n: its ``sytrd`` reduction
    then runs blocked, as ``_tridiagonal``'s does."""
    work, info = dsyevx_lwork(n, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK syevx_lwork")
    return int(work)


def _eigenvalue(a: SymMatrix, index: int) -> float:
    """``_bisect(*_tridiagonal(a), index)`` in one LAPACK call, for a matrix
    whose spectrum is read once: ``syevx`` runs the same ``sytrd`` and
    ``stebz``, so the value has the same bits, at one call's cost where the
    two calls cost two. (``syevx`` first scales a matrix whose largest entry
    lies outside about [1e-146, 8e76].)

    Raises:
        ValueError: if LAPACK reports an error or does not return the
            requested eigenvalue.
    """
    arr = a.array
    n = arr.shape[0]
    if n == 1:
        return float(arr[0, 0])
    if index < 0:
        index += n + 1
    # As in _tridiagonal, the wrapper copies the transpose straight.
    w, _, found, _, info = dsyevx(arr.T, compute_v=0, range="I", lower=1, il=index, iu=index,
                                  abstol=_BISECT_ABSTOL, lwork=_syevx_lwork(n))
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK syevx")
    if info > 0:
        raise ValueError(f"LAPACK syevx failed with info={info}")
    if found != 1:
        raise ValueError(f"LAPACK syevx found {found} eigenvalues at index {index}")
    return float(w[0])


def eigen_extremes(a: SymMatrix | np.ndarray) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a symmetric matrix.

    One reduction to tridiagonal form (``_tridiagonal``), then bisection for
    the first and the last eigenvalue only, in place of the whole spectrum.

    Raises:
        ValueError: if LAPACK reports an error or does not return the
            requested eigenvalue.
    """
    d, e = _tridiagonal(_as_sym(a))
    return _bisect(d, e, 1), _bisect(d, e, -1)


def _cholesky(arr: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a bit-symmetric C-ordered float64 matrix,
    upper triangle zeroed.

    ``potrf`` takes Fortran order. The transpose of a C-ordered array is
    that array's Fortran-ordered view, and of a symmetric one the same
    matrix, so the wrapper copies it straight instead of transposing.

    Raises:
        NotPositiveDefiniteError: if a leading minor is not positive definite.
    """
    factor, info = dpotrf(arr.T, lower=1, clean=1)
    _check_factored(info, "potrf")
    return factor


def _check_factored(info: int, routine: str) -> None:
    """Raise for a failed Cholesky factorization by LAPACK ``routine``.

    Raises:
        NotPositiveDefiniteError: if a leading minor is not positive definite.
        ValueError: if LAPACK reports an illegal argument.
    """
    if info > 0:
        raise NotPositiveDefiniteError(
            f"{info}-th leading minor of the array is not positive definite"
        )
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK {routine}")


def psd_factor(a: SymMatrix | np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """A lower-triangular L and a pivot order with L @ L.T == a[order][:, order]
    up to rounding, for a PSD matrix; order is None where L @ L.T == a.

    The Cholesky factor (LAPACK ``potrf``) when the factorization succeeds
    (a positive definite in floating point). Otherwise the pivoted Cholesky
    factor (LAPACK ``pstrf``), which accepts singular inputs: it stops at
    rank r once no pivot left exceeds n eps max_i a_ii, L's columns past r
    are zeroed, and the Schur complement left after the r pivoted steps is
    dropped if its smallest eigenvalue (one bisection) is at least
    -default_tol(a).

    Raises:
        NotPSDError: if that eigenvalue is below -default_tol(a) (fallback
            path only: a successful ``potrf`` certifies positive definiteness).
    """
    a = _as_sym(a)
    try:
        return _cholesky(a.array), None
    except NotPositiveDefiniteError:
        pass
    # As in _cholesky, the transpose is the Fortran-ordered view of a.
    factor, piv, rank, info = dpstrf(a.array.T, lower=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK pstrf")
    n = factor.shape[0]
    order = piv - 1
    factor[strict_lower_mask(n).T] = 0.0
    if rank < n:
        tail, lead = order[rank:], factor[rank:, :rank]
        schur = a.array[np.ix_(tail, tail)] - lead @ lead.T
        lowest = _eigenvalue(SymMatrix(schur), 1)
        tol = default_tol(a)
        if lowest < -tol:
            raise NotPSDError(f"matrix not PSD: min eigenvalue {lowest:.3e} < -{tol:.3e}")
        factor[:, rank:] = 0.0
    return factor, order


def psd_sqrt(a: SymMatrix | np.ndarray) -> SymMatrix:
    """Symmetric square root S of a PSD matrix, S @ S == a up to rounding:
    with F the ``psd_factor`` factor, rows back in a's order (a = F F^T),
    S = (F F^T)^{1/2} is the positive polar factor of F^T, from one SVD.

    Raises:
        NotPSDError: as ``psd_factor``.
    """
    from scipy.linalg import polar

    factor, order = psd_factor(a)
    if order is not None:
        factor[order] = factor.copy()
    root = polar(factor.T)[1]
    return SymMatrix._adopt(0.5 * (root + root.T))


def spd_solve(a: SymMatrix | np.ndarray, b: np.ndarray, shift: float = 0.0) -> np.ndarray:
    """Solve (a + shift I) @ x = b for symmetric positive definite
    a + shift I via Cholesky: one LAPACK ``posv`` (``potrf``, then
    ``potrs``).

    Callers guarantee positive definiteness, normally by solving the shifted
    system K + lambda * I with lambda > 0. The shifted matrix is one copy of
    ``a`` that ``posv`` factors in place. Its bits are those of
    ``a + shift * np.eye(n)`` (a -0.0 off the diagonal becomes +0.0, as it
    does when the identity's zeros are added), and only its diagonal, the one
    part the shift changes, is checked for finiteness again.

    Raises:
        NotPositiveDefiniteError: if the factorization fails.
        ValueError: if the shifted diagonal is not finite.
    """
    arr = _as_sym(a).array
    rhs = np.asarray(b, dtype=np.float64)
    if rhs.shape[0] != arr.shape[0]:
        raise ValueError(f"shape mismatch: {arr.shape} vs {rhs.shape}")
    if shift:
        work = arr + 0.0
        diag = work.reshape(-1)[:: arr.shape[0] + 1]
        with np.errstate(over="ignore"):
            diag += shift
        if not np.isfinite(diag).all():
            raise ValueError("matrix entries must be finite")
    else:
        work = arr.copy()
    # As in _cholesky, the transpose is the Fortran-ordered view of work.
    _, x, info = dposv(work.T, rhs, lower=1, overwrite_a=1)
    _check_factored(info, "posv")
    # C order so a solve and its deserialized copy follow the same BLAS
    # paths downstream (bit-reproducible predictions after save/load).
    return np.ascontiguousarray(x)

"""Dense symmetric linear algebra used by every other module.

All operations are pure functions over :class:`SymMatrix`, a thin wrapper
that guarantees bit-exact symmetry and finite entries. Full
eigendecompositions are delegated to LAPACK (``numpy.linalg.eigh``). The
spectrum ends alone (``eigen_extremes``: eta_min of the privacy gate,
``is_psd``) take one blocked reduction to tridiagonal form (LAPACK
``sytrd``) and bisection for the first and the last eigenvalue (``stebz``,
absolute tolerance 2 * safmin), not the whole spectrum. Cholesky
factorizations back both the solves of shifted kernels and ``psd_factor``,
the covariance factor the Gaussian sampling mechanism draws through; the
eigen root ``psd_sqrt`` is its fallback for singular or semidefinite inputs
only. They
call LAPACK ``potrf`` and ``potrs`` directly (``scipy.linalg.lapack``), with
the arguments ``scipy.linalg.cholesky``, ``cho_factor`` and ``cho_solve``
pass, so the results are those functions' bits without their wrappers' cost,
which at the n <= 8 of the bound checks is most of a call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dstebz, dsytrd, dsytrd_lwork

__all__ = [
    "SymMatrix",
    "NotPSDError",
    "NotPositiveDefiniteError",
    "default_tol",
    "sym_eigen",
    "eigen_extremes",
    "is_psd",
    "psd_sqrt",
    "psd_factor",
    "spd_solve",
]


class NotPSDError(ValueError):
    """Matrix has an eigenvalue below the allowed negative tolerance."""


class NotPositiveDefiniteError(ValueError):
    """Cholesky factorization hit a non-positive pivot."""


# Relative asymmetry accepted before construction fails. Inputs produced by
# symmetric arithmetic are bit-symmetric already; this guards caller mistakes.
_ASYM_RTOL = 1e-8


@functools.lru_cache(maxsize=32)
def _strict_lower_mask(n: int) -> np.ndarray:
    """Read-only (n, n) mask, True strictly below the diagonal."""
    mask = np.tri(n, k=-1, dtype=bool)
    mask.setflags(write=False)
    return mask


@dataclass(frozen=True)
class SymMatrix:
    """Symmetric real matrix with entry(i, j) == entry(j, i) bit-for-bit.

    Construction stores a C-ordered copy of the upper triangle mirrored onto
    the lower triangle, so the stored entries for i <= j are exactly the
    caller's values; the caller's array is neither written nor frozen.
    Inputs whose asymmetry exceeds ``_ASYM_RTOL * max(1, ||a||_F)`` are
    rejected.
    """

    array: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.array, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        # Kernels built by symmetric arithmetic equal their transpose bit for
        # bit (the int64 view tells -0.0 from 0.0), so their mirror would be
        # the same bytes: one comparison pass and one copy. Any other input
        # is mirrored, and only one that differs from its mirror pays for the
        # gap and the norm. |a - sym| holds |a_ij - a_ji| below the diagonal
        # and zeros above, so its maximum is max|a - a^T|.
        bits = a.view(np.int64)
        if (bits == bits.T).all():
            sym = a.copy()
        else:
            sym = np.where(_strict_lower_mask(a.shape[0]), a.T, a)
            if not np.array_equal(sym, a):
                gap = a - sym
                np.abs(gap, out=gap)
                if gap.max() > _ASYM_RTOL * max(1.0, float(np.linalg.norm(a))):
                    raise ValueError("matrix is not symmetric within tolerance")
        sym.setflags(write=False)
        object.__setattr__(self, "array", sym)

    def frob_norm(self) -> float:
        return float(np.linalg.norm(self.array))


def _as_sym(a: SymMatrix | np.ndarray) -> SymMatrix:
    return a if isinstance(a, SymMatrix) else SymMatrix(np.asarray(a, dtype=np.float64))


def default_tol(a: SymMatrix | np.ndarray) -> float:
    """PSD tolerance 1e-8 * max(1, ||a||_F), matching eigensolver perturbation
    at the sizes this package targets."""
    return 1e-8 * max(1.0, float(np.linalg.norm(_as_sym(a).array)))


def sym_eigen(a: SymMatrix | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix.

    Returns:
        (eigenvalues ascending, orthonormal eigenvectors as columns) with
        V @ diag(w) @ V.T reconstructing the input.
    """
    w, v = np.linalg.eigh(_as_sym(a).array)
    return w, v


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


def _bisect(d: np.ndarray, e: np.ndarray, index: int) -> float:
    """The index-th smallest (1-based) eigenvalue of the symmetric
    tridiagonal matrix with diagonal d and off-diagonal e (LAPACK ``stebz``)."""
    # range 2 is LAPACK's 'I': eigenvalues il..iu of the ascending spectrum.
    found, w, _, _, info = dstebz(d, e, 2, 0.0, 0.0, index, index, _BISECT_ABSTOL, b"E")
    if info != 0:
        raise ValueError(f"LAPACK stebz failed with info={info}")
    if found != 1:
        raise ValueError(f"LAPACK stebz found {found} eigenvalues at index {index}")
    return float(w[0])


def eigen_extremes(a: SymMatrix | np.ndarray) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a symmetric matrix.

    One blocked Householder reduction to tridiagonal form (LAPACK ``sytrd``,
    the first step of ``eigvalsh``), then bisection for the first and the
    last eigenvalue only (``stebz`` at absolute tolerance 2 * safmin), in
    place of the whole spectrum. An order-1 matrix is its own eigenvalue.

    Raises:
        ValueError: if LAPACK reports an error or does not return the
            requested eigenvalue.
    """
    arr = _as_sym(a).array
    n = arr.shape[0]
    if n == 1:
        value = float(arr[0, 0])
        return value, value
    # As in _cholesky, the transpose is the Fortran-ordered view of the same
    # symmetric matrix, so f2py copies it straight.
    _, d, e, _, info = dsytrd(arr.T, lower=1, lwork=_sytrd_lwork(n))
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK sytrd")
    return _bisect(d, e, 1), _bisect(d, e, n)


def is_psd(a: SymMatrix | np.ndarray, tol: float | None = None) -> bool:
    """True iff the smallest eigenvalue is >= -tol."""
    if tol is None:
        tol = default_tol(a)
    if tol < 0:
        raise ValueError("tol must be non-negative")
    eta_min, _ = eigen_extremes(a)
    return eta_min >= -tol


def psd_sqrt(a: SymMatrix | np.ndarray, tol: float | None = None) -> SymMatrix:
    """Symmetric square root S of a PSD matrix, S @ S == a up to rounding.

    Eigendecomposition backs the root so exactly singular PSD inputs are
    accepted; eigenvalues in [-tol, 0) are clamped to zero first.

    Raises:
        NotPSDError: if an eigenvalue is below -tol.
    """
    a = _as_sym(a)  # validated once, not again by default_tol and sym_eigen
    if tol is None:
        tol = default_tol(a)
    if tol < 0:
        raise ValueError("tol must be non-negative")
    w, v = sym_eigen(a)
    if w[0] < -tol:
        raise NotPSDError(f"matrix not PSD: min eigenvalue {w[0]:.3e} < -{tol:.3e}")
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ v.T
    return SymMatrix(0.5 * (root + root.T))


def _cholesky(arr: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a bit-symmetric float64 matrix, upper
    triangle zeroed.

    ``potrf`` takes Fortran order. The transpose of a C-ordered array is
    that array's Fortran-ordered view, and of a symmetric one the same
    matrix, so f2py copies it straight instead of transposing.

    Raises:
        NotPositiveDefiniteError: if a leading minor is not positive definite.
    """
    factor, info = dpotrf(arr.T, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefiniteError(
            f"{info}-th leading minor of the array is not positive definite"
        )
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK potrf")
    return factor


def psd_factor(a: SymMatrix | np.ndarray, tol: float | None = None) -> np.ndarray:
    """Any factor L with L @ L.T == a up to rounding, for a PSD matrix.

    The lower Cholesky factor (LAPACK ``potrf``) when the factorization
    succeeds (a positive definite in floating point), about ten times
    cheaper than an eigendecomposition at n = 400. Otherwise the symmetric
    root from ``psd_sqrt``, which accepts exactly singular inputs and clamps
    eigenvalues in [-tol, 0) to zero.

    Raises:
        NotPSDError: if an eigenvalue is below -tol (fallback path only: a
            successful factorization certifies positive definiteness).
    """
    if tol is not None and tol < 0:
        raise ValueError("tol must be non-negative")
    a = _as_sym(a)
    try:
        return _cholesky(a.array)
    except NotPositiveDefiniteError:
        return psd_sqrt(a, tol).array


def spd_solve(a: SymMatrix | np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b for symmetric positive definite a via Cholesky
    (LAPACK ``potrf``, then ``potrs``).

    Callers guarantee positive definiteness, normally by solving the shifted
    system K + lambda * I with lambda > 0.

    Raises:
        NotPositiveDefiniteError: if the factorization fails.
    """
    arr = _as_sym(a).array
    rhs = np.asarray(b, dtype=np.float64)
    if rhs.shape[0] != arr.shape[0]:
        raise ValueError(f"shape mismatch: {arr.shape} vs {rhs.shape}")
    x, info = dpotrs(_cholesky(arr), rhs, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK potrs")
    # C order so a solve and its deserialized copy follow the same BLAS
    # paths downstream (bit-reproducible predictions after save/load).
    return np.ascontiguousarray(x)

"""ctypes binding to the OpenBLAS that numpy itself bundles.

numpy's Linux, Windows and macOS wheels ship the scipy-openblas64 build of
OpenBLAS (``numpy.libs/`` beside the package, or ``numpy/.dylibs/``), whose
LAPACK and BLAS routines carry a ``scipy_`` prefix and a ``64_`` suffix and
take ILP64 (int64) integers. Binding ``dpntk.linalg``'s routines to that
library, which numpy has loaded already, keeps one BLAS, one thread pool and
one workspace per process, and keeps scipy off the import path.

Each function keeps the call shape and return tuple of scipy's f2py LAPACK
or BLAS wrapper of the same name, for the arguments the package uses. An
input the routine writes is copied into a fresh Fortran-ordered float64
array, unless the caller gives it up (``overwrite_*``) and it already is
one. Shapes are checked before any pointer is passed. Scalars and
workspaces are allocated per call, so calls from several threads share
nothing. A call costs a few microseconds more than the f2py wrapper's, in
Python and in ctypes' argument conversion: at the n <= 8 of the bound
checks that is most of a call, so each wrapper does no more than its
routine needs.

Importing this module raises ImportError where no such library is found
(numpy built on Accelerate, MKL or a system BLAS); ``dpntk.linalg`` then
takes scipy's wrappers.
"""

from __future__ import annotations

import ctypes
import glob
import os
from ctypes import addressof, c_char, c_double, c_int64

import numpy as np

from ._masks import strict_lower_mask

# Pointer arguments and hidden character lengths (gfortran appends one
# size_t per CHARACTER argument) of each Fortran routine bound.
_SIGNATURES = {
    "dpotrf": (5, 1),
    "dposv": (8, 1),
    "dpstrf": (9, 1),
    "dstebz": (18, 2),
    "dsyevx": (20, 3),
    "dsytrd": (10, 1),
    "dtrtri": (6, 2),
    "dtrmm": (11, 4),
}


def _locate() -> ctypes.CDLL | None:
    """numpy's bundled scipy-openblas64 library, if one is found, loads and
    exports every routine in ``_SIGNATURES``; else None."""
    package = os.path.dirname(np.__file__)
    for folder in (os.path.join(os.path.dirname(package), "numpy.libs"), os.path.join(package, ".dylibs")):
        for path in sorted(glob.glob(os.path.join(folder, "*scipy_openblas64_*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            if all(hasattr(lib, f"scipy_{name}_64_") for name in _SIGNATURES):
                return lib
    return None


LIBRARY = _locate()
if LIBRARY is None:
    raise ImportError("numpy bundles no scipy-openblas64 library")


def _bind(name: str):
    """The routine as a function pointer of its own (other users of the
    library keep their prototypes), every argument declared."""
    pointers, chars = _SIGNATURES[name]
    prototype = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * pointers, *[ctypes.c_size_t] * chars)
    return prototype((f"scipy_{name}_64_", LIBRARY))


_potrf, _posv, _pstrf, _stebz, _syevx, _sytrd, _trtri, _trmm = (_bind(name) for name in _SIGNATURES)

_UPLO = (b"U", b"L")
_NO_YES = (b"N", b"U")
_F64 = np.dtype(np.float64)
# dsyevx's range, given as str or bytes; dstebz's as 0, 1 or 2.
_RANGES = {key: letter.encode() for letter in "AVI" for key in (letter, letter.encode())}
_RANGE_CODES = (b"A", b"V", b"I")
# Per-call scalar blocks: (n, info), and (n, nrhs, info) or (m, n, k).
_INT2 = c_int64 * 2
_INT3 = c_int64 * 3
# What dsyevx returns for the eigenvectors and their failure flags when none
# are computed: empty and read-only, so one pair serves every call.
_NO_VECTORS = np.empty((0, 0))
_NO_VECTORS.setflags(write=False)
_NO_FAILURES = np.empty(0, dtype=np.int64)
_NO_FAILURES.setflags(write=False)


def _work_array(a, overwrite: bool) -> np.ndarray:
    """``a`` as the Fortran-ordered float64 array a routine may write: the
    array itself when given up and already one, else a copy. Either way it
    is writeable, so ``_writeable_address`` applies."""
    if overwrite and type(a) is np.ndarray and a.dtype is _F64:
        flags = a.flags
        if flags.f_contiguous and flags.writeable:
            return a
    return np.array(a, dtype=np.float64, order="F")


def _writeable_address(a: np.ndarray) -> int:
    """Address of the first element of a writeable contiguous array,
    Fortran-ordered if 2-D, through ctypes' view of the buffer of its
    C-ordered transpose: cheaper than ``a.ctypes.data``."""
    return addressof(c_char.from_buffer(a.T))


def _address(a: np.ndarray) -> int:
    """As ``_writeable_address``, for an array that may be read-only."""
    return _writeable_address(a) if a.flags.writeable else a.ctypes.data


def _square(a: np.ndarray) -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a non-empty square matrix, got shape {a.shape}")
    return a.shape[0]


def _vector(v, size: int) -> np.ndarray:
    """A contiguous float64 vector of at least ``size`` entries."""
    if not (type(v) is np.ndarray and v.dtype is _F64 and v.flags.c_contiguous):
        v = np.ascontiguousarray(v, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] < size:
        raise ValueError(f"expected a vector of at least {size} entries, got shape {v.shape}")
    return v


def dpotrf(a, lower=0, clean=1, overwrite_a=0):
    """c, info = dpotrf(a, lower=0, clean=1, overwrite_a=0): Cholesky
    factor; ``clean`` zeroes the triangle LAPACK does not reference."""
    c = _work_array(a, overwrite_a)
    n = _square(c)
    ints = _INT2()
    ints[0] = n
    p = addressof(ints)
    _potrf(_UPLO[lower], p, _writeable_address(c), p, p + 8, 1)
    if clean and n > 1:
        # c.T is C-ordered: its strict lower triangle is c's strict upper.
        (c.T if lower else c)[strict_lower_mask(n)] = 0.0
    return c, ints[1]


def dposv(a, b, lower=0, overwrite_a=0, overwrite_b=0):
    """c, x, info = dposv(a, b, lower=0, overwrite_a=0, overwrite_b=0):
    solve a x = b through the Cholesky factor c; x has b's shape."""
    c = _work_array(a, overwrite_a)
    x = _work_array(b, overwrite_b)
    n = _square(c)
    if x.ndim not in (1, 2) or x.shape[0] != n or x.size < 1:
        raise ValueError(f"shape mismatch: {c.shape} vs {x.shape}")
    ints = _INT3()
    ints[0] = n
    ints[1] = x.size // n
    p = addressof(ints)
    _posv(_UPLO[lower], p, p + 8, _writeable_address(c), p, _writeable_address(x), p, p + 16, 1)
    return c, x, ints[2]


def dpstrf(a, tol=-1.0, lower=0, overwrite_a=0):
    """c, piv, rank, info = dpstrf(a, tol=-1.0, lower=0, overwrite_a=0):
    pivoted Cholesky factor; piv is 1-based."""
    c = _work_array(a, overwrite_a)
    n = _square(c)
    # n, rank, info, then the n pivots.
    ints = np.zeros(n + 3, dtype=np.int64)
    ints[0] = n
    work = np.empty(2 * n)
    tolerance = c_double(tol)
    p = _writeable_address(ints)
    _pstrf(_UPLO[lower], p, _writeable_address(c), p, p + 24, p + 8, addressof(tolerance),
           _writeable_address(work), p + 16, 1)
    return c, ints[3:], int(ints[1]), int(ints[2])


def dsytrd(a, lower=0, lwork=None, overwrite_a=0):
    """c, d, e, tau, info = dsytrd(a, lower=0, lwork=max(n, 1), overwrite_a=0):
    reduction to tridiagonal form, diagonal d and off-diagonal e."""
    c = _work_array(a, overwrite_a)
    n = _square(c)
    if lwork is None:
        lwork = n
    elif lwork < 1:
        raise ValueError(f"lwork must be >= 1, got {lwork}; query it with dsytrd_lwork")
    # d, e, tau, then the workspace.
    reals = np.empty(3 * n - 2 + lwork)
    ints = _INT3()
    ints[0] = n
    ints[1] = lwork
    p, q = addressof(ints), _writeable_address(reals)
    _sytrd(_UPLO[lower], p, _writeable_address(c), p, q, q + 8 * n, q + 8 * (2 * n - 1),
           q + 8 * (3 * n - 2), p + 8, p + 16, 1)
    return c, reals[:n], reals[n:2 * n - 1], reals[2 * n - 1:3 * n - 2], ints[2]


def dsytrd_lwork(n, lower=0):
    """work, info = dsytrd_lwork(n, lower=0): the optimal workspace of
    ``dsytrd`` at order n, from its lwork = -1 query."""
    ints = _INT3()
    ints[0] = n
    ints[1] = -1
    out = (c_double * 2)()
    p, q = addressof(ints), addressof(out)
    # The query reads only n and lwork; lda must still be valid (>= n).
    _sytrd(_UPLO[lower], p, q, p, q, q, q, q + 8, p + 8, p + 16, 1)
    return out[1], ints[2]


def dstebz(d, e, range, vl, vu, il, iu, tol, order):
    """m, w, iblock, isplit, info = dstebz(d, e, range, vl, vu, il, iu, tol, order):
    eigenvalues of the symmetric tridiagonal matrix (d, e) by bisection;
    range 0, 1, 2 is LAPACK's 'A', 'V', 'I'. The first m entries of w and
    iblock and the first nsplit of isplit are defined."""
    if range not in (0, 1, 2):
        raise ValueError(f"range must be 0, 1 or 2, got {range}")
    d = _vector(d, 1)
    n = d.shape[0]
    # At n = 1, e is empty and not read: d's address stands in.
    e = _vector(e, n - 1) if n > 1 else d
    # n, il, iu, m, nsplit, info, then iblock, isplit and the 3n workspace.
    ints = (c_int64 * (6 + 5 * n))()
    ints[0] = n
    ints[1] = il
    ints[2] = iu
    # vl, vu, tol, then w and the 4n workspace.
    reals = (c_double * (3 + 5 * n))()
    reals[0] = vl
    reals[1] = vu
    reals[2] = tol
    p, q = addressof(ints), addressof(reals)
    _stebz(_RANGE_CODES[range], order.encode() if isinstance(order, str) else order,
           p, q, q + 8, p + 8, p + 16, q + 16, _address(d), _address(e),
           p + 24, p + 32, q + 24, p + 48, p + 48 + 8 * n, q + 24 + 8 * n, p + 48 + 16 * n, p + 40, 1, 1)
    block = np.frombuffer(ints, np.int64, 2 * n, 48)
    return ints[3], np.frombuffer(reals, np.float64, n, 24), block[:n], block[n:], ints[5]


def dsyevx(a, compute_v=1, range="A", lower=0, vl=0.0, vu=1.0, il=1, iu=None, abstol=0.0,
           lwork=None, overwrite_a=0):
    """w, z, m, ifail, info = dsyevx(a, compute_v, range='A', lower=0, vl=0.0,
    vu=1.0, il=1, iu=n, abstol=0.0, lwork=8 n, overwrite_a=0): eigenvalues
    of a symmetric matrix (reduction to tridiagonal form, then bisection):
    all, those in (vl, vu], or the il-th to iu-th; the first m entries of w
    are defined. Eigenvectors are not bound: compute_v must be 0, and z and
    ifail come back empty."""
    if compute_v:
        raise ValueError("only eigenvalues are bound: pass compute_v=0")
    letter = _RANGES.get(range)
    if letter is None:
        raise ValueError(f"range must be 'A', 'V' or 'I', got {range!r}")
    c = _work_array(a, overwrite_a)
    n = _square(c)
    if lwork is None:
        lwork = 8 * n
    elif lwork < 1:
        raise ValueError(f"lwork must be >= 1, got {lwork}; query it with dsyevx_lwork")
    # n (also lda), il, iu, m, ldz, lwork, info, then the 5n iwork and the
    # n ifail.
    ints = (c_int64 * (7 + 6 * n))()
    ints[0] = n
    ints[1] = il
    ints[2] = n if iu is None else iu
    ints[4] = 1
    ints[5] = lwork
    # vl, vu, abstol, then w, one entry of z, and the workspace.
    reals = (c_double * (4 + n + lwork))()
    reals[0] = vl
    reals[1] = vu
    reals[2] = abstol
    p, q = addressof(ints), addressof(reals)
    w = q + 24
    _syevx(b"N", letter, _UPLO[lower], p, _writeable_address(c), p, q, q + 8, p + 8, p + 16, q + 16,
           p + 24, w, w + 8 * n, p + 32, w + 8 * (n + 1), p + 40, p + 56, p + 56 + 40 * n, p + 48,
           1, 1, 1)
    return np.frombuffer(reals, np.float64, n, 24), _NO_VECTORS, ints[3], _NO_FAILURES, ints[6]


def dsyevx_lwork(n, lower=0):
    """work, info = dsyevx_lwork(n, lower=0): the optimal workspace of
    ``dsyevx`` at order n, from its lwork = -1 query."""
    # n (also lda), il, iu, m, ldz, lwork, info.
    ints = (c_int64 * 7)()
    ints[0] = n
    ints[1] = ints[2] = ints[4] = 1
    ints[5] = -1
    reals = (c_double * 4)()
    p, q = addressof(ints), addressof(reals)
    # The query reads no array: every pointer but the workspace's may alias.
    _syevx(b"N", b"A", _UPLO[lower], p, q, p, q, q, p + 8, p + 16, q, p + 24, q, q, p + 32, q + 24,
           p + 40, p, p, p + 48, 1, 1, 1)
    return reals[3], ints[6]


def dtrtri(c, lower=0, unitdiag=0, overwrite_c=0):
    """inv_c, info = dtrtri(c, lower=0, unitdiag=0, overwrite_c=0):
    inverse of a triangular matrix; the other triangle is left as given."""
    inv = _work_array(c, overwrite_c)
    ints = _INT2()
    ints[0] = _square(inv)
    p = addressof(ints)
    _trtri(_UPLO[lower], _NO_YES[unitdiag], p, _writeable_address(inv), p, p + 8, 1, 1)
    return inv, ints[1]


def dtrmm(alpha, a, b, side=0, lower=0, trans_a=0, diag=0, overwrite_b=0):
    """b = dtrmm(alpha, a, b, side=0, lower=0, trans_a=0, diag=0, overwrite_b=0):
    alpha op(a) b, or alpha b op(a) with side=1, for triangular a."""
    # a is only read: an F-ordered float64 one is used as it is, read-only
    # or not.
    if not (type(a) is np.ndarray and a.dtype is _F64 and a.flags.f_contiguous):
        a = np.array(a, dtype=np.float64, order="F")
    out = _work_array(b, overwrite_b)
    if out.ndim != 2 or out.size < 1 or _square(a) != out.shape[side]:
        raise ValueError(f"shape mismatch: {a.shape} vs {out.shape}")
    ints = _INT3()
    ints[0], ints[1] = out.shape
    ints[2] = a.shape[0]
    scale = c_double(alpha)
    p = addressof(ints)
    _trmm(b"R" if side else b"L", _UPLO[lower], b"T" if trans_a else b"N", _NO_YES[diag],
          p, p + 8, addressof(scale), _address(a), p + 16, _writeable_address(out), p, 1, 1, 1, 1)
    return out

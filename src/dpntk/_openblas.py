"""ctypes binding to the OpenBLAS that numpy itself bundles.

numpy's Linux, Windows and macOS wheels ship the scipy-openblas64 build of
OpenBLAS (``numpy.libs/`` beside the package, or ``numpy/.dylibs/``), whose
LAPACK and BLAS routines carry a ``scipy_`` prefix and a ``64_`` suffix and
take ILP64 (int64) integers. Binding ``dpntk.linalg``'s routines to that
library, which numpy has loaded already, keeps one BLAS, one thread pool and
one workspace per process, and keeps scipy off the import path.

Each function makes the one call the package makes of its routine, on the
lower triangle (listed in ``dpntk.linalg``); ``sytrd`` and ``syevx`` take
the fixed workspace size ``dpntk.linalg`` gives them, with no query. A
matrix the routine writes is copied into a fresh Fortran-ordered float64
array, except ``posv``'s a and ``trmm``'s b, which the caller gives up: they
are written in place when they already are one. Shapes are checked before
any pointer is passed. Scalars and workspaces are allocated per call, so
calls from several threads share nothing. Each function does no more than
its routine needs: at the n <= 8 of the bound checks, the few microseconds
of Python and ctypes' argument conversion are most of a call.

Importing this module raises ImportError where no such library is found
(numpy built on Accelerate, MKL or a system BLAS); ``dpntk.linalg`` then
gives the same eight calls as adapters over scipy's wrappers.
"""

from __future__ import annotations

import ctypes
import glob
import os
from ctypes import addressof, c_char, c_double, c_int64

import numpy as np

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

_F64 = np.dtype(np.float64)
# Per-call scalar blocks: (n, info), and (n, nrhs, info), (n, lwork, info)
# or (m, n, lda).
_INT2 = c_int64 * 2
_INT3 = c_int64 * 3
# trmm's alpha, which BLAS only reads.
_ONE = c_double(1.0)


def _copy(a) -> np.ndarray:
    """A fresh Fortran-ordered float64 copy of ``a`` for a routine to write."""
    return np.array(a, dtype=np.float64, order="F")


def _given_up(a) -> np.ndarray:
    """``a`` itself where it is a writeable Fortran-ordered float64 array,
    which its caller gives up for a routine to write; else a copy."""
    if type(a) is np.ndarray and a.dtype is _F64:
        flags = a.flags
        if flags.f_contiguous and flags.writeable:
            return a
    return _copy(a)


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


def potrf(a):
    """c, info: the lower Cholesky factor of ``a``, in a copy whose strict
    upper triangle is still ``a``'s."""
    c = _copy(a)
    ints = _INT2()
    ints[0] = _square(c)
    p = addressof(ints)
    _potrf(b"L", p, _writeable_address(c), p, p + 8, 1)
    return c, ints[1]


def posv(a, b):
    """x, info: solve a x = b through the lower Cholesky factor of ``a``,
    which overwrites ``a`` (given up); x is a copy of ``b``, of its shape."""
    c = _given_up(a)
    x = _copy(b)
    n = _square(c)
    if x.ndim not in (1, 2) or x.shape[0] != n or x.size < 1:
        raise ValueError(f"shape mismatch: {c.shape} vs {x.shape}")
    ints = _INT3()
    ints[0] = n
    ints[1] = x.size // n
    p = addressof(ints)
    _posv(b"L", p, p + 8, _writeable_address(c), p, _writeable_address(x), p, p + 16, 1)
    return x, ints[2]


def pstrf(a):
    """c, piv, rank, info: the lower pivoted Cholesky factor of ``a`` at
    LAPACK's default tolerance, in a copy; piv is 1-based."""
    c = _copy(a)
    n = _square(c)
    # n, rank, info, then the n pivots.
    ints = np.zeros(n + 3, dtype=np.int64)
    ints[0] = n
    work = np.empty(2 * n)
    tolerance = c_double(-1.0)
    p = _writeable_address(ints)
    _pstrf(b"L", p, _writeable_address(c), p, p + 24, p + 8, addressof(tolerance),
           _writeable_address(work), p + 16, 1)
    return c, ints[3:], int(ints[1]), int(ints[2])


def sytrd(a, lwork):
    """d, e, info: the diagonal and off-diagonal of the tridiagonal form of
    ``a`` (lower triangle), reduced with ``lwork`` entries of workspace."""
    c = _copy(a)
    n = _square(c)
    # d, e and tau (n entries each) in one array the results view; the
    # workspace apart, so no view holds it and an lwork < 1 fails here.
    tri = np.empty(3 * n)
    work = np.empty(lwork)
    ints = _INT3()
    ints[0] = n
    ints[1] = lwork
    p, q = addressof(ints), _writeable_address(tri)
    _sytrd(b"L", p, _writeable_address(c), p, q, q + 8 * n, q + 16 * n,
           _writeable_address(work), p + 8, p + 16, 1)
    return tri[:n], tri[n:2 * n - 1], ints[2]


def stebz(d, e, index, abstol):
    """m, w, info: the index-th smallest (1-based) eigenvalue w of the
    symmetric tridiagonal matrix with diagonal d and off-diagonal e, by
    bisection to absolute tolerance ``abstol``; w is defined when m is 1."""
    d = _vector(d, 1)
    n = d.shape[0]
    # At n = 1, e is empty and not read: d's address stands in.
    e = _vector(e, n - 1) if n > 1 else d
    # n, il, iu, m, nsplit, info, then iblock, isplit and the 3n workspace.
    ints = (c_int64 * (6 + 5 * n))()
    ints[0] = n
    ints[1] = ints[2] = index
    # vl, vu (not read), abstol, then w and the 4n workspace.
    reals = (c_double * (3 + 5 * n))()
    reals[2] = abstol
    p, q = addressof(ints), addressof(reals)
    _stebz(b"I", b"E", p, q, q + 8, p + 8, p + 16, q + 16, _address(d), _address(e),
           p + 24, p + 32, q + 24, p + 48, p + 48 + 8 * n, q + 24 + 8 * n, p + 48 + 16 * n, p + 40, 1, 1)
    return ints[3], reals[3], ints[5]


def syevx(a, abstol, lwork):
    """m, w, info: the smallest eigenvalue w of ``a`` (lower triangle),
    reduced to tridiagonal form with ``lwork`` entries of workspace, then
    bisected to absolute tolerance ``abstol``; w is defined when m is 1."""
    c = _copy(a)
    n = _square(c)
    # n (also lda), il, iu, m, ldz, lwork, info, then the 5n iwork and the
    # n ifail.
    ints = (c_int64 * (7 + 6 * n))()
    ints[0] = n
    ints[1] = ints[2] = ints[4] = 1
    ints[5] = lwork
    # vl, vu (not read), abstol, then w and one entry of z; the workspace
    # apart, as in sytrd.
    reals = (c_double * (4 + n))()
    reals[2] = abstol
    work = np.empty(lwork)
    p, q = addressof(ints), addressof(reals)
    w = q + 24
    _syevx(b"N", b"I", b"L", p, _writeable_address(c), p, q, q + 8, p + 8, p + 16, q + 16,
           p + 24, w, w + 8 * n, p + 32, _writeable_address(work), p + 40, p + 56, p + 56 + 40 * n, p + 48,
           1, 1, 1)
    return ints[3], reals[3], ints[6]


def trtri(c):
    """inv, info: the inverse of the lower triangular ``c`` (non-unit
    diagonal), in a copy whose strict upper triangle is still ``c``'s."""
    inv = _copy(c)
    ints = _INT2()
    ints[0] = _square(inv)
    p = addressof(ints)
    _trtri(b"L", b"N", p, _writeable_address(inv), p, p + 8, 1, 1)
    return inv, ints[1]


def trmm(a, b):
    """b a^T for the lower triangular ``a`` (non-unit diagonal), written
    over ``b`` (given up)."""
    # a is only read: an F-ordered float64 one is used as it is, read-only
    # or not.
    if not (type(a) is np.ndarray and a.dtype is _F64 and a.flags.f_contiguous):
        a = _copy(a)
    out = _given_up(b)
    if out.ndim != 2 or out.size < 1 or _square(a) != out.shape[1]:
        raise ValueError(f"shape mismatch: {a.shape} vs {out.shape}")
    ints = _INT3()
    ints[0], ints[1] = out.shape
    ints[2] = a.shape[0]
    p = addressof(ints)
    _trmm(b"R", b"L", b"T", b"N", p, p + 8, addressof(_ONE), _address(a), p + 16, _writeable_address(out), p,
          1, 1, 1, 1)
    return out

"""Quadratic-activation neural tangent kernels.

Two constructions of the same kernel:

* ``discrete_kernel`` - the Monte-Carlo form over m frozen Gaussian weight
  vectors, entry(i, j) = (1/m) sum_r (w_r . x_i)(w_r . x_j)(x_i . x_j).
  The m-term sum is (R x_i) . (R x_j) for the QR factor R of the weights, so
  m enters through one O(m d^2) QR and each entry costs O(d). The QR is
  paid once per weight matrix (``WeightMatrix.factor``), not once per call:
  every kernel build, kernel row and prediction under the same weights
  reads the same factor.
* ``continuous_kernel`` - its expectation, sigma^2 (x_i . x_j)^2.

``kernel_vector`` evaluates the kernel function between one query point, or a
batch of them, and every training row. Both it and ``discrete_kernel`` run
the same contractions (``_entries``), so kernel_vector(x_i, data, w)[j] ==
discrete kernel entry(i, j) bit-for-bit, and a batch row equals the same query
evaluated alone.

Every inner product is an ``np.einsum(..., optimize=False)`` contraction:
numpy's own C loop, never BLAS, where each output entry is one loop over the
contracted axis whose order depends only on that axis's length. Products
commute, so entry (j, i) repeats the arithmetic of (i, j) and both kernels
are exactly symmetric; no entry depends on the other rows, the batch or the
BLAS thread count. The contractions take leading stack axes, so a (T, n, d)
stack of datasets gives T kernels, each equal to its lone build bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import SymMatrix, _bisect, _tridiagonal
from .rng import RngStream

__all__ = [
    "Dataset",
    "WeightMatrix",
    "KernelMatrix",
    "sample_weights",
    "discrete_kernel",
    "continuous_kernel",
    "kernel_vector",
    "normalize_rows",
]

# Slack accepted when validating row norms against bound_B; rounding in norm
# computation must not reject rows that satisfy the bound by construction.
_NORM_RTOL = 1e-9


def _outside_ball(norms: float | np.ndarray, bound_B: float) -> bool | np.ndarray:
    """Whether row norms leave the B-ball: the one test, with its slack, that
    every row (training, query or moved neighbor) is held to."""
    return norms > bound_B * (1.0 + _NORM_RTOL) + 1e-12


def _check_scale(name: str, value: float) -> None:
    """The one check of beta and sigma: finite and non-negative."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and non-negative")


def _check_positive(name: str, value: float) -> None:
    """The one check of the row bound B and the ridge lambda: finite and
    positive."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive")


def _check_rows(feats: np.ndarray, bound_B: float) -> None:
    """The one check of feature rows, a ``Dataset``'s and moved neighbors':
    finite, of finite norm (finite rows can overflow their sum of squares)
    and inside the B-ball of a valid B."""
    if not np.all(np.isfinite(feats)):
        raise ValueError("features and labels must be finite")
    _check_positive("bound_B", bound_B)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(feats, axis=1)
    worst = float(norms.max(initial=0.0))
    if not math.isfinite(worst):
        raise ValueError(f"row {int(norms.argmax())}: norm is not finite (its squares overflow)")
    if _outside_ball(worst, bound_B):
        raise ValueError(f"row norm {worst:.6g} exceeds bound_B={bound_B:.6g}")


# Row-block height of ``discrete_kernel``'s upper-triangle build. Smaller
# blocks skip more of the lower triangle and pay more calls: at n = 400,
# 64-row blocks were as fast as 32 and faster than 128 (one BLAS thread).
_KERNEL_BLOCK = 64


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with labels and a stated L2 row bound.

    Attributes:
        features: (n, d) float64 matrix, row i is the i-th point.
        labels: (n, c) float64 matrix; c = 1 for binary +/-1 labels,
            c = number of classes for one-hot labels.
        bound_B: stated bound with ||x_i||_2 <= bound_B for every row.
            The bound is supplied by the caller, never inferred silently,
            because it enters every sensitivity formula.
    """

    features: np.ndarray
    labels: np.ndarray
    bound_B: float

    def __post_init__(self) -> None:
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        labs = np.ascontiguousarray(self.labels, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValueError(f"features must be a non-empty 2-D matrix, got {feats.shape}")
        if labs.ndim == 1:
            labs = labs.reshape(-1, 1)
        if labs.shape[0] != feats.shape[0]:
            raise ValueError("labels must have one row per data point")
        if not np.all(np.isfinite(labs)):
            raise ValueError("features and labels must be finite")
        _check_rows(feats, self.bound_B)
        feats.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.labels.shape[1]


@dataclass(frozen=True)
class WeightMatrix:
    """m frozen Gaussian weight vectors, drawn once and never resampled."""

    weights: np.ndarray
    sigma: float
    seed_record: str = ""

    def __post_init__(self) -> None:
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
            raise ValueError(f"weights must be a non-empty 2-D matrix, got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        _check_scale("sigma", self.sigma)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def m(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    @cached_property
    def factor(self) -> np.ndarray:
        """Read-only R of W = QR, min(m, d) x d: R^T R = W^T W, so
        sum_r (w_r . a)(w_r . b) = (R a) . (R b). Computed on first use;
        ``persistence.load_model`` fills it from a version-2 model file."""
        r = np.linalg.qr(self.weights, mode="r")
        r.setflags(write=False)
        return r


class KernelMatrix:
    """Symmetric PSD kernel matrix with lazily cached spectrum ends.

    The tridiagonal form (``linalg._tridiagonal``, one ``sytrd``) is reduced
    on the first read of either end, and each end is bisected on its own
    first read: the privacy gate reads eta_min alone and pays for no eta_max.
    """

    def __init__(self, matrix: SymMatrix):
        self.matrix = matrix

    @cached_property
    def _tridiagonal_form(self) -> tuple[np.ndarray, np.ndarray]:
        return _tridiagonal(self.matrix)

    @cached_property
    def eta_min(self) -> float:
        return _bisect(*self._tridiagonal_form, 1)

    @cached_property
    def eta_max(self) -> float:
        return _bisect(*self._tridiagonal_form, -1)


def sample_weights(m: int, d: int, sigma: float, rng: RngStream) -> WeightMatrix:
    """Draw an (m, d) weight matrix with i.i.d. N(0, sigma^2) entries.

    sigma = 0 is allowed as the degenerate all-zero case.
    """
    if m < 1 or d < 1:
        raise ValueError("m and d must be >= 1")
    _check_scale("sigma", sigma)
    stream = rng.substream("weights")
    w = stream.generator().standard_normal((m, d))
    w *= sigma
    return WeightMatrix(weights=w, sigma=float(sigma), seed_record="/".join(stream.path))


def _project(feats: np.ndarray, w: WeightMatrix) -> np.ndarray:
    """(..., n, r) projections R x_j of the rows, one fixed-order contraction
    over d per entry."""
    if feats.shape[-1] != w.dim:
        raise ValueError(f"feature dim {feats.shape[-1]} != weight dim {w.dim}")
    return np.einsum("rd,...nd->...nr", w.factor, feats, optimize=False)


def _entries(uq: np.ndarray, queries: np.ndarray, u: np.ndarray, feats: np.ndarray,
             m: int) -> np.ndarray:
    """(..., q, n) kernel values from the query and training projections:
    the fixed-order contractions (R x) . (R x_j) and x . x_j, multiplied and
    divided by m. A GEMM here would round with the batch size."""
    rows = np.einsum("...qr,...nr->...qn", uq, u, optimize=False)
    rows *= np.einsum("...qd,...nd->...qn", queries, feats, optimize=False)
    rows /= m
    return rows


def _kernel_rows(queries: np.ndarray, feats: np.ndarray, w: WeightMatrix) -> np.ndarray:
    """(..., q, n) kernel values between query rows and training rows.
    Leading axes stack independent problems, each slice bit-identical to its
    lone call."""
    u = _project(feats, w)
    uq = u if queries is feats else _project(queries, w)
    return _entries(uq, queries, u, feats, w.m)


def _closed_form_entries(feats: np.ndarray, sigma: float) -> np.ndarray:
    """(..., n, n) entries sigma^2 (x_i . x_j)^2 through one fixed-order
    contraction; leading axes stack datasets as in ``_kernel_rows``."""
    g = np.einsum("...id,...jd->...ij", feats, feats, optimize=False)
    return (sigma * sigma) * g * g


def discrete_kernel(data: Dataset, w: WeightMatrix) -> KernelMatrix:
    """Monte-Carlo quadratic NTK matrix for the dataset under fixed weights.

    Entry (i, j) = (1/m) sum_r (w_r . x_i)(w_r . x_j)(x_i . x_j). The m-term
    sum is the bilinear form x_i^T W^T W x_j = (R x_i) . (R x_j) with W = QR,
    R of min(m, d) rows: one QR of the weights, O(m d^2), then O(d) per entry,
    O(m d^2 + n^2 d) in all instead of the naive O(n^2 m d).

    Only the upper block triangle is computed: row block i0:i1 meets columns
    i0: and is mirrored below the diagonal. Each entry is the same fixed-order
    loop as in the full contraction, so the matrix is the same bytes as
    ``_kernel_rows(X, X, w)`` at about half the work. It is bit-symmetric,
    so the ``SymMatrix`` adopts it without a copy.
    """
    feats = data.features
    u = _project(feats, w)
    n = data.n
    out = np.empty((n, n))
    for i0 in range(0, n, _KERNEL_BLOCK):
        i1 = min(i0 + _KERNEL_BLOCK, n)
        block = _entries(u[i0:i1], feats[i0:i1], u[i0:], feats[i0:], w.m)
        out[i0:i1, i0:] = block
        out[i0:, i0:i1] = block.T
    return KernelMatrix(SymMatrix._adopt(out))


def continuous_kernel(data: Dataset, sigma: float) -> KernelMatrix:
    """Closed-form kernel sigma^2 (x_i . x_j)^2, the weight-expectation of the
    discrete kernel. PSD as the elementwise square of a Gram matrix."""
    _check_scale("sigma", sigma)
    return KernelMatrix(SymMatrix._adopt(_closed_form_entries(data.features, sigma)))


def kernel_vector(x: np.ndarray, data: Dataset, w: WeightMatrix) -> np.ndarray:
    """Kernel function values between queries and every training row.

    A (d,) query gives (n,) values and a (q, d) batch (q, n). Component j is
    (1/m) sum_r (w_r . x)(w_r . x_j)(x . x_j), on the identical arithmetic
    path as discrete_kernel: a training row reproduces its matrix row exactly,
    and a batch row equals the same query passed alone, bit for bit.

    Queries outside the stated B-ball are allowed but warn, once per call:
    predictions stay well-defined, the utility bounds just no longer apply.
    A query whose values overflow raises ValueError naming its row.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _kernel_rows(_query_rows(x, data), data.features, w)
    return _finite_per_query(rows, "kernel row", np.ndim(x) == 2)


def _query_rows(x: np.ndarray, data: Dataset) -> np.ndarray:
    """A (d,) query or (q, d) batch as (q, d) float64 rows, warning once if
    any row leaves the B-ball. Shared by every query path, which computes
    under ``np.errstate`` and checks its result with ``_finite_per_query``."""
    q = np.ascontiguousarray(x, dtype=np.float64)
    if q.ndim not in (1, 2) or q.shape[-1] != data.dim:
        raise ValueError(f"query shape {q.shape} does not end in feature dim {data.dim}")
    queries = q.reshape(-1, data.dim)
    worst = float(np.linalg.norm(queries, axis=1).max(initial=0.0))
    if _outside_ball(worst, data.bound_B):
        warnings.warn(
            f"query norm {worst:.6g} exceeds bound_B={data.bound_B:.6g}; "
            "utility bounds assume queries inside the B-ball",
            stacklevel=3,
        )
    return queries


def _finite_per_query(out: np.ndarray, what: str, batch: bool) -> np.ndarray:
    """(q, k) query results, refused naming the first row with a non-finite
    entry; the (k,) row alone unless ``batch``."""
    if not np.isfinite(out).all():
        bad = ~np.isfinite(out).all(axis=1)
        raise ValueError(f"query row {int(bad.argmax())}: non-finite {what}")
    return out if batch else out[0]


def normalize_rows(data: Dataset) -> Dataset:
    """Rescale every feature row to unit L2 norm and set bound_B = 1."""
    norms = np.linalg.norm(data.features, axis=1)  # finite: Dataset refuses the rest
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize a dataset containing a zero row")
    feats = data.features / norms[:, None]
    return Dataset(features=feats, labels=data.labels, bound_B=1.0)

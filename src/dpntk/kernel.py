"""Quadratic-activation neural tangent kernels.

Two constructions of the same kernel:

* ``discrete_kernel`` - the Monte-Carlo form over m frozen Gaussian weight
  vectors, entry(i, j) = (1/m) sum_r (w_r . x_i)(w_r . x_j)(x_i . x_j).
  The m-term sum is (R x_i) . (R x_j) for the QR factor R of the weights, so
  m enters through one O(m d^2) QR and each entry costs O(d).
* ``continuous_kernel`` - its expectation, sigma^2 (x_i . x_j)^2.

``kernel_vector`` evaluates the kernel function between one query point, or a
batch of them, and every training row. Both it and ``discrete_kernel`` run
through ``_kernel_rows``, so kernel_vector(x_i, data, w)[j] == discrete kernel
entry(i, j) bit-for-bit, and a batch row equals the same query evaluated alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import SymMatrix, eigen_extremes
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
        if not np.all(np.isfinite(feats)) or not np.all(np.isfinite(labs)):
            raise ValueError("features and labels must be finite")
        if not (self.bound_B > 0):
            raise ValueError("bound_B must be positive")
        norms = np.linalg.norm(feats, axis=1)
        limit = self.bound_B * (1.0 + _NORM_RTOL) + 1e-12
        if np.any(norms > limit):
            worst = float(norms.max())
            raise ValueError(f"row norm {worst:.6g} exceeds bound_B={self.bound_B:.6g}")
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
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def m(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


class KernelMatrix:
    """Symmetric PSD kernel matrix with lazily cached eigen extremes."""

    def __init__(self, matrix: SymMatrix):
        self.matrix = matrix

    @cached_property
    def _extremes(self) -> tuple[float, float]:
        return eigen_extremes(self.matrix)

    @property
    def eta_min(self) -> float:
        return self._extremes[0]

    @property
    def eta_max(self) -> float:
        return self._extremes[1]


def sample_weights(m: int, d: int, sigma: float, rng: RngStream) -> WeightMatrix:
    """Draw an (m, d) weight matrix with i.i.d. N(0, sigma^2) entries.

    sigma = 0 is allowed as the degenerate all-zero case.
    """
    if m < 1 or d < 1:
        raise ValueError("m and d must be >= 1")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    stream = rng.substream("weights")
    w = sigma * stream.generator().standard_normal((m, d))
    return WeightMatrix(weights=w, sigma=float(sigma), seed_record="/".join(stream.path))


def _kernel_rows(queries: np.ndarray, data: Dataset, w: WeightMatrix) -> np.ndarray:
    """(q, n) kernel values between query rows and training rows. Reductions
    are elementwise products + np.sum, whose order is fixed by shape alone, so
    the matrix is exactly symmetric and a row never depends on its batch."""
    if data.dim != w.dim:
        raise ValueError(f"feature dim {data.dim} != weight dim {w.dim}")
    feats = data.features
    # R^T R = W^T W, so sum_r (w_r . a)(w_r . b) = (R a) . (R b). Each R x is
    # its own reduction: a GEMM over all rows would round with the batch size.
    factor = np.linalg.qr(w.weights, mode="r")
    u = np.array([(factor * x).sum(axis=1) for x in feats])
    rows = np.empty((len(queries), data.n))
    if queries is feats:
        # discrete_kernel: products commute, so entry (j, i) would repeat the
        # arithmetic of (i, j). Build row i from the diagonal on and copy it
        # down column i.
        for i, x in enumerate(feats):
            rows[i, i:] = (u[i:] * u[i]).sum(axis=1) * (feats[i:] * x).sum(axis=1) / w.m
            rows[i + 1:, i] = rows[i, i + 1:]
        return rows
    for i, x in enumerate(queries):
        rows[i] = (u * (factor * x).sum(axis=1)).sum(axis=1) * (feats * x).sum(axis=1) / w.m
    return rows


def discrete_kernel(data: Dataset, w: WeightMatrix) -> KernelMatrix:
    """Monte-Carlo quadratic NTK matrix for the dataset under fixed weights.

    Entry (i, j) = (1/m) sum_r (w_r . x_i)(w_r . x_j)(x_i . x_j). The m-term
    sum is the bilinear form x_i^T W^T W x_j = (R x_i) . (R x_j) with W = QR,
    R of min(m, d) rows: one QR of the weights, O(m d^2), then O(d) per entry,
    O(m d^2 + n^2 d) in all instead of the naive O(n^2 m d).
    """
    return KernelMatrix(SymMatrix(_kernel_rows(data.features, data, w)))


def continuous_kernel(data: Dataset, sigma: float) -> KernelMatrix:
    """Closed-form kernel sigma^2 (x_i . x_j)^2, the weight-expectation of the
    discrete kernel. PSD as the elementwise square of a Gram matrix."""
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    feats = data.features
    n = data.n
    h = np.empty((n, n))
    for i in range(n):
        g = (feats * feats[i]).sum(axis=1)
        h[i] = (sigma * sigma) * g * g
    return KernelMatrix(SymMatrix(h))


def kernel_vector(x: np.ndarray, data: Dataset, w: WeightMatrix) -> np.ndarray:
    """Kernel function values between queries and every training row.

    A (d,) query gives (n,) values and a (q, d) batch (q, n). Component j is
    (1/m) sum_r (w_r . x)(w_r . x_j)(x . x_j), on the identical arithmetic
    path as discrete_kernel: a training row reproduces its matrix row exactly,
    and a batch row equals the same query passed alone, bit for bit.

    Queries outside the stated B-ball are allowed but warn, once per call:
    predictions stay well-defined, the utility bounds just no longer apply.
    """
    rows = _kernel_rows(_query_rows(x, data), data, w)
    return rows if np.ndim(x) == 2 else rows[0]


def _query_rows(x: np.ndarray, data: Dataset) -> np.ndarray:
    """A (d,) query or (q, d) batch as (q, d) float64 rows, warning once if
    any row leaves the B-ball. Shared by every query path."""
    q = np.ascontiguousarray(x, dtype=np.float64)
    if q.ndim not in (1, 2) or q.shape[-1] != data.dim:
        raise ValueError(f"query shape {q.shape} does not end in feature dim {data.dim}")
    queries = q.reshape(-1, data.dim)
    worst = float(np.linalg.norm(queries, axis=1).max(initial=0.0))
    if worst > data.bound_B * (1.0 + _NORM_RTOL):
        warnings.warn(
            f"query norm {worst:.6g} exceeds bound_B={data.bound_B:.6g}; "
            "utility bounds assume queries inside the B-ball",
            stacklevel=3,
        )
    return queries


def normalize_rows(data: Dataset) -> Dataset:
    """Rescale every feature row to unit L2 norm and set bound_B = 1."""
    norms = np.linalg.norm(data.features, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize a dataset containing a zero row")
    feats = data.features / norms[:, None]
    return Dataset(features=feats, labels=data.labels, bound_B=1.0)

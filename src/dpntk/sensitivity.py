"""Brute-force verification of the kernel sensitivity bounds.

Every closed-form bound used by the budget calculus is re-checked here
against direct measurement on beta-close neighbors of one base dataset:
per-entry Lipschitz constants, the Frobenius sensitivity of the closed-form
kernel, the whitened PSD sandwich, the finite-width sensitivity of the
Monte-Carlo kernel, and the discrete/closed-form gap. Each oracle returns
``BoundCheck`` rows; a violation shows as a ratio above 1.

A neighbor replaces the last row of the base by one of a (T, d) stack of
moved rows, drawn by ``moved_rows`` one trial stream each. One generator,
``_neighbor_kernels``, checks the moved rows once with ``Dataset``'s row
check, then builds the neighbors from the base as (T, n, d) feature
stacks, chunk by chunk. Every neighbor kernel is recomputed in full from its
features by the same fixed-order contraction as
``discrete_kernel``/``continuous_kernel``, so slice t equals the lone build
of neighbor t bit for bit. Nothing is derived from the row update. Entry
maxima and whitened spectra are reduced over the stack, the Frobenius gaps
slice by slice. Every oracle is deterministic given its rows.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .kernel import (
    Dataset,
    WeightMatrix,
    _check_rows,
    _check_scale,
    _closed_form_entries,
    _kernel_rows,
    continuous_kernel,
    discrete_kernel,
)
from .privacy import continuous_sensitivity_psi
from .rng import RngStream
from .linalg import NotPositiveDefiniteError, _cholesky, dtrtri

__all__ = [
    "BoundCheck",
    "moved_rows",
    "entry_lipschitz_check",
    "psd_sandwich_check",
    "cts_sensitivity_check",
    "dis_cts_gap",
    "dis_sensitivity_check",
]

# The Monte-Carlo kernel's sensitivity is checked against twice psi: the
# finite-m fluctuation term on the affected row only vanishes as m grows.
_DIS_SLACK = 2.0


@dataclass(frozen=True)
class BoundCheck:
    """One bound-versus-measurement row: passes iff empirical <= theoretical."""

    name: str
    theoretical: float
    empirical: float

    @property
    def ratio(self) -> float:
        if self.theoretical == 0.0:
            return 0.0 if self.empirical == 0.0 else float("inf")
        return self.empirical / self.theoretical

    @property
    def passed(self) -> bool:
        return self.empirical <= self.theoretical


def moved_rows(data: Dataset, beta: float, trials: int, rng: RngStream, label: str) -> np.ndarray:
    """(T, d) copies of the last row of ``data``, each moved by a uniform
    draw in the beta-ball and clipped into the B-ball.

    Trial t draws from ``rng.substream(f"{label}{t}")``'s "neighbor"
    substream: d normals for the direction, then one uniform u for the
    radius beta * u^(1/d). The rows are then normalized, moved and clipped
    as (T, d) array operations; each row norm is sqrt(v . v), the value
    ``np.linalg.norm`` gives one row. Projection onto the B-ball is
    non-expansive, so a clipped row stays within beta of the original.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_scale("beta", beta)
    x = data.features[data.n - 1]
    if beta == 0.0:
        return np.repeat(x[None], trials, axis=0)
    d = data.dim
    directions = np.empty((trials, d))
    radii = np.empty((trials, 1))
    for t in range(trials):
        gen = rng.substream(f"{label}{t}").substream("neighbor").generator()
        directions[t] = gen.standard_normal(d)
        radii[t] = beta * gen.random() ** (1.0 / d)
    norms = _row_norms(directions)
    np.divide(directions, norms, out=directions, where=norms != 0.0)
    moved = x + radii * directions
    norms = _row_norms(moved)
    over = norms[:, 0] > data.bound_B
    moved[over] *= data.bound_B / norms[over]
    return moved


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """(T, 1) L2 norms, row by row as ``np.linalg.norm`` of one row: a
    batched norm sums in another order."""
    return np.array([[math.sqrt(v.dot(v))] for v in rows])


# Most stacked kernel entries held at once (8 MB of doubles). Slices are
# independent, so where a sweep is cut into chunks changes no bit.
_STACK_ENTRIES = 1 << 20


def _neighbor_kernels(
    data: Dataset, beta: float, rows: np.ndarray, entries: Callable[[np.ndarray], np.ndarray]
) -> Iterator[np.ndarray]:
    """Each neighbor's kernel: ``entries`` of (T, n, d) feature stacks of at
    most ``_STACK_ENTRIES`` entries, built from the base with the last row
    replaced by each of ``rows``. The rows are checked once, by ``Dataset``'s
    own row check (``kernel._check_rows``). Each kernel stack is refused
    unless finite and exactly symmetric (stricter than ``SymMatrix``, and what
    the fixed-order contraction yields), so each slice equals its lone build."""
    if rows.ndim != 2 or rows.shape[1] != data.dim:
        raise ValueError("base and neighbor must have identical shape")
    _check_rows(rows, data.bound_B)
    _check_scale("beta", beta)
    if np.any(np.linalg.norm(rows - data.features[-1], axis=1) > beta * (1.0 + 1e-9) + 1e-15):
        raise ValueError("changed rows are farther apart than beta")
    step = max(1, _STACK_ENTRIES // (data.n * data.n))
    for s in range(0, len(rows), step):
        chunk = rows[s : s + step]
        feats = np.repeat(data.features[None], len(chunk), axis=0)
        feats[:, -1] = chunk
        hp = entries(feats)
        if not np.all(np.isfinite(hp)):
            raise ValueError("matrix entries must be finite")
        if not np.array_equal(hp, hp.swapaxes(1, 2)):
            raise ValueError("stacked kernel is not exactly symmetric")
        yield hp


def _closed_form_kernels(data: Dataset, sigma: float, beta: float, rows: np.ndarray) -> Iterator[np.ndarray]:
    """Slice t equals ``continuous_kernel`` of neighbor t bit for bit."""
    return _neighbor_kernels(data, beta, rows, lambda f: _closed_form_entries(f, sigma))


def _max_frobenius_gap(h: np.ndarray, kernels: Iterator[np.ndarray]) -> float:
    """max_t ||K - K'_t||_F, one norm per slice as for a lone pair (a
    batched ``axis=(1, 2)`` norm rounds differently). Each is sqrt(v . v)
    of the raveled slice, as in ``_row_norms``: ``np.linalg.norm``'s own
    arithmetic, without its wrapper."""
    return max(math.sqrt(v.dot(v)) for hp in kernels for v in (h - hp).reshape(len(hp), -1))


def entry_lipschitz_check(data: Dataset, sigma: float, beta: float, rows: np.ndarray) -> list[BoundCheck]:
    """Per-entry Lipschitz constants of the closed-form kernel over the
    neighbors with the last row replaced by each of ``rows``.

    Affected off-diagonal entries obey 2 sigma^2 B^3 beta and the affected
    diagonal entry 4 sigma^2 B^3 beta. Returns [off-diagonal, diagonal].
    """
    h = continuous_kernel(data, sigma).matrix.array
    i = data.n - 1
    off, diag = [], []
    for hp in _closed_form_kernels(data, sigma, beta, rows):
        diff = np.abs(h[i] - hp[:, i])
        off.append(diff[:, :i].max(axis=1, initial=0.0))
        diag.append(diff[:, i])
    b3 = data.bound_B ** 3
    return [
        BoundCheck("entry_lipschitz_offdiag", 2.0 * sigma * sigma * b3 * beta, float(np.concatenate(off).max())),
        BoundCheck("entry_lipschitz_diag", 4.0 * sigma * sigma * b3 * beta, float(np.concatenate(diag).max())),
    ]


def psd_sandwich_check(data: Dataset, sigma: float, beta: float, rows: np.ndarray) -> BoundCheck:
    """Whitened spectrum of K^{-1/2} K' K^{-1/2} against [1 - r, 1 + r] for
    the closed-form kernel, r = psi / eta_min: the largest |lambda - 1| over
    the neighbors with the last row replaced by each of ``rows``.

    The whitening is by the inverse Cholesky factor: with K = L L^T,
    L^{-1} K' L^{-T} = Q^T K^{-1/2} K' K^{-1/2} Q for the orthogonal
    Q = K^{-1/2} L, so the two have the same eigenvalues. Slices equal to the
    base whiten to the identity exactly and get 0, so the eigensolve's
    rounding noise cannot exceed a zero bound. Without eta_min > 0 the row
    reads 0 against 0. Where eta_min > 0 but ``potrf`` refuses K (eta_min
    below its rounding), nothing is measured and the row reads inf, so it
    fails.
    """
    kernel = continuous_kernel(data, sigma)
    if not kernel.eta_min > 0.0:
        return BoundCheck("psd_sandwich_cts", 0.0, 0.0)
    bound = continuous_sensitivity_psi(data.n, sigma, data.bound_B, beta) / kernel.eta_min
    h = kernel.matrix.array
    try:
        # potrf leaves a positive diagonal, so trtri cannot fail.
        whiten, _ = dtrtri(_cholesky(h), lower=1)
    except NotPositiveDefiniteError:
        return BoundCheck("psd_sandwich_cts", bound, math.inf)
    devs = []
    for hp in _closed_form_kernels(data, sigma, beta, rows):
        mid = whiten @ hp @ whiten.T
        eigs = np.linalg.eigvalsh(0.5 * (mid + mid.swapaxes(1, 2)))
        dev = np.max(np.abs(eigs - 1.0), axis=1)
        dev[np.all(hp == h, axis=(1, 2))] = 0.0
        devs.append(dev)
    return BoundCheck("psd_sandwich_cts", bound, float(np.concatenate(devs).max()))


def cts_sensitivity_check(data: Dataset, sigma: float, beta: float, rows: np.ndarray) -> BoundCheck:
    """Max Frobenius gap of the closed-form kernel over the neighbors with
    the last row replaced by each of ``rows``, against
    psi = sqrt(8n + 8) sigma^2 B^3 beta."""
    h = continuous_kernel(data, sigma).matrix.array
    gap = _max_frobenius_gap(h, _closed_form_kernels(data, sigma, beta, rows))
    return BoundCheck("cts_frobenius", continuous_sensitivity_psi(data.n, sigma, data.bound_B, beta), gap)


def dis_cts_gap(data: Dataset, w: WeightMatrix) -> float:
    """Frobenius distance between the Monte-Carlo kernel and its closed form
    at the weights' sigma."""
    hd = discrete_kernel(data, w).matrix.array
    hc = continuous_kernel(data, w.sigma).matrix.array
    return float(np.linalg.norm(hd - hc))


def dis_sensitivity_check(data: Dataset, w: WeightMatrix, beta: float, rows: np.ndarray) -> BoundCheck:
    """Max Frobenius gap of the Monte-Carlo kernel over the neighbors with
    the last row replaced by each of ``rows``, against ``_DIS_SLACK`` psi."""
    h = discrete_kernel(data, w).matrix.array
    gap = _max_frobenius_gap(h, _neighbor_kernels(data, beta, rows, lambda f: _kernel_rows(f, f, w)))
    psi = continuous_sensitivity_psi(data.n, w.sigma, data.bound_B, beta)
    return BoundCheck("dis_frobenius", _DIS_SLACK * psi, gap)

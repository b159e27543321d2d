"""Brute-force verification of the kernel sensitivity bounds.

Every closed-form bound used by the budget calculus is re-checked here
against direct Monte-Carlo measurement on random beta-close dataset pairs:
per-entry Lipschitz constants, the Frobenius sensitivity of the closed-form
kernel, the discrete/closed-form gap, the finite-width sensitivity of the
Monte-Carlo kernel, and the whitened PSD sandwich. Violations surface as
ratios above 1 in the returned reports; all checks are deterministic given
the stream they are handed.

A sweep of T neighbors of one base dataset is measured as one stack. The T
moved rows are drawn exactly as ``beta_neighbor`` draws them, one trial
stream each; the (T, n, d) neighbor features pass, vectorized, every check
``Dataset`` applies to one neighbor, the checks that validate a
``NeighborPair``; and every neighbor kernel
is recomputed in full from its features by the same fixed-order contraction
as ``discrete_kernel``/``continuous_kernel``, so slice t equals the lone
build of neighbor t bit for bit. Nothing is derived from the row update.
Entry maxima and whitened spectra are reduced over the stack, the Frobenius
gaps slice by slice. The per-pair checks are the one-neighbor case.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernel import (
    _NORM_RTOL,
    Dataset,
    KernelMatrix,
    WeightMatrix,
    _closed_form_entries,
    _kernel_rows,
    continuous_kernel,
    discrete_kernel,
)
from .privacy import continuous_sensitivity_psi
from .rng import RngStream
from .linalg import sym_eigen

__all__ = [
    "NeighborPair",
    "BoundCheck",
    "LipschitzReport",
    "CtsSensitivityReport",
    "SandwichReport",
    "DisSensitivityReport",
    "beta_neighbor",
    "entry_lipschitz_check",
    "cts_sensitivity_check",
    "psd_sandwich_check",
    "dis_cts_gap",
    "dis_sensitivity_check",
]


@dataclass(frozen=True)
class NeighborPair:
    """Two datasets differing only in the last row, with the replaced rows
    at L2 distance at most beta and both inside the B-ball."""

    base: Dataset
    neighbor: Dataset
    beta: float
    changed_index: int

    def __post_init__(self) -> None:
        # The one-neighbor stack: the sweeps' checks, applied to this pair.
        _NeighborStack(self.base, self.beta, self.changed_index, self.neighbor.features[None])

    def row_distance(self) -> float:
        i = self.changed_index
        return float(np.linalg.norm(self.base.features[i] - self.neighbor.features[i]))


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


def beta_neighbor(data: Dataset, beta: float, rng: RngStream) -> NeighborPair:
    """Replace the last row by a uniform perturbation inside the beta-ball,
    clipped back into the B-ball.

    Projection onto the B-ball is non-expansive, so the clipped row stays
    within beta of the original.
    """
    feats = data.features.copy()
    feats[-1] = _moved_row(data, beta, rng)
    neighbor = Dataset(feats, data.labels, data.bound_B)
    return NeighborPair(base=data, neighbor=neighbor, beta=beta, changed_index=data.n - 1)


def _moved_row(data: Dataset, beta: float, rng: RngStream) -> np.ndarray:
    """The last row of ``data`` as ``beta_neighbor`` moves it: a uniform draw
    in the beta-ball from the "neighbor" substream, clipped into the B-ball."""
    if beta < 0:
        raise ValueError("beta must be non-negative")
    d = data.dim
    x = data.features[data.n - 1]
    if not beta > 0:
        return x.copy()
    gen = rng.substream("neighbor").generator()
    direction = gen.standard_normal(d)
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        direction = np.zeros(d)
    else:
        direction = direction / norm
    radius = beta * gen.random() ** (1.0 / d)
    moved = x + radius * direction
    moved_norm = np.linalg.norm(moved)
    if moved_norm > data.bound_B:
        moved = moved * (data.bound_B / moved_norm)
    return moved


def _moved_rows(data: Dataset, beta: float, trials: int, rng: RngStream, label: str) -> np.ndarray:
    """(T, d) moved last rows, trial t drawn from ``rng.substream(f"{label}{t}")``."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return np.array([_moved_row(data, beta, rng.substream(f"{label}{t}")) for t in range(trials)])


# Most stacked kernel entries held at once (8 MB of doubles). Slices are
# independent, so where a sweep is cut into chunks changes no bit.
_STACK_ENTRIES = 1 << 20


class _NeighborStack:
    """T neighbors of one base dataset as one (T, n, d) feature stack, each
    differing from the base in row ``index`` only. Construction applies,
    vectorized, every check that ``Dataset`` applies to one neighbor, with
    the same messages; it is also what validates a ``NeighborPair``."""

    def __init__(self, base: Dataset, beta: float, index: int, features: np.ndarray):
        feats = np.asarray(features, dtype=np.float64)
        if feats.ndim != 3 or feats.shape[1:] != base.features.shape:
            raise ValueError("base and neighbor must have identical shape")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features and labels must be finite")
        rows = feats[:, index]
        norms = np.linalg.norm(rows, axis=1)
        over = norms > base.bound_B * (1.0 + _NORM_RTOL) + 1e-12
        if np.any(over):
            raise ValueError(f"row norm {norms[over][0]:.6g} exceeds bound_B={base.bound_B:.6g}")
        keep = np.arange(base.n) != index
        if not np.all(feats[:, keep] == base.features[keep]):
            raise ValueError("datasets may differ only in the changed row")
        dist = np.linalg.norm(rows - base.features[index], axis=1)
        if np.any(dist > beta * (1.0 + 1e-9) + 1e-15):
            raise ValueError("changed rows are farther apart than beta")
        self.features = feats


def _stacks(data: Dataset, beta: float, index: int, rows: np.ndarray) -> Iterator[_NeighborStack]:
    """The neighbors of ``data`` with row ``index`` replaced by each of
    ``rows``, as validated stacks of at most ``_STACK_ENTRIES`` kernel entries."""
    step = max(1, _STACK_ENTRIES // (data.n * data.n))
    for s in range(0, len(rows), step):
        chunk = rows[s : s + step]
        feats = np.repeat(data.features[None], len(chunk), axis=0)
        feats[:, index] = chunk
        yield _NeighborStack(data, beta, index, feats)


def _checked_kernels(hp: np.ndarray) -> np.ndarray:
    """A (T, n, n) kernel stack, refused unless every slice is finite and
    exactly symmetric: stricter than ``SymMatrix``'s tolerance, and what the
    fixed-order contraction yields. Each slice then equals the
    ``SymMatrix``-wrapped single build."""
    if not np.all(np.isfinite(hp)):
        raise ValueError("matrix entries must be finite")
    if not np.array_equal(hp, hp.swapaxes(1, 2)):
        raise ValueError("stacked kernel is not exactly symmetric")
    return hp


def _frobenius_gaps(h: np.ndarray, hp: np.ndarray) -> np.ndarray:
    """||K - K'_t||_F per slice, one ``np.linalg.norm`` each as for a lone
    pair (a batched ``axis=(1, 2)`` norm rounds differently)."""
    return np.array([np.linalg.norm(g) for g in h - hp])


def _entry_deltas(h: np.ndarray, hp: np.ndarray, i: int) -> tuple[np.ndarray, ...]:
    """Per slice: the largest affected off-diagonal change, the change of
    diagonal entry i, and the largest change of an unaffected entry."""
    diff = np.abs(h - hp)
    off = diff[:, i].copy()
    off[:, i] = 0.0
    keep = np.arange(h.shape[0]) != i
    unaffected = diff[:, keep][:, :, keep].reshape(len(hp), -1)
    return off.max(axis=1, initial=0.0), diff[:, i, i], unaffected.max(axis=1, initial=0.0)


def _whitened_deviations(h: np.ndarray, hp: np.ndarray, inv_sqrt: np.ndarray) -> np.ndarray:
    """max |lambda - 1| over the spectrum of K^{-1/2} K'_t K^{-1/2}, per slice.

    Slices equal to the base whiten to the identity exactly and get 0, so the
    eigensolve's rounding noise cannot exceed a zero bound.
    """
    mid = inv_sqrt @ hp @ inv_sqrt
    eigs = np.linalg.eigvalsh(0.5 * (mid + mid.swapaxes(1, 2)))
    dev = np.max(np.abs(eigs - 1.0), axis=1)
    dev[np.all(hp == h, axis=(1, 2))] = 0.0
    return dev


@dataclass(frozen=True)
class LipschitzReport:
    off_diagonal: BoundCheck
    diagonal: BoundCheck
    max_unaffected_delta: float

    @property
    def max_ratio(self) -> float:
        return max(self.off_diagonal.ratio, self.diagonal.ratio)

    @property
    def passed(self) -> bool:
        return self.off_diagonal.passed and self.diagonal.passed


def entry_lipschitz_check(pair: NeighborPair, sigma: float) -> LipschitzReport:
    """Check the per-entry Lipschitz constants of the closed-form kernel.

    Affected off-diagonal entries obey 2 sigma^2 B^3 ||x - x'||, the single
    affected diagonal entry obeys 4 sigma^2 B^3 ||x - x'||. Unaffected
    entries must not move at all. The one-neighbor case of the stacked sweep.
    """
    return _ClosedForm(pair.base, sigma).sweep(*_one(pair), sandwich=False)[0]


def _one(pair: NeighborPair) -> tuple[float, int, np.ndarray, float]:
    """A pair as the (beta, index, rows, dist) of a one-neighbor sweep."""
    i = pair.changed_index
    return pair.beta, i, pair.neighbor.features[i][None], pair.row_distance()


@dataclass(frozen=True)
class CtsSensitivityReport:
    frobenius: BoundCheck
    trials: int
    gaps: np.ndarray

    @property
    def passed(self) -> bool:
        return self.frobenius.passed


def cts_sensitivity_check(
    data: Dataset, sigma: float, beta: float, trials: int, rng: RngStream
) -> CtsSensitivityReport:
    """Max Frobenius gap of the closed-form kernel over random beta-close
    pairs, against psi = sqrt(8n + 8) sigma^2 B^3 beta."""
    return _ClosedForm(data, sigma).cts(beta, trials, rng)


@dataclass(frozen=True)
class SandwichReport:
    """Whitened-spectrum check K^{-1/2} K' K^{-1/2} against [1 - r, 1 + r].

    ``containment`` compares the measured eigenvalue deviation max|lambda - 1|
    against psi / eta_min, which holds whenever the kernel gap stays below
    psi; ``interval_positive`` records whether eta_min > psi, the regime in
    which the interval is a genuine two-sided PSD sandwich.
    """

    containment: BoundCheck
    eta_min: float
    psi: float
    applicable: bool

    @property
    def interval_positive(self) -> bool:
        return self.eta_min > self.psi

    @property
    def passed(self) -> bool:
        return (not self.applicable) or self.containment.passed


def _inv_sqrt(h: np.ndarray) -> np.ndarray:
    w, v = sym_eigen(h)
    return (v / np.sqrt(w)) @ v.T


def psd_sandwich_check(pair: NeighborPair, sigma: float) -> SandwichReport:
    """Whitened-spectrum sandwich for the closed-form kernel of a pair."""
    return _ClosedForm(pair.base, sigma).sweep(*_one(pair), sandwich=True)[1]


class _ClosedForm:
    """The closed-form kernel of one base dataset, built once for every
    neighbor measured against it. eta_min and K^{-1/2} are computed on first
    use only."""

    def __init__(self, data: Dataset, sigma: float):
        self.data = data
        self.sigma = sigma
        self.kernel = continuous_kernel(data, sigma)
        self.h = self.kernel.matrix.array

    @cached_property
    def inv_sqrt(self) -> np.ndarray | None:
        """K^{-1/2} when eta_min > 0, the sandwich's precondition, else None."""
        return _inv_sqrt(self.h) if self.kernel.eta_min > 0.0 else None

    def kernels(self, beta: float, index: int, rows: np.ndarray) -> Iterator[np.ndarray]:
        """Each neighbor's closed-form kernel, recomputed in full from its
        features, chunk by chunk; slice t equals ``continuous_kernel`` of
        neighbor t bit for bit."""
        for stack in _stacks(self.data, beta, index, rows):
            yield _checked_kernels(_closed_form_entries(stack.features, self.sigma))

    def sweep(
        self, beta: float, index: int, rows: np.ndarray, dist: float, sandwich: bool
    ) -> tuple[LipschitzReport, SandwichReport | None]:
        """Lipschitz maxima, and the largest whitened deviation when
        ``sandwich``, over the neighbors with row ``index`` replaced by each
        of ``rows``; the Lipschitz bounds are taken at row distance ``dist``."""
        sigma, b3 = self.sigma, self.data.bound_B ** 3
        inv_sqrt = self.inv_sqrt if sandwich else None
        off, diag, unaffected, devs = [], [], [], []
        for hp in self.kernels(beta, index, rows):
            o, g, u = _entry_deltas(self.h, hp, index)
            off.append(o)
            diag.append(g)
            unaffected.append(u)
            if inv_sqrt is not None:
                devs.append(_whitened_deviations(self.h, hp, inv_sqrt))
        lip = LipschitzReport(
            off_diagonal=BoundCheck(
                name="entry_lipschitz_offdiag",
                theoretical=2.0 * sigma * sigma * b3 * dist,
                empirical=float(np.concatenate(off).max()),
            ),
            diagonal=BoundCheck(
                name="entry_lipschitz_diag",
                theoretical=4.0 * sigma * sigma * b3 * dist,
                empirical=float(np.concatenate(diag).max()),
            ),
            max_unaffected_delta=float(np.concatenate(unaffected).max()),
        )
        if not sandwich:
            return lip, None
        eta_min = self.kernel.eta_min
        psi = continuous_sensitivity_psi(self.data.n, sigma, self.data.bound_B, beta)
        applicable = inv_sqrt is not None
        dev = float(np.concatenate(devs).max()) if applicable else float("inf")
        bound = psi / eta_min if applicable else float("inf")
        return lip, SandwichReport(
            containment=BoundCheck("psd_sandwich_cts", bound, dev),
            eta_min=eta_min,
            psi=psi,
            applicable=applicable,
        )

    def cts(self, beta: float, trials: int, rng: RngStream) -> CtsSensitivityReport:
        rows = _moved_rows(self.data, beta, trials, rng, "trial")
        index = self.data.n - 1
        gaps = np.concatenate([_frobenius_gaps(self.h, hp) for hp in self.kernels(beta, index, rows)])
        psi = continuous_sensitivity_psi(self.data.n, self.sigma, self.data.bound_B, beta)
        return CtsSensitivityReport(
            frobenius=BoundCheck("cts_frobenius", psi, float(gaps.max())),
            trials=trials,
            gaps=gaps,
        )


def dis_cts_gap(data: Dataset, w: WeightMatrix, sigma: float) -> float:
    """Frobenius distance between the Monte-Carlo and closed-form kernels."""
    if w.sigma != sigma:
        raise ValueError("weight matrix sigma does not match the requested sigma")
    hd = discrete_kernel(data, w).matrix.array
    hc = continuous_kernel(data, sigma).matrix.array
    return float(np.linalg.norm(hd - hc))


@dataclass(frozen=True)
class DisSensitivityReport:
    frobenius: BoundCheck
    slack: float
    trials: int
    frac_within: float
    gaps: np.ndarray
    sandwich_applicable: int
    sandwich_within: int

    @property
    def sandwich_frac_within(self) -> float:
        if self.sandwich_applicable == 0:
            return 1.0
        return self.sandwich_within / self.sandwich_applicable


def dis_sensitivity_check(
    data: Dataset,
    w: WeightMatrix,
    beta: float,
    trials: int,
    rng: RngStream,
    slack: float = 2.0,
) -> DisSensitivityReport:
    """Finite-width kernel sensitivity against the closed-form bound.

    The bound carries a slack factor (default 2) because the finite-m
    fluctuation term on the affected row only vanishes as m grows. The
    whitened sandwich probe is evaluated on trials where eta_min of the
    base kernel exceeds psi, per the sandwich's own precondition.
    """
    base_kernel: KernelMatrix = discrete_kernel(data, w)
    h = base_kernel.matrix.array
    eta_min = base_kernel.eta_min
    psi = continuous_sensitivity_psi(data.n, w.sigma, data.bound_B, beta)
    inv_sqrt = _inv_sqrt(h) if eta_min > psi else None
    rows = _moved_rows(data, beta, trials, rng, "trial")
    gaps, devs = [], []
    for stack in _stacks(data, beta, data.n - 1, rows):
        hp = _checked_kernels(_kernel_rows(stack.features, stack.features, w))
        gaps.append(_frobenius_gaps(h, hp))
        if inv_sqrt is not None:
            devs.append(_whitened_deviations(h, hp, inv_sqrt))
    gaps = np.concatenate(gaps)
    applicable = trials if inv_sqrt is not None else 0
    within = int(np.count_nonzero(np.concatenate(devs) <= psi / eta_min)) if applicable else 0
    bound = slack * psi
    frac = float(np.mean(gaps <= bound))
    return DisSensitivityReport(
        frobenius=BoundCheck("dis_frobenius", bound, float(gaps.max())),
        slack=slack,
        trials=trials,
        frac_within=frac,
        gaps=gaps,
        sandwich_applicable=applicable,
        sandwich_within=within,
    )

"""Brute-force verification of the kernel sensitivity bounds.

Every closed-form bound used by the budget calculus is re-checked here
against direct Monte-Carlo measurement on random beta-close dataset pairs:
per-entry Lipschitz constants, the Frobenius sensitivity of the closed-form
kernel, the discrete/closed-form gap, the finite-width sensitivity of the
Monte-Carlo kernel, and the whitened PSD sandwich. Violations surface as
ratios above 1 in the returned reports; all checks are deterministic given
the stream they are handed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernel import Dataset, KernelMatrix, WeightMatrix, continuous_kernel, discrete_kernel
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
        b, nb = self.base, self.neighbor
        if b.n != nb.n or b.dim != nb.dim:
            raise ValueError("base and neighbor must have identical shape")
        i = self.changed_index
        mask = np.ones(b.n, dtype=bool)
        mask[i] = False
        if not np.array_equal(b.features[mask], nb.features[mask]):
            raise ValueError("datasets may differ only in the changed row")
        if self.row_distance() > self.beta * (1.0 + 1e-9) + 1e-15:
            raise ValueError("changed rows are farther apart than beta")

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
    if beta < 0:
        raise ValueError("beta must be non-negative")
    n, d = data.n, data.dim
    feats = data.features.copy()
    x = feats[n - 1]
    if beta > 0:
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
        feats[n - 1] = moved
    neighbor = Dataset(feats, data.labels, data.bound_B)
    return NeighborPair(base=data, neighbor=neighbor, beta=beta, changed_index=n - 1)


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
    entries must not move at all.
    """
    base = _ClosedForm(pair.base, sigma)
    return base.lipschitz(pair, base.neighbor_kernel(pair))


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


def _whitened_deviation(h: np.ndarray, hp: np.ndarray, inv_sqrt: np.ndarray) -> float:
    if np.array_equal(h, hp):
        # Identical kernels whiten to the identity exactly; skip the
        # eigensolve so its rounding noise cannot exceed a zero bound.
        return 0.0
    mid = inv_sqrt @ hp @ inv_sqrt
    eigs = np.linalg.eigvalsh(0.5 * (mid + mid.T))
    return float(np.max(np.abs(eigs - 1.0)))


def psd_sandwich_check(pair: NeighborPair, sigma: float) -> SandwichReport:
    """Whitened-spectrum sandwich for the closed-form kernel of a pair."""
    base = _ClosedForm(pair.base, sigma)
    return base.sandwich(pair, base.neighbor_kernel(pair))


class _ClosedForm:
    """The closed-form kernel of one base dataset, built once for every check
    against it: ``verify_bounds`` measures hundreds of neighbors of one base.
    eta_min and K^{-1/2} are computed on first use only."""

    def __init__(self, data: Dataset, sigma: float):
        self.data = data
        self.sigma = sigma
        self.kernel = continuous_kernel(data, sigma)
        self.h = self.kernel.matrix.array

    @cached_property
    def inv_sqrt(self) -> np.ndarray | None:
        """K^{-1/2} when eta_min > 0, the sandwich's precondition, else None."""
        return _inv_sqrt(self.h) if self.kernel.eta_min > 0.0 else None

    def neighbor_kernel(self, pair: NeighborPair) -> np.ndarray:
        if pair.base is not self.data:
            raise ValueError("pair was not drawn from this base dataset")
        return continuous_kernel(pair.neighbor, self.sigma).matrix.array

    def lipschitz(self, pair: NeighborPair, hp: np.ndarray) -> LipschitzReport:
        n = self.h.shape[0]
        i = pair.changed_index
        dist = pair.row_distance()
        sigma, b3 = self.sigma, self.data.bound_B ** 3
        diff = np.abs(self.h - hp)
        off = diff[i].copy()
        off[i] = 0.0
        mask = np.ones((n, n), dtype=bool)
        mask[i, :] = False
        mask[:, i] = False
        return LipschitzReport(
            off_diagonal=BoundCheck(
                name="entry_lipschitz_offdiag",
                theoretical=2.0 * sigma * sigma * b3 * dist,
                empirical=float(off.max()) if n > 1 else 0.0,
            ),
            diagonal=BoundCheck(
                name="entry_lipschitz_diag",
                theoretical=4.0 * sigma * sigma * b3 * dist,
                empirical=float(diff[i, i]),
            ),
            max_unaffected_delta=float(diff[mask].max()) if n > 1 else 0.0,
        )

    def sandwich(self, pair: NeighborPair, hp: np.ndarray) -> SandwichReport:
        eta_min = self.kernel.eta_min
        psi = continuous_sensitivity_psi(self.data.n, self.sigma, self.data.bound_B, pair.beta)
        applicable = self.inv_sqrt is not None
        dev = _whitened_deviation(self.h, hp, self.inv_sqrt) if applicable else float("inf")
        bound = psi / eta_min if applicable else float("inf")
        return SandwichReport(
            containment=BoundCheck("psd_sandwich_cts", bound, dev),
            eta_min=eta_min,
            psi=psi,
            applicable=applicable,
        )

    def cts(self, beta: float, trials: int, rng: RngStream) -> CtsSensitivityReport:
        if trials < 1:
            raise ValueError("trials must be >= 1")
        gaps = np.empty(trials)
        for t in range(trials):
            pair = beta_neighbor(self.data, beta, rng.substream(f"trial{t}"))
            gaps[t] = np.linalg.norm(self.h - self.neighbor_kernel(pair))
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
    if trials < 1:
        raise ValueError("trials must be >= 1")
    base_kernel: KernelMatrix = discrete_kernel(data, w)
    h = base_kernel.matrix.array
    eta_min = base_kernel.eta_min
    psi = continuous_sensitivity_psi(data.n, w.sigma, data.bound_B, beta)
    inv_sqrt = _inv_sqrt(h) if eta_min > psi else None
    gaps = np.empty(trials)
    applicable = within = 0
    for t in range(trials):
        pair = beta_neighbor(data, beta, rng.substream(f"trial{t}"))
        hp = discrete_kernel(pair.neighbor, w).matrix.array
        gaps[t] = np.linalg.norm(h - hp)
        if eta_min > psi:
            applicable += 1
            if _whitened_deviation(h, hp, inv_sqrt) <= psi / eta_min:
                within += 1
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

"""The four benchmark workloads.

Each workload is a closed loop with one caller: the next op starts when the
previous one has finished. ``setup()`` prepares inputs and the references the
checks compare against; it may run several times and each run replaces the
previous state. ``run_op(j)`` performs op input ``j`` through a stable public
entry point and returns its raw output; it is the only timed call.
``check(j, out)`` returns a list of failed invariants (empty when the op is
correct). Checks test invariants rather than golden bits, so a
distribution-preserving rewrite of a mechanism still passes.

Entry points are looked up on their module at call time (``harness.run_tradeoff``
rather than a local alias) so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import os

import numpy as np

from dpntk import cli, harness, regression
from dpntk.data import generate_synthetic, load_features_csv, train_test_split
from dpntk.harness import ExperimentConfig
from dpntk.kernel import discrete_kernel, sample_weights
from dpntk.linalg import eigen_extremes
from dpntk.persistence import load_model
from dpntk.privacy import DPParams, check_dp_conditions, max_k
from dpntk.rng import RngStream

# Acceptance criterion 8: 200 rows split in half, so 100 training rows.
SWEEP_CFG = dict(
    n=200, d=16, n_cls=2, m=256, lam=0.3, sigma=1.0, beta=1e-6,
    delta_total=2e-3, epsilon_grid=(0.3, 3.0, 30.0, 300.0, 3000.0),
    k_cap=10**6, train_frac=0.5, separation=1.0, cluster_std=0.35,
)
SWEEP_HEADER = (
    "epsilon,k,feasible,acc_train,acc_test,acc_train_priv,acc_test_priv,"
    "gap_median,gap_max,utility_bound"
)
# Seeds per sweep run; op j runs seed pool[j % SWEEP_POOL], so op SWEEP_POOL
# re-runs the first seed and is checked for a byte-identical CSV.
SWEEP_POOL = 2
# At the top epsilon k is capped at 1e6 and the private kernel's relative
# Frobenius error is about 0.005, so private test accuracy should sit within
# a few test rows (1 row = 0.01) of the non-private accuracy.
SWEEP_TOP_ACC_TOL = 0.05

# fit and serve share one feasible private configuration at n = 400 rows:
# eta_min is about 0.011, so M = n beta / eta_min is about 0.04, under
# Delta = 0.476 at epsilon_alpha = 500, k = 20,000.
FIT_N, FIT_D, FIT_M = 400, 32, 1024
FIT_LAM, FIT_K, FIT_EPS, FIT_DELTA, FIT_BETA = 0.3, 20_000, 1000.0, 2e-3, 1e-6
FIT_SEPARATION, FIT_CLUSTER_STD = 1.0, 0.35
# serve holds out SERVE_QUERIES queries in SERVE_BLOCKS files; op j predicts
# block j % SERVE_BLOCKS, so an op is short enough for the calibration probes
# around it to follow the machine's speed.
SERVE_QUERIES, SERVE_BLOCKS = 500, 5
SERVE_BATCH = SERVE_QUERIES // SERVE_BLOCKS


def _op_seed(seed: int, j: int) -> int:
    return seed * 1000 + j


class Sweep:
    """``run_tradeoff`` on one seed at the criterion-8 config."""

    name = "sweep"
    min_ops = SWEEP_POOL + 1

    def __init__(self, seed: int, workdir: str):
        self.seeds = [_op_seed(seed, j) for j in range(SWEEP_POOL)]

    def setup(self) -> None:
        self.plans = {s: self._plan(s) for s in self.seeds}
        self.csv: dict[int, str] = {}

    @staticmethod
    def _plan(seed: int) -> list[tuple[int, bool]]:
        """Reference (k, feasible) per epsilon, from the budget calculus alone."""
        cfg = ExperimentConfig(seed=seed, **SWEEP_CFG)
        root = RngStream(seed)
        data = generate_synthetic(
            cfg.n, cfg.d, cfg.n_cls, cfg.separation, root, cluster_std=cfg.cluster_std
        )
        train, _ = train_test_split(data, cfg.train_frac, root)
        w = sample_weights(cfg.m, train.dim, cfg.sigma, root)
        eta_min = eigen_extremes(discrete_kernel(train, w).matrix)[0]
        plan = []
        for eps in cfg.epsilon_grid:
            dp_a = DPParams(
                eps * (1.0 - cfg.x_budget_frac), cfg.delta_total * (1.0 - cfg.x_budget_frac)
            )
            k = 0
            if eta_min > 0:
                k = max_k(dp_a.epsilon, dp_a.delta, train.n, cfg.sigma, train.bound_B,
                          cfg.beta, eta_min, cap=cfg.k_cap)
            feasible = k >= 1 and check_dp_conditions(
                dp_a, k, train.n, cfg.sigma, train.bound_B, cfg.beta, eta_min,
                gamma=cfg.gamma, c_rho=cfg.c_rho,
            ).feasible
            plan.append((k, feasible))
        return plan

    def run_op(self, j: int):
        return harness.run_tradeoff(ExperimentConfig(seed=self.seeds[j % SWEEP_POOL], **SWEEP_CFG))

    def check(self, j: int, table) -> list[str]:
        seed = self.seeds[j % SWEEP_POOL]
        text = table.csv_text()
        lines = text.splitlines()
        if lines[0] != SWEEP_HEADER:
            return [f"seed {seed}: header {lines[0]!r}"]
        if len(lines) != 1 + len(SWEEP_CFG["epsilon_grid"]):
            return [f"seed {seed}: {len(lines) - 1} rows"]
        errors = []
        rows = [line.split(",") for line in lines[1:]]
        got = [(int(r[1]), r[2] == "true") for r in rows]
        if got != self.plans[seed]:
            errors.append(f"seed {seed}: (k, feasible) {got} != reference {self.plans[seed]}")
        top = rows[-1]
        if top[2] != "true" or not abs(float(top[6]) - float(top[4])) <= SWEEP_TOP_ACC_TOL:
            errors.append(f"seed {seed}: top-epsilon private test accuracy {top[6]} "
                          f"vs non-private {top[4]} (tolerance {SWEEP_TOP_ACC_TOL})")
        first = self.csv.setdefault(seed, text)
        if first != text:
            errors.append(f"seed {seed}: re-run CSV differs from the first run")
        return errors


class Fit:
    """``fit_private`` with ``kernel=None`` and a fresh noise stream per op."""

    name = "fit"
    min_ops = 2

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self) -> None:
        root = RngStream(self.seed)
        self.data = generate_synthetic(
            FIT_N, FIT_D, 2, FIT_SEPARATION, root, cluster_std=FIT_CLUSTER_STD
        )
        self.w = sample_weights(FIT_M, FIT_D, 1.0, root)
        # The CLI's default even split of the budget between the stages.
        self.dp_x = self.dp_a = DPParams(FIT_EPS * 0.5, FIT_DELTA * 0.5)
        eta_min = eigen_extremes(discrete_kernel(self.data, self.w).matrix)[0]
        report = check_dp_conditions(
            self.dp_a, FIT_K, FIT_N, 1.0, self.data.bound_B, FIT_BETA, eta_min
        )
        if not report.feasible:
            raise RuntimeError(f"fit config infeasible for seed {self.seed}: {report}")
        self.noise = RngStream(self.seed).substream("bench-fit")

    def run_op(self, j: int):
        return regression.fit_private(
            self.data, self.w, FIT_LAM, FIT_K, self.dp_a, self.dp_x, FIT_BETA,
            self.noise.substream(f"op{j}"), enforce=True,
        )

    def check(self, j: int, model) -> list[str]:
        errors = []
        if not model.condition_report.feasible:
            errors.append(f"op {j}: condition report infeasible: {model.condition_report}")
        if not (math.isclose(model.budget.epsilon, FIT_EPS, rel_tol=1e-12)
                and math.isclose(model.budget.delta, FIT_DELTA, rel_tol=1e-12)):
            errors.append(f"op {j}: composed budget {model.budget} != declared "
                          f"({FIT_EPS}, {FIT_DELTA})")
        scores = np.stack([regression.predict_private(model, x) for x in self.data.features[:4]])
        if not (np.all(np.isfinite(model.private_alpha)) and np.all(np.isfinite(scores))):
            errors.append(f"op {j}: non-finite coefficients or scores")
        return errors


def _reference_scores(model, queries: np.ndarray) -> np.ndarray:
    """Batched evaluation of (1/n) K(Q, X~) alpha~ for a private model.

    K(q, x) = (1/m) sum_r (w_r . q)(w_r . x)(q . x), written as two GEMMs so
    the reference shares no code with the per-query library path.
    """
    feats = model.private_features.features
    w = model.weights.weights
    kern = ((queries @ w.T) @ (feats @ w.T).T / w.shape[0]) * (queries @ feats.T)
    return kern @ model.private_alpha / feats.shape[0]


class Serve:
    """In-process ``dpntk predict`` over one block of held-out queries."""

    name = "serve"
    min_ops = 2

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.paths = {k: os.path.join(workdir, f"serve-{k}")
                      for k in ("all.csv", "train.csv", "model.bin", "preds.csv")}
        self.blocks = [os.path.join(workdir, f"serve-queries{b}.csv") for b in range(SERVE_BLOCKS)]

    def _cli(self, *argv: str) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"dpntk {argv[0]} exited with {code}")

    def setup(self) -> None:
        p = self.paths
        self._cli("gen-data", "--seed", str(self.seed), "--n", str(FIT_N + SERVE_QUERIES),
                  "--d", str(FIT_D), "--n-cls", "2", "--separation", str(FIT_SEPARATION),
                  "--cluster-std", str(FIT_CLUSTER_STD), "--out", p["all.csv"])
        # gen-data writes rows grouped by class; a seeded permutation splits
        # them into training rows and held-out queries from one distribution.
        with open(p["all.csv"], encoding="utf-8") as fh:
            header, *rows = fh.read().splitlines()
        perm = RngStream(self.seed).substream("bench-serve").generator().permutation(len(rows))
        files = [(p["train.csv"], perm[:FIT_N])] + [
            (path, perm[FIT_N + b * SERVE_BATCH:FIT_N + (b + 1) * SERVE_BATCH])
            for b, path in enumerate(self.blocks)]
        for path, idx in files:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join([header] + [rows[i] for i in idx]) + "\n")
        self._cli("fit", "--seed", str(self.seed), "--input", p["train.csv"],
                  "--m", str(FIT_M), "--lambda", str(FIT_LAM), "--private",
                  "--epsilon", str(FIT_EPS), "--delta", str(FIT_DELTA),
                  "--beta", str(FIT_BETA), "--k-policy", "fixed", "--k", str(FIT_K),
                  "--strict", "--out", p["model.bin"])
        model = load_model(p["model.bin"])
        self.ref = []
        for path in self.blocks:
            queries = load_features_csv(path).features
            ref = _reference_scores(model, queries)
            lib = regression.predict_private(model, queries[0])
            if not np.allclose(lib, ref[0], rtol=1e-9, atol=0.0):
                raise RuntimeError(f"reference scores disagree with predict_private: "
                                   f"{lib} vs {ref[0]}")
            self.ref.append(ref)

    def run_op(self, j: int):
        p = self.paths
        return cli.main(["predict", "--model", p["model.bin"],
                         "--input", self.blocks[j % SERVE_BLOCKS], "--out", p["preds.csv"]])

    def check(self, j: int, code) -> list[str]:
        path = self.paths["preds.csv"]
        if code != 0 or not os.path.exists(path):
            return [f"op {j}: predict exited with {code}, output written: {os.path.exists(path)}"]
        with open(path, encoding="utf-8") as fh:
            header, *rows = fh.read().splitlines()
        os.remove(path)  # the next op must write its own output
        if header != "prediction,scores" or len(rows) != SERVE_BATCH:
            return [f"op {j}: header {header!r} with {len(rows)} rows for {SERVE_BATCH} queries"]
        ref = self.ref[j % SERVE_BLOCKS]
        ref_labels = np.argmax(ref, axis=1)
        labels = np.array([int(r.split(",")[0]) for r in rows])
        scores = np.array([[float(s) for s in r.split(",")[1].split(";")] for r in rows])
        errors = []
        if not np.array_equal(labels, ref_labels):
            errors.append(f"op {j}: {int(np.sum(labels != ref_labels))} labels differ")
        # "%.6g" keeps 6 significant digits: relative error up to 5e-6.
        tol = 5e-6 * np.abs(ref) + 1e-12 * np.abs(ref).max()
        if scores.shape != ref.shape or np.any(np.abs(scores - ref) > tol):
            errors.append(f"op {j}: scores differ from the reference beyond 6 digits")
        return errors


class Verify:
    """``verify_bounds`` on one seed per op."""

    name = "verify"
    min_ops = 2

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self) -> None:
        # Warm-up on a seed no op uses, so lazy first-call costs are paid here.
        checks = harness.verify_bounds(ExperimentConfig(seed=_op_seed(self.seed, 999)))
        failed = [c.name for c in checks if not c.passed]
        if failed:
            raise RuntimeError(f"warm-up verify failed bounds {failed}")

    def run_op(self, j: int):
        return harness.verify_bounds(ExperimentConfig(seed=_op_seed(self.seed, j)))

    def check(self, j: int, checks) -> list[str]:
        return [f"op {j}: bound {c.name} failed ({c.empirical:.6g} > {c.theoretical:.6g})"
                for c in checks if not c.passed]


WORKLOADS = {cls.name: cls for cls in (Sweep, Fit, Serve, Verify)}

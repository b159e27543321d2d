"""Span tracer that times dpntk's public functions from outside the package.

``Tracer.install`` replaces each listed function at every ``dpntk.*`` module
attribute bound to it (the defining module, the package root and every module
that imported it by name), so internal calls such as
``dpntk.regression.gaussian_sampling_mechanism`` are timed without editing the
package. ``Tracer.restore`` puts the original objects back. A function that
no longer exists under its listed name is recorded as absent and skipped.

Spans are kept in memory as ``[id, parent_id, op, name, start_s, end_s,
counts]`` and aggregated per function into calls, inclusive busy time, self
time (busy time minus the time covered by child spans) and computed work
counts derived from argument and result shapes.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

import numpy as np


def _order(a) -> int:
    return int(np.shape(getattr(a, "array", a))[0])


def _kernel_entries(args, result):
    data, w = args[0], args[1]
    return {"entries": data.n * data.n * w.m}


def _proj_flops(args, result):
    data, w = args[1], args[2]
    return {"proj_flops": 2 * w.m * data.n * data.dim}


def _gsm_work(args, result):
    n, k = _order(args[0]), int(args[1])
    return {"draws": k, "flops": 4 * k * n * n}


def _tlap_draws(args, result):
    return {"draws": int(np.size(result))}


def _saved_bytes(args, result):
    return {"bytes": os.path.getsize(args[1])}


def _loaded_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _csv_rows(args, result):
    return {"rows": result.n}


def _feasible_rows(args, result):
    return {"feasible_rows": sum(r.feasible for r in result.rows),
            "rows": len(result.rows)}


PACKAGE = "dpntk"

# "<module>.<function>" -> (stats reported, work counter or None). The stats
# are the metric suffixes; "calls", "busy_s" and "self_s" come from spans,
# every other stat from the counter (or, for feasible_frac, from a ratio).
TARGETS: dict[str, tuple[tuple[str, ...], Callable | None]] = {
    "kernel.discrete_kernel": (("calls", "busy_s", "entries"), _kernel_entries),
    "kernel.kernel_vector": (("calls", "busy_s", "proj_flops"), _proj_flops),
    "kernel.continuous_kernel": (("calls", "busy_s"), None),
    "privacy.gaussian_sampling_mechanism": (("calls", "busy_s", "draws", "flops"), _gsm_work),
    "privacy.privatize_dataset": (("calls", "busy_s"), None),
    "privacy.trunc_lap_samples": (("calls", "busy_s", "draws"), _tlap_draws),
    "linalg.eigen_extremes": (("calls", "busy_s"), None),
    "linalg.psd_sqrt": (("calls", "busy_s"), None),
    "linalg.spd_solve": (("calls", "busy_s"), None),
    "regression.fit": (("calls", "busy_s", "self_s"), None),
    "regression.fit_private": (("calls", "busy_s", "self_s"), None),
    "regression.predict": (("calls", "busy_s"), None),
    "regression.predict_private": (("calls", "busy_s"), None),
    "sensitivity.dis_sensitivity_check": (("calls", "busy_s", "self_s"), None),
    "sensitivity.cts_sensitivity_check": (("calls", "busy_s"), None),
    "sensitivity.psd_sandwich_check": (("calls", "busy_s"), None),
    "sensitivity.entry_lipschitz_check": (("calls", "busy_s"), None),
    "persistence.load_model": (("calls", "busy_s", "bytes"), _loaded_bytes),
    "persistence.save_model": (("calls", "busy_s", "bytes"), _saved_bytes),
    "data.load_features_csv": (("calls", "busy_s", "rows"), _csv_rows),
    "harness.run_tradeoff": (("calls", "busy_s", "self_s", "feasible_frac"), _feasible_rows),
    "harness.verify_bounds": (("calls", "busy_s", "self_s"), None),
    "cli.main": (("calls", "busy_s", "self_s"), None),
}

STAT_UNITS = {
    "calls": "count/op",
    "busy_s": "s/op",
    "self_s": "s/op",
    "entries": "count/op",
    "proj_flops": "flop/op",
    "draws": "count/op",
    "flops": "flop/op",
    "bytes": "B/op",
    "rows": "count/op",
    "feasible_frac": "fraction",
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-module metric as (name, unit), in TARGETS order."""
    return [(f"{target}.{stat}", STAT_UNITS[stat])
            for target, (stats, _) in TARGETS.items() for stat in stats]


class Tracer:
    """Collects spans for the functions in TARGETS while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.count_errors: dict[str, str] = {}
        self.op = -1
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    def install(self) -> None:
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None
                   and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for target, (_, counter) in TARGETS.items():
            mod_name, func_name = target.rsplit(".", 1)
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(home, func_name, None) if home is not None else None
            if not callable(original):
                if target not in self.absent:
                    self.absent.append(target)
                continue
            wrapper = self._wrap(target, original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, target: str, func: Callable, counter: Callable | None) -> Callable:
        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            span = [len(self.spans), parent, self.op, target,
                    time.perf_counter() - self._t0, None, None]
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[5] = time.perf_counter() - self._t0
                self._stack.pop()
            if counter is not None:
                try:
                    span[6] = counter(args, result)
                except (AttributeError, IndexError, TypeError, ValueError, OSError) as exc:
                    # A changed signature must not crash the run; the count
                    # is reported missing instead.
                    self.count_errors.setdefault(target, repr(exc))
            return result

        return traced

    def aggregate(self, ops: int) -> dict[str, float]:
        """Per-op means of every metric in ``metric_names()``; absent or
        uncalled functions read 0."""
        calls, busy, own, child = Counter(), Counter(), Counter(), Counter()
        counts: defaultdict[str, Counter] = defaultdict(Counter)
        for sid, parent, _, name, start, end, cnt in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent is not None:
                child[parent] += end - start
            counts[name].update(cnt or {})
        for sid, _, _, name, start, end, _ in self.spans:
            own[name] += end - start - child[sid]
        timed = {"calls": calls, "busy_s": busy, "self_s": own}
        out: dict[str, float] = {}
        for target, (stats, _) in TARGETS.items():
            cnt = counts[target]
            for stat in stats:
                if stat in timed:
                    val = timed[stat][target] / max(ops, 1)
                elif stat == "feasible_frac":
                    val = cnt["feasible_rows"] / cnt["rows"] if cnt["rows"] else 0.0
                else:
                    val = cnt[stat] / max(ops, 1)
                out[f"{target}.{stat}"] = val
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

"""Smoke tests for the benchmark; not collected by the repository's test run.

    python3 -m pytest -q bench/smoke.py

Each workload runs its own minimum op count through the real command, the tracer must put
back every binding it wrapped and record missing functions as absent, and the
last output line must name every metric in BENCHMARK.json with its unit.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[key]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_completes_and_names_end_to_end_metrics(workload):
    out = _run(workload, trace=0)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    assert got == _units("end_to_end")


def test_traced_run_names_per_layer_metrics():
    out = _run("fit", trace=1)
    assert out["correct"] and out["attempted"] == 2
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    assert got == _units("per_layer")
    assert out["metrics"]["regression.fit_private.calls"]["value"] == 1.0


@pytest.fixture
def dpntk_modules():
    for path in (str(ROOT / "src"), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import dpntk.cli  # noqa: F401

    yield {name: mod for name, mod in sys.modules.items()
           if name == "dpntk" or name.startswith("dpntk.")}


def _bindings(modules) -> dict:
    return {(name, attr): value for name, mod in modules.items()
            for attr, value in vars(mod).items() if callable(value)}


def test_tracer_restores_every_binding(dpntk_modules):
    from tracer import Tracer

    before = _bindings(dpntk_modules)
    original = dpntk_modules["dpntk.privacy"].gaussian_sampling_mechanism
    with Tracer():
        for name in ("dpntk", "dpntk.privacy", "dpntk.regression", "dpntk.harness"):
            assert dpntk_modules[name].gaussian_sampling_mechanism is not original
    after = _bindings(dpntk_modules)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_records_missing_function_as_absent(dpntk_modules, monkeypatch):
    import tracer

    monkeypatch.setitem(tracer.TARGETS, "kernel.no_such_function", (("calls",), None))
    original = dpntk_modules["dpntk.kernel"].discrete_kernel
    t = tracer.Tracer()
    with t:
        assert dpntk_modules["dpntk.kernel"].discrete_kernel is not original
    assert t.absent == ["kernel.no_such_function"]
    assert t.aggregate(ops=1)["kernel.no_such_function.calls"] == 0

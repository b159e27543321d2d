"""dpntk benchmark: one closed-loop workload per run, from the repository root.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): sweep, fit, serve, verify. The run imports
dpntk from ``src/`` of the checkout it sits in, sets the BLAS thread count
before numpy is imported, times ``setup()`` at least three times and for at
least three seconds and reports the median, then runs ops until ``--seconds`` have
passed and the workload's minimum op count is reached. Every op's output is
checked.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(setup_s, op_rel_p50, op_rel_mean, peak_rss_mb); op times are reported
relative to a calibration probe run around each op (see make_probe), and
their wall times are printed on the ``#`` lines. With ``--trace 1`` ops run in
pairs on the same input, untraced then traced, and the last line carries the
per-module metrics of tracer.py (per traced op), plus the tracing overhead
and fail_frac. A result JSON with the machine record, every op time and the
metrics is written to ``bench/out/``; traced runs also write their spans.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Known before workloads.py (which imports numpy) may be imported.
WORKLOAD_NAMES = ("sweep", "fit", "serve", "verify")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A tail percentile is reported only when at least this many ops lie beyond it
# and it sits at or above the median.
TAIL_BEYOND = 10
# BLAS threads, capped at the core count; keep it the same on both sides of
# a comparison.
BLAS_THREADS = 1
# Set-up repeats at least SETUP_MIN_REPS times and until SETUP_MIN_S have
# passed, so a set-up of milliseconds still reports a median over many runs.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 3.0
SETUP_MAX_REPS = 1000


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True, help="non-negative workload seed")
    p.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("seed and seconds must be >= 0")
    return args


def set_blas_threads() -> int:
    """Pin BLAS threads; must run before numpy is first imported."""
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _openblas_threads(np) -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it is one."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, sym, None)
            if func is not None:
                func.argtypes = []
                func.restype = ctypes.c_int
                return int(func())
    return None


def machine_record(threads: int) -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_set": threads,
        "blas_threads_reported": _openblas_threads(np),
    }


def import_dpntk():
    """Import dpntk from this checkout's src/, never from site-packages."""
    src = ROOT / "src"
    if not (src / "dpntk" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'dpntk'} not found; run from a dpntk checkout")
    sys.path.insert(0, str(src))
    import dpntk
    import dpntk.cli  # noqa: F401  (the tracer wraps every loaded dpntk module)

    if Path(dpntk.__file__).resolve().parent != (src / "dpntk").resolve():
        raise SystemExit(f"error: imported dpntk from {dpntk.__file__}, not {src}")


def make_probe():
    """Calibration probe: a fixed mix of interpreter-bound, small-numpy, BLAS
    and multi-megabyte element-wise work that shares no code with dpntk;
    returns its wall time.

    The machine's speed drifts over seconds; an op's time over the mean of the
    probes run just before and just after it removes that drift and keeps the
    program's own cost.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    small = rng.standard_normal((8, 8))
    gemm = rng.standard_normal((200, 200))
    vec = rng.standard_normal(100_000)
    tall = rng.standard_normal((400, 32))
    wide = rng.standard_normal((1024, 32))
    col = rng.standard_normal(32)

    def probe() -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i
        for _ in range(500):
            np.linalg.eigh(small @ small.T)
        for _ in range(5):
            gemm @ gemm
        for _ in range(20):
            np.exp(vec).sum()
        for _ in range(5):  # 3.2 MB products: memory traffic beyond the L2 cache
            prod = tall @ wide.T
            ((prod * (wide @ col)) * prod).sum(axis=1)
        return time.perf_counter() - t0

    return probe


def tail(times: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with TAIL_BEYOND ops
    beyond it, or None when a run has too few ops for a tail."""
    n = len(times)
    if n < 2 * TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(times)[n - TAIL_BEYOND - 1]


def run_loop(wl, seconds: float, min_ops: int, probe, tracer=None) -> dict:
    """Closed loop: the next op starts when the previous one finished.

    A calibration probe runs before the first op and after every op, outside
    the op's time; each untraced op is also reported relative to the mean of
    its two neighbouring probes.

    Without a tracer op i runs input i. With one, ops run in pairs on input
    i // 2, the first untraced and the second traced, so both halves see the
    same inputs and their difference is the tracing overhead.
    """
    untraced: list[float] = []
    traced: list[float] = []
    probes: list[float] = []  # mean probe time around each untraced op
    errors: list[str] = []
    failed = 0
    start = time.perf_counter()
    i = 0
    probe_before = probe()
    while True:
        is_traced = tracer is not None and i % 2 == 1
        j = i // 2 if tracer is not None else i
        if is_traced:
            tracer.op = i
        out, exc = None, None
        t0 = time.perf_counter()
        try:
            with tracer if is_traced else contextlib.nullcontext():
                out = wl.run_op(j)
        except Exception as e:  # a failing op is counted, not fatal
            exc = e
            traceback.print_exception(e, file=sys.stderr)
        (traced if is_traced else untraced).append(time.perf_counter() - t0)
        probe_after = probe()
        if not is_traced:
            probes.append((probe_before + probe_after) / 2)
        probe_before = probe_after
        if exc is not None:
            op_errors = [f"op {i}: raised {exc!r}"]
        else:
            try:
                op_errors = wl.check(j, out)
            except Exception as e:  # malformed output fails the op
                traceback.print_exception(e, file=sys.stderr)
                op_errors = [f"op {i}: output check raised {e!r}"]
        if op_errors:
            failed += 1
            errors.extend(op_errors)
        i += 1
        done = time.perf_counter() - start >= seconds and i >= min_ops
        if done and (tracer is None or i % 2 == 0):
            break
    return {"untraced": untraced, "traced": traced, "probes": probes, "attempted": i,
            "failed": failed, "errors": errors}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    threads = set_blas_threads()
    import_dpntk()
    from tracer import Tracer, metric_names
    from workloads import SERVE_BATCH, WORKLOADS

    machine = machine_record(threads)
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=out_dir)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        setup_times: list[float] = []
        while len(setup_times) < SETUP_MIN_REPS or (
            sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPS
        ):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        min_ops = wl.min_ops
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            min_ops += min_ops % 2  # whole untraced/traced pairs
        res = run_loop(wl, args.seconds, min_ops, make_probe(), tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    times = res["untraced"]
    p50 = statistics.median(times)
    rel = [t / pr for t, pr in zip(times, res["probes"])]
    wall = {"ops_per_s": len(times) / sum(times), "op_s_p50": p50,
            "probe_s_p50": statistics.median(res["probes"])}
    op_tail = tail(times)
    fail_frac = res["failed"] / res["attempted"]
    notes = [f"wall time (not steady on a shared machine): ops_per_s = {wall['ops_per_s']:.6g} 1/s, "
             f"op_s_p50 = {p50:.6g} s, probe_s_p50 = {wall['probe_s_p50']:.6g} s"]
    if args.workload == "serve":
        notes.append(f"1 op = {SERVE_BATCH} queries, so "
                     f"{SERVE_BATCH * len(times) / sum(times):.4g} queries/s")
    if op_tail is None:
        notes.append(f"op_s_tail omitted: {len(times)} untraced ops, fewer than "
                     f"{2 * TAIL_BEYOND} needed for a tail with {TAIL_BEYOND} ops beyond it")
    else:
        notes.append(f"op_s_tail = {op_tail[1]:.6g} s at p{op_tail[0]:.1f} of {len(times)} ops")

    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "op_rel_p50": (statistics.median(rel), "probe"),
            "op_rel_mean": (sum(times) / sum(res["probes"]), "probe"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        units = dict(metric_names())
        layer = tracer.aggregate(len(res["traced"]))
        metrics = {name: (layer[name], units[name]) for name in units}
        metrics["trace.overhead_s"] = (statistics.median(res["traced"]) - p50, "s")
        metrics["fail_frac"] = (fail_frac, "fraction")
        if tracer.absent:
            notes.append(f"absent (recorded as 0): {', '.join(tracer.absent)}")
        if tracer.count_errors:
            notes.append(f"work counts missing: {tracer.count_errors}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine,
        "setup_s_each": setup_times, "op_s_untraced": times, "op_s_traced": res["traced"],
        "probe_s_around_untraced": res["probes"], "wall": wall,
        "attempted": res["attempted"], "failed": res["failed"], "fail_frac": fail_frac,
        "errors": res["errors"][:50], "notes": notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if tracer is not None:
        result["absent"] = tracer.absent
        tracer.write_spans(str(out_dir / f"{stem}.spans.jsonl"))
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} threads={threads} "
          f"cpus={machine['nproc']} blas={machine['blas']['name']} {machine['blas']['version']}")
    print(f"# ops={res['attempted']} failed={res['failed']} fail_frac={fail_frac:.6g}")
    for err in res["errors"][:10]:
        print(f"# FAIL {err}")
    for note in notes:
        print(f"# {note}")
    if args.trace:
        print_stages(metrics, p50, sum(res["traced"]) / len(res["traced"]))
    else:
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def print_stages(metrics: dict, op_p50: float, traced_mean: float) -> None:
    """Per-function table: calls, busy and self time per traced op, and busy
    time as a share of the mean traced op."""
    print(f"# untraced op p50 = {op_p50:.6g} s; traced op mean = {traced_mean:.6g} s; "
          f"tracing overhead = {metrics['trace.overhead_s'][0]:.6g} s/op")
    print(f"# {'function':42s} {'calls/op':>10s} {'busy s/op':>10s} {'self s/op':>10s} {'share':>7s}")
    for name, (value, _) in metrics.items():
        if not name.endswith(".busy_s") or value == 0:
            continue
        target = name[: -len(".busy_s")]
        calls = metrics[f"{target}.calls"][0]
        own = f"{metrics[target + '.self_s'][0]:10.4g}" if target + ".self_s" in metrics else f"{'-':>10s}"
        print(f"# {target:42s} {calls:10.6g} {value:10.4g} {own} {value / traced_mean:7.1%}")


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload step_large --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` interleaves untraced and traced operations, prints the
per-layer metrics and the attribution table, and writes every span to
``perfbench_out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The package under test is imported from ``src/`` next to this directory;
without it the run stops with a non-zero exit code and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One process generates the load; with the in-situ pipeline's worker it
# already keeps both cores of the reference machine busy, so the BLAS pool
# is pinned to one thread (before NumPy loads) unless the caller says
# otherwise.  The environment block records the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

#: End-to-end metrics, printed by every untraced run: ``name -> unit``.
END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "gpts_per_s": "gpts/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics computed from program counters (the rest come from
#: spans, see ``perfbench.layers.SPAN_METRICS``): ``name -> unit``.
COUNTER_METRICS = {
    "core.phase.advection_s": "s",
    "core.phase.pressure_s": "s",
    "core.phase.velocity_s": "s",
    "core.phase.temperature_s": "s",
    "core.overhead_s": "s",
    "core.inconsistent_steps": "count",
    "core.alloc_peak_bytes": "bytes",
    "sem.gs.calls": "count",
    "sem.gs.bytes": "bytes",
    "sem.gs.s": "s",
    "precond.cache.hit_ratio": "ratio",
    "precond.precision_fallbacks": "count",
    "comm.p2p_messages": "count",
    "comm.p2p_bytes": "bytes",
    "comm.allreduces": "count",
    "comm.cg_iters": "count",
    "compression.bytes_in": "bytes",
    "compression.bytes_out": "bytes",
    "compression.ratio": "ratio",
    "insitu.quarantined": "count",
    "trace.overhead_ratio": "ratio",
}

#: Operations measured at least, whatever ``--seconds`` says.
MIN_OPS = 4


def _import_program():
    """Put ``src/`` and the repository root on the path and import the program."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no src/repro package under {ROOT}; nothing to measure")
    here = str(Path(__file__).resolve().parent)
    # Run as a script, this directory heads the path; its module names
    # must not shadow top-level ones.
    sys.path[:] = [p for p in sys.path if p != here]
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import layers, workloads

    return layers, workloads


def per_layer_units(layers) -> dict[str, str]:
    units = {name: unit for name, (unit, _) in layers.SPAN_METRICS.items()}
    units.update(COUNTER_METRICS)
    return units


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its rank.

    With eleven samples or fewer no such percentile exists; the minimum is
    reported then (every other sample lies beyond it).
    """
    xs = sorted(values)
    k = max(0, len(xs) - 11)
    return xs[k], 100.0 * (k + 1) / len(xs)


def _cache_size(index: int) -> str | None:
    base = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
    try:
        return f"L{(base / 'level').read_text().strip()} {(base / 'size').read_text().strip()}"
    except OSError:
        return None


def environment(workload) -> dict:
    """Where and on what the run was made."""
    import numpy as np
    import scipy

    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    try:
        cpu = next(
            line.split(":", 1)[1].strip()
            for line in Path("/proc/cpuinfo").read_text().splitlines()
            if line.startswith("model name")
        )
    except (OSError, StopIteration):
        cpu = platform.processor() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas = None
    threads = {k: os.environ[k] for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads or "library default",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": [c for c in (_cache_size(i) for i in range(4)) if c],
        "workload": workload.describe(),
        "bytes_note": "kernel bytes are computed from array sizes, not measured; "
                      "no achieved-bandwidth ratio is given (arrays stay far below 4x L3)",
    }


def _delta(after: dict, before: dict, into: dict) -> None:
    for key, value in after.items():
        into[key] = into.get(key, 0.0) + value - before.get(key, 0.0)


def _alloc_peak(wl, state) -> tuple[int, bool]:
    """Allocation peak of one operation, untraced and untimed.

    tracemalloc slows every allocation, so it never overlaps timing.
    """
    tracemalloc.start()
    try:
        _, ok = wl.op(state)
        return tracemalloc.get_traced_memory()[1], ok
    finally:
        tracemalloc.stop()


def run(workload_name: str, seed: int, seconds: float, trace: bool, **options) -> dict:
    """Run one workload; returns the result record (see module docstring)."""
    layers, workloads = _import_program()
    if workload_name not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {workload_name!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[workload_name](seed, **options)
    lines = [f"env {json.dumps(environment(wl))}"]

    setup_times, state = [], None
    for _ in range(1 if trace else wl.setup_repeats):
        if state is not None:
            wl.discard(state)
            state = None  # so the next set-up never overlaps this one
        gc.collect()
        t0 = time.perf_counter()
        state = wl.setup()
        setup_times.append(time.perf_counter() - t0)
    wl.start(state)
    gc.collect()

    times, failed, alloc_peak = [], 0, 0
    traced_times, untraced_times = [], []
    traced_c, untraced_c = {}, {}
    recorder = inst = None
    if trace:
        alloc_peak, ok = _alloc_peak(wl, state)
        failed += not ok
        recorder = layers.SpanRecorder()
        inst = layers.Instrumentation(recorder)
        layers.instrument_layers(inst)
        wl.instrument(inst, state)
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(times) < MIN_OPS or not wl.cycle_done(state):
        wl.before_op(state)
        traced = trace and len(times) % 2 == 1
        before = wl.counters(state)
        if traced:
            inst.install()
            try:
                with recorder.tracer().span(layers.OP_SPAN):
                    dt, ok = wl.op(state)
            finally:
                inst.uninstall()
        else:
            dt, ok = wl.op(state)
        _delta(wl.counters(state), before, traced_c if traced else untraced_c)
        (traced_times if traced else untraced_times).append(dt)
        times.append(dt)
        failed += not ok

    lines += wl.report(state)
    checks = wl.finish(state)
    attempted = len(times) + (1 if trace else 0)

    for name, ok in checks.items():
        lines.append(f"check {'ok    ' if ok else 'FAILED'} {name}")
    lines.append(
        f"{wl.name}: {attempted} x {wl.operation}, {failed} failed "
        f"(failed_ratio {failed / attempted:.4f})"
    )
    if not trace:
        t, pct = tail(times)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_s_p50": statistics.median(times),
            "op_s_tail": t,
            "gpts_per_s": wl.points_per_op * len(times) / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        lines.append(
            f"op_s_tail is p{pct:.1f} of {len(times)} samples; setup_s is the median of "
            f"{len(setup_times)} cold set-ups"
        )
        units = END_TO_END
    else:
        n_tr, n_un = len(traced_times), len(untraced_times)
        agg = layers.aggregate(recorder)
        values = layers.span_metrics(agg, n_tr)
        values.update(wl.layer_metrics(state, traced_c, untraced_c, n_tr, n_un,
                                       sum(untraced_times)))
        values["core.alloc_peak_bytes"] = (float(alloc_peak), "bytes")
        values["trace.overhead_ratio"] = (
            statistics.median(traced_times) / statistics.median(untraced_times), "ratio")
        units = per_layer_units(layers)
        for name, (_, unit) in values.items():
            if units.get(name) != unit:
                raise RuntimeError(f"metric {name} ({unit}) is not declared with that unit")
        metrics = {name: values.get(name, (0.0, unit))[0] for name, unit in units.items()}
        lines += layers.attribution_table(recorder, n_tr)
        lines.append("flagged records (phases sum to more than the step x 1.001): "
                     f"{int(values.get('core.inconsistent_steps', (0.0,))[0])}")
        out = ROOT / "perfbench_out" / f"trace-{wl.name}-seed{seed}.jsonl"
        n_spans = layers.write_spans(recorder, out)
        lines.append(f"wrote {n_spans} spans to {out.relative_to(ROOT)}")

    for name, unit in units.items():
        lines.append(f"  {name:<36s} {metrics[name]:.6g} {unit}")
    return {
        "lines": lines,
        "result": {
            "correct": failed == 0 and all(checks.values()),
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": float(metrics[n]), "unit": u} for n, u in units.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in record["lines"]:
        print(line)
    print(json.dumps(record["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

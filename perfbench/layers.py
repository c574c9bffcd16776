"""Per-layer tracing from outside the program.

The traced run wraps public functions of each layer -- module attributes
such as ``repro.core.fluid.ax_helmholtz``, class attributes such as
``GatherScatter.add`` and instance attributes such as ``sim.timers.region``
-- and records one :class:`repro.observability.Tracer` span per call.
Nothing under ``src/`` changes: :class:`Instrumentation` swaps the
attributes in and restores the originals, so traced and untraced
operations can be interleaved in one process.

Spans stay in memory (one tracer per thread, on a shared timeline) and are
written out when the run ends.  A layer's self time is its span minus its
child spans; summed over the tree it reconciles to the operation's wall
time, and whatever no wrapped call covers stays with the enclosing span.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from repro.observability import Tracer

__all__ = [
    "SpanRecorder",
    "Instrumentation",
    "instrument_layers",
    "aggregate",
    "span_metrics",
    "attribution_table",
    "write_spans",
    "OP_SPAN",
]

#: Name of the benchmark's own span around each traced operation.
OP_SPAN = "op"


class SpanRecorder:
    """One :class:`Tracer` per thread, all on one timeline."""

    def __init__(self) -> None:
        self._origin = time.perf_counter()
        self._lock = threading.Lock()
        self.tracers: dict[int, Tracer] = {}
        self.thread_names: dict[int, str] = {}

    def tracer(self) -> Tracer:
        key = threading.get_ident()
        tracer = self.tracers.get(key)
        if tracer is None:
            with self._lock:
                self.thread_names[key] = threading.current_thread().name
                tracer = self.tracers.setdefault(key, Tracer(origin=self._origin))
        return tracer

    def spans(self):
        """``(thread name, span)`` for every recorded span."""
        for key, tracer in list(self.tracers.items()):
            for span in tracer.walk():
                yield self.thread_names[key], span


class Instrumentation:
    """A set of attribute wrappers that can be installed and removed."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._patches: list[tuple[object, str, object, object, bool]] = []

    def _add(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, wrapper, attr in vars(owner)))

    def wrap(self, owner, attr: str, span: str, count=None) -> None:
        """Record ``span`` around every call of ``owner.attr``.

        ``count(span, args, result)`` may add counters to the span.
        """
        fn = getattr(owner, attr)
        tracer = self.recorder.tracer

        def wrapper(*args, **kwargs):
            with tracer().span(span) as sp:
                out = fn(*args, **kwargs)
                if count is not None:
                    count(sp, args, out)
            return out

        wrapper.__name__ = getattr(fn, "__name__", attr)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        self._add(owner, attr, wrapper)

    def wrap_regions(self, timers) -> None:
        """Open a ``core.phase.<name>`` span inside every ``timers.region``."""
        original = timers.region
        tracer = self.recorder.tracer

        @contextmanager
        def region(name: str):
            with tracer().span(f"core.phase.{name}"), original(name):
                yield

        self._add(timers, "region", region)

    def install(self) -> None:
        for owner, attr, _, wrapper, _ in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _krylov(sp, args, out) -> None:
    mon = out[1]
    sp.add("iters", mon.iterations)
    sp.add("unconverged", 0.0 if mon.converged else 1.0)


def _ax_bytes(sp, args, out) -> None:
    # Computed, not measured: the operand, six geometric factors, the mass
    # and the result each cross memory once.
    sp.add("bytes", 9 * args[0].nbytes)


def _queue_depth(sp, args, out) -> None:
    sp.add("depth", args[0].queue.qsize())


def instrument_layers(inst: Instrumentation) -> None:
    """Wrap the public entry points of every measured layer."""
    from repro.comm import campaign, costmodel, distributed_gs, distributed_solver, topology
    from repro.compression import api as compression_api
    from repro.core import fluid, scalar
    from repro.insitu import pipeline, pod, processors
    from repro.perfmodel import scaling, workmodel
    from repro.precond import hsmg, jacobi
    from repro.sem import dealias, gather_scatter, operators
    from repro.solvers import cg, gmres

    inst.wrap(gmres.Gmres, "solve", "solvers.gmres", _krylov)
    inst.wrap(cg.ConjugateGradient, "solve", "solvers.cg", _krylov)
    hs = hsmg.HybridSchwarzMultigrid
    inst.wrap(hs, "__call__", "precond.hsmg")
    inst.wrap(hs, "coarse_part", "precond.hsmg.coarse")
    inst.wrap(hs, "schwarz_part", "precond.hsmg.schwarz")
    inst.wrap(jacobi.JacobiPrecond, "__call__", "precond.jacobi")
    for module in (fluid, scalar, operators):
        inst.wrap(module, "ax_helmholtz", "sem.ax_helmholtz", _ax_bytes)
    inst.wrap(fluid, "ax_poisson", "sem.ax_poisson")
    inst.wrap(gather_scatter.GatherScatter, "add", "sem.gs.add")
    inst.wrap(dealias.Dealiaser, "convect_weak", "sem.dealias.convect_weak")
    inst.wrap(dealias.Dealiaser, "to_fine", "sem.dealias.to_fine")

    inst.wrap(distributed_solver.DistributedConjugateGradient, "solve", "comm.dist_cg", _krylov)
    inst.wrap(distributed_gs.DistributedGatherScatter, "add", "comm.dgs.add")
    inst.wrap(campaign.ScalingCampaign, "build_point", "comm.campaign.build_point")
    inst.wrap(campaign, "rcb_from_centroids", "comm.partition")
    inst.wrap(topology.BatchedGatherScatter, "__init__", "comm.batched_gs.setup")
    inst.wrap(costmodel.CommCostModel, "round_us", "comm.costmodel")
    inst.wrap(costmodel.CommCostModel, "allreduce_us", "comm.costmodel")
    inst.wrap(workmodel.SEMWorkModel, "step_costs", "perfmodel.step_costs")
    inst.wrap(scaling.StrongScalingStudy, "time_per_step", "perfmodel.time_per_step")

    for attr, span in (
        ("to_modal", "compression.to_modal"),
        ("truncate_relative", "compression.truncate"),
        ("encode_coefficients", "compression.encode"),
        ("decode_coefficients", "compression.decode"),
        ("to_nodal", "compression.to_nodal"),
    ):
        inst.wrap(compression_api, attr, span)
    inst.wrap(compression_api.CompressedField, "decompress", "compression.decompress")
    inst.wrap(processors.CompressionProcessor, "process", "insitu.compress")
    inst.wrap(pod.StreamingPOD, "push", "insitu.pod.push")
    inst.wrap(pipeline.InSituPipeline, "put", "insitu.put", _queue_depth)


def aggregate(recorder: SpanRecorder) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive and self seconds, summed and max counters."""
    agg: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for _, span in recorder.spans():
        if span.instant:
            continue
        rec = agg[span.name]
        rec["calls"] += 1
        rec["incl"] += span.duration
        rec["self"] += span.self_time
        for key, value in span.counters.items():
            rec[key] += value
            rec[f"max:{key}"] = max(rec[f"max:{key}"], value)
    return agg


#: Per-layer metrics read from spans: ``name -> (unit, [(span, quantity)])``.
#: Quantities are summed over the listed spans and divided by the number
#: of traced operations (by the number of distributed solves for the
#: ``PER_SOLVE`` metrics), except ``max:`` quantities, which are maxima.
SPAN_METRICS: dict[str, tuple[str, list[tuple[str, str]]]] = {
    "solvers.gmres.calls": ("count", [("solvers.gmres", "calls")]),
    "solvers.gmres.s": ("s", [("solvers.gmres", "self")]),
    "solvers.gmres.iters": ("count", [("solvers.gmres", "iters")]),
    "solvers.cg.calls": ("count", [("solvers.cg", "calls")]),
    "solvers.cg.s": ("s", [("solvers.cg", "self")]),
    "solvers.cg.iters": ("count", [("solvers.cg", "iters")]),
    "solvers.unconverged": (
        "count",
        [("solvers.gmres", "unconverged"), ("solvers.cg", "unconverged"),
         ("comm.dist_cg", "unconverged")],
    ),
    "precond.hsmg.calls": ("count", [("precond.hsmg", "calls")]),
    "precond.hsmg.s": ("s", [("precond.hsmg", "self")]),
    "precond.hsmg.coarse_s": ("s", [("precond.hsmg.coarse", "self")]),
    "precond.hsmg.schwarz_s": ("s", [("precond.hsmg.schwarz", "self")]),
    "precond.jacobi.s": ("s", [("precond.jacobi", "self")]),
    "sem.ax_helmholtz.calls": ("count", [("sem.ax_helmholtz", "calls")]),
    "sem.ax_helmholtz.s": ("s", [("sem.ax_helmholtz", "self")]),
    "sem.ax_helmholtz.bytes_computed": ("bytes", [("sem.ax_helmholtz", "bytes")]),
    "sem.ax_poisson.calls": ("count", [("sem.ax_poisson", "calls")]),
    "sem.ax_poisson.s": ("s", [("sem.ax_poisson", "self")]),
    "sem.dealias.s": (
        "s", [("sem.dealias.convect_weak", "self"), ("sem.dealias.to_fine", "self")]
    ),
    "comm.dgs.s": ("s", [("comm.dgs.add", "self")]),
    "comm.local_amul.s": ("s", [("comm.local_amul", "self")]),
    "comm.campaign.build_s": ("s", [("comm.campaign.build_point", "incl")]),
    "comm.campaign.price_s": (
        "s",
        [("comm.costmodel", "self"), ("perfmodel.step_costs", "self"),
         ("perfmodel.time_per_step", "self")],
    ),
    "compression.to_modal.s": ("s", [("compression.to_modal", "self")]),
    "compression.truncate.s": ("s", [("compression.truncate", "self")]),
    "compression.encode.s": ("s", [("compression.encode", "self")]),
    "compression.decode.s": ("s", [("compression.decode", "self")]),
    "compression.to_nodal.s": ("s", [("compression.to_nodal", "self")]),
    "insitu.put.s": ("s", [("insitu.put", "self")]),
    "insitu.pod.push_s": ("s", [("insitu.pod.push", "self")]),
    "insitu.queue_depth_max": ("count", [("insitu.put", "max:depth")]),
}


#: Metrics of the distributed solve, which runs on some operations only.
PER_SOLVE = {"comm.dgs.s", "comm.local_amul.s"}


def span_metrics(agg: dict[str, dict[str, float]], n_ops: int) -> dict[str, tuple[float, str]]:
    """Evaluate :data:`SPAN_METRICS` on an aggregate of ``n_ops`` traced operations."""
    solves = agg.get("comm.dist_cg", {}).get("calls", 0.0)
    out = {}
    for name, (unit, sources) in SPAN_METRICS.items():
        if sources[0][1].startswith("max:"):
            value = max(agg.get(span, {}).get(q, 0.0) for span, q in sources)
        else:
            per = solves if name in PER_SOLVE else n_ops
            value = sum(agg.get(span, {}).get(q, 0.0) for span, q in sources) / max(per, 1)
        out[name] = (float(value), unit)
    return out


def _tree(recorder: SpanRecorder):
    """Per thread: ``{path: [calls, incl, self]}`` over all root spans."""
    trees: dict[str, dict[tuple[str, ...], list[float]]] = defaultdict(
        lambda: defaultdict(lambda: [0, 0.0, 0.0])
    )

    def visit(tree, span, prefix):
        if span.instant:
            return
        path = prefix + (span.name,)
        rec = tree[path]
        rec[0] += 1
        rec[1] += span.duration
        rec[2] += span.self_time
        for child in span.children:
            visit(tree, child, path)

    for key, tracer in recorder.tracers.items():
        for root in tracer.roots:
            visit(trees[recorder.thread_names[key]], root, ())
    return trees


def attribution_table(recorder: SpanRecorder, n_ops: int) -> list[str]:
    """Indented per-operation breakdown, phase -> solver -> kernel.

    Each row gives calls, inclusive and self milliseconds per operation.
    The self time of a row is what no wrapped call below it covers: for
    the operation row that is the step outside every phase, reported as
    ``core.overhead_s`` (interpreter overhead); below it, the Python and
    untraced NumPy work of that layer.
    """
    lines = [f"attribution per operation ({n_ops} traced operations; ms)"]
    lines.append(f"  {'span':<58s} {'calls':>9s} {'incl':>10s} {'self':>10s}")
    for thread, tree in _tree(recorder).items():
        lines.append(f"  [thread {thread}]")
        children: dict[tuple[str, ...], list[tuple[str, ...]]] = defaultdict(list)
        for path in tree:
            children[path[:-1]].append(path)

        def emit(parent: tuple[str, ...]) -> None:
            for path in sorted(children[parent], key=lambda p: -tree[p][1]):
                calls, incl, self_t = tree[path]
                label = "  " * (len(path) - 1) + path[-1]
                lines.append(
                    f"  {label:<58s} {calls / n_ops:9.1f} "
                    f"{1e3 * incl / n_ops:10.3f} {1e3 * self_t / n_ops:10.3f}"
                )
                emit(path)

        emit(())
    return lines


def write_spans(recorder: SpanRecorder, path: Path) -> int:
    """Write every span as one JSON line (name, start, end, parent id, thread)."""
    ids: dict[int, int] = {}
    path.parent.mkdir(parents=True, exist_ok=True)
    n = 0
    with path.open("w") as fh:
        for thread, span in recorder.spans():
            ids[id(span)] = n
            parent = ids.get(id(span.parent)) if span.parent is not None else None
            rec = {
                "id": n, "parent": parent, "thread": thread, "name": span.name,
                "start": span.start, "end": span.end,
            }
            if span.counters:
                rec["counters"] = span.counters
            fh.write(json.dumps(rec) + "\n")
            n += 1
    return n

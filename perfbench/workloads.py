"""The benchmark workloads: what each sets up, repeats and checks.

Every workload has one *operation* that it repeats for the measured
window, and reports the end-to-end metrics of that operation:

=============== ===================================== ======================
workload        operation                             grid points per op
=============== ===================================== ======================
step_large      one Boussinesq RBC step, 216 el, lx 8 110,592
comm_scaling    one 4096-rank Fig. 3 scaling point    2,097,152 (modelled)
                (+ a 16-rank distributed CG solve
                every third operation, untimed)
insitu_compress one 5-field snapshot written through  5 x 110,592
                the in-situ pipeline and read back
=============== ===================================== ======================

A workload's ``op`` returns the seconds of the operation alone and whether
its outputs passed the checks, which run outside the timed region.
"""

from __future__ import annotations

import dataclasses
import io
import json
import threading
import time
from pathlib import Path

import numpy as np

from repro.comm import (
    DistributedConjugateGradient,
    DistributedGatherScatter,
    SimWorld,
    linear_partition,
)
from repro.comm.campaign import DEFAULT_SHAPE, ScalingCampaign
from repro.compression import SpectralCompressor
from repro.core import Simulation, rbc_box_case
from repro.core.output import load_checkpoint, write_checkpoint
from repro.insitu import InSituPipeline, StreamingPOD
from repro.insitu.pipeline import Processor
from repro.insitu.processors import CompressionProcessor, PODProcessor
from repro.perfmodel.machine import LUMI
from repro.precond.cache import global_cache, reset_global_cache
from repro.precond.jacobi import helmholtz_diagonal
from repro.sem import operators
from repro.sem.bc import DirichletBC
from repro.sem.mesh import box_mesh
from repro.sem.space import FunctionSpace
from repro.solvers.cg import ConjugateGradient

from perfbench.inputs import (
    FIELD_TAGS,
    helmholtz_rhs,
    rbc_initial_temperature,
    snapshot_stream,
)

__all__ = ["WORKLOADS", "Workload"]

REPO_ROOT = Path(__file__).resolve().parent.parent

RAYLEIGH, PRANDTL, ASPECT = 1.0e5, 1.0, 2.0


class Workload:
    """Base class: one operation, repeated and checked."""

    name = ""
    operation = ""
    points_per_op = 0
    #: Cold set-ups per run; ``setup_s`` is their median.
    setup_repeats = 15

    def setup(self):
        """Build the program objects the operation runs on (timed)."""
        raise NotImplementedError

    def discard(self, state) -> None:
        """Release a set-up that will not be measured."""

    def start(self, state) -> None:
        """Untimed warm-up after the measured set-up."""

    def before_op(self, state) -> None:
        """Untimed, untraced preparation of the next operation."""

    def cycle_done(self, state) -> bool:
        """Whether the operations so far cover the workload's inputs whole.

        A run only ends on such a boundary, so every run measures the same
        mix of operations whatever its speed.
        """
        return True

    def op(self, state) -> tuple[float, bool]:
        """Run one operation; returns its seconds and whether it passed."""
        raise NotImplementedError

    def instrument(self, inst, state) -> None:
        """Add workload-specific wrappers (instance attributes)."""

    def counters(self, state) -> dict[str, float]:
        """Cumulative program counters, differenced around each operation."""
        return {}

    def finish(self, state) -> dict[str, bool]:
        """End-of-run checks, by name."""
        return {}

    def layer_metrics(self, state, traced: dict, untraced: dict, n_traced: int,
                      n_untraced: int, untraced_seconds: float) -> dict:
        """Per-layer metrics from counters: ``name -> (value, unit)``."""
        return {}

    def describe(self) -> dict:
        """Array sizes and operating point, for the environment block."""
        return {"operation": self.operation, "points_per_op": self.points_per_op}

    def report(self, state) -> list[str]:
        """Extra human-readable lines (modelled values, derived rates)."""
        return []


# -- Boussinesq RBC steps --------------------------------------------------------

PHASES = ("advection", "pressure", "velocity", "temperature")

#: A step whose phases sum to more than its own time by this share is an
#: internally inconsistent record (phases run one after another inside it).
PHASE_SUM_EPS = 1e-3

#: Steps run before measuring: the BDF/EXT order ramp (orders 1, 2, 3)
#: rebuilds the Helmholtz operators, so the first three steps are not
#: representative.
WARMUP_STEPS = 3


class StepWorkload(Workload):
    """Boussinesq RBC at Ra 1e5, Pr 1, aspect 2, periodic sides, on 6x6x6
    elements of order lx 8.

    The solver work of a step changes as the flow develops (the pressure
    solve's iterations fall from about 50 to about 12 over the first twenty
    steps after the warm-up).  A run that timed steps ``4, 5, ...`` for as
    long as it lasted would measure a faster machine on cheaper steps.  So
    the measured steps form a cycle: after the warm-up the simulation is
    checkpointed in memory, and every ``CYCLE`` steps it is restored
    (untimed, bit-exact), so each run times the same ``CYCLE`` steps over
    and over and ends on a whole cycle.  The cycle is odd, so a traced run,
    which traces every other operation, traces each step of it as often as
    it leaves it untraced.
    """

    name = "step_large"
    operation = "time step"
    MESH, LX = (6, 6, 6), 8
    CYCLE = 5
    setup_repeats = 7

    def __init__(self, seed: int) -> None:
        self._rewind_point = b""
        self._in_cycle = 0
        config = rbc_box_case(RAYLEIGH, PRANDTL, n=self.MESH, lx=self.LX, aspect=ASPECT)
        self.config = dataclasses.replace(
            config, initial_temperature=rbc_initial_temperature(seed, aspect=ASPECT)
        )
        self.points_per_op = int(np.prod(self.MESH)) * self.LX**3
        self._step_records: list[tuple[float, float]] = []  # (step, sum of phases) seconds

    def setup(self):
        reset_global_cache()  # every set-up builds its operators cold
        return Simulation(self.config)

    def start(self, sim) -> None:
        sim.run(n_steps=WARMUP_STEPS)
        buf = io.BytesIO()
        write_checkpoint(sim, buf)
        self._rewind_point, self._in_cycle = buf.getvalue(), 0

    def before_op(self, sim) -> None:
        if self._in_cycle == self.CYCLE:
            load_checkpoint(sim, io.BytesIO(self._rewind_point))
            self._in_cycle = 0

    def cycle_done(self, sim) -> bool:
        return self._in_cycle == self.CYCLE

    def op(self, sim) -> tuple[float, bool]:
        self._in_cycle += 1
        before = sum(sim.timers.totals.get(p, 0.0) for p in PHASES)
        t0 = time.perf_counter()
        try:
            sim.run(n_steps=1)  # raises on a non-finite energy, divergence or T
        except FloatingPointError:
            return time.perf_counter() - t0, False
        seconds = time.perf_counter() - t0
        after = sum(sim.timers.totals.get(p, 0.0) for p in PHASES)
        self._step_records.append((seconds, after - before))
        monitors = [*sim.fluid.monitors.values(), *sim.scalar.monitors.values()]
        return seconds, all(m.converged for m in monitors)

    def instrument(self, inst, sim) -> None:
        inst.wrap_regions(sim.timers)

    def counters(self, sim) -> dict[str, float]:
        gs = sim.space.gs
        out = {f"phase.{p}": sim.timers.totals.get(p, 0.0) for p in PHASES}
        out.update({"gs.calls": gs.calls, "gs.bytes": gs.bytes_moved, "gs.s": gs.seconds})
        return out

    def layer_metrics(self, sim, traced, untraced, n_traced, n_untraced, untraced_seconds):
        phases = {p: untraced.get(f"phase.{p}", 0.0) / n_untraced for p in PHASES}
        out = {f"core.phase.{p}_s": (v, "s") for p, v in phases.items()}
        out["core.overhead_s"] = (untraced_seconds / n_untraced - sum(phases.values()), "s")
        out["core.inconsistent_steps"] = (
            float(sum(ph > step * (1 + PHASE_SUM_EPS) for step, ph in self._step_records)), "count"
        )
        out["sem.gs.calls"] = (traced.get("gs.calls", 0.0) / n_traced, "count")
        out["sem.gs.bytes"] = (traced.get("gs.bytes", 0.0) / n_traced, "bytes")
        out["sem.gs.s"] = (traced.get("gs.s", 0.0) / n_traced, "s")
        out["precond.cache.hit_ratio"] = (global_cache().hit_rate(), "ratio")
        out["precond.precision_fallbacks"] = (float(sim.fluid.precision_fallbacks), "count")
        return out

    def describe(self) -> dict:
        out = super().describe()
        field_bytes = self.points_per_op * 8
        out.update({
            "elements": list(self.MESH), "lx": self.LX, "field_bytes": field_bytes,
            "rayleigh": RAYLEIGH, "prandtl": PRANDTL, "aspect": ASPECT, "dt": self.config.dt,
            "warmup_steps": WARMUP_STEPS, "steps_per_cycle": self.CYCLE,
        })
        return out


# -- the comm path: Fig. 3 campaign point and distributed CG ---------------------


class _RankCoef:
    """Per-rank geometric factors: no ``g_stack``, so ``ax_helmholtz``
    takes its per-axis path on every chunk."""

    def __init__(self, chunks: dict[str, np.ndarray]) -> None:
        for name, chunk in chunks.items():
            setattr(self, name, chunk)


def _golden(path: str, entry: str) -> dict:
    return json.loads((REPO_ROOT / path).read_text())["results"][entry]


def _same(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))


class CommWorkload(Workload):
    """The only workload that runs ``repro.comm`` and ``repro.perfmodel``.

    The timed operation is ``ScalingCampaign(LUMI).run_point(4096)``:
    partition, batched gather--scatter set-up and DES pricing of one
    strong-scaling point.  Every third operation also runs, untimed, one
    Helmholtz solve by Jacobi-CG on a 16-rank ``SimWorld`` (4x4x4
    elements, lx 6), checked against the single-rank solve.  That solve's
    wall time swings by a quarter between runs of identical work on a
    shared 2-core machine (its cost is interpreter-bound message packing),
    so it is measured per layer in the traced run -- ``comm.dgs.s``,
    ``comm.local_amul.s``, ``comm.p2p_messages`` per solve -- and not as
    an end-to-end metric.
    """

    name = "comm_scaling"
    operation = "4096-rank scaling-campaign point"
    POINT_RANKS = 4096
    RANKS, MESH, LX = 16, (4, 4, 4), 6
    H1, H2, TOL = 0.05, 20.0, 1e-10
    #: Largest relative difference from the single-rank solve that counts
    #: as the same solution (both solves converge to 1e-10).
    MATCH_TOL = 1e-7
    #: A distributed solve runs with operations ``1, 1 + SOLVE_EVERY, ...``;
    #: the traced run measures allocations on operation 0 and then traces
    #: every other operation, so an odd period traces solves too.
    SOLVE_EVERY = 3

    def __init__(self, seed: int, cg_maxiter: int = 400) -> None:
        # The campaign point is a pure function of the fixed campaign mesh
        # and machine; the seed selects the distributed solve's right-hand
        # side.
        self.shape, self.lx = DEFAULT_SHAPE, 8
        self.points_per_op = int(np.prod(DEFAULT_SHAPE)) * self.lx**3
        self.cg_maxiter = cg_maxiter
        sp = FunctionSpace(box_mesh(self.MESH), self.LX)
        self.space = sp
        self.mask = DirichletBC(sp, ["bottom", "top", "x-", "x+", "y-", "y+"], 0.0).mask
        self.rhs = helmholtz_rhs(sp, self.mask, seed)
        diag = sp.gs.add(helmholtz_diagonal(sp, self.H1, self.H2))
        self.inv_diag = 1.0 / np.where(self.mask == 0.0, 1.0, diag)

        # Single-rank reference solution of the same system.
        def amul(u):
            au = operators.ax_helmholtz(u, sp.coef, sp.dx, self.H1, self.H2)
            return sp.gs.add(au) * self.mask

        ref = ConjugateGradient(
            amul, sp.gs.dot, precond=lambda r: r * self.inv_diag * self.mask, tol=self.TOL,
            maxiter=1000,
        )
        self.reference, _ = ref.solve(self.rhs)
        self._count = 0
        self._last_point = None
        self._solves: list[tuple[int, bool]] = []

    def setup(self):
        sp = self.space
        campaign = ScalingCampaign(LUMI, shape=self.shape, lx=self.lx)
        world = SimWorld(self.RANKS)
        owner = linear_partition(sp.mesh.nelv, self.RANKS)
        dgs = DistributedGatherScatter(sp.gs.global_ids, owner, sp.shape, world)
        names = ("g11", "g22", "g33", "g12", "g13", "g23", "mass")
        chunks = {name: dgs.scatter_field(getattr(sp.coef, name)) for name in names}
        coefs = [_RankCoef({n: chunks[n][r] for n in names}) for r in range(self.RANKS)]
        dx, h1, h2 = sp.dx, self.H1, self.H2

        def local_amul(rank, chunk):
            # Looked up on the module at call time, so the traced run's
            # wrapper on repro.sem.operators.ax_helmholtz sees every call.
            return operators.ax_helmholtz(chunk, coefs[rank], dx, h1, h2)

        mask_chunks = dgs.scatter_field(self.mask)
        precond = [d * m for d, m in zip(dgs.scatter_field(self.inv_diag), mask_chunks)]
        solver = DistributedConjugateGradient(
            local_amul, dgs, world, local_mask=mask_chunks, precond_diag=precond,
            tol=self.TOL, maxiter=self.cg_maxiter,
        )
        return {"campaign": campaign, "world": world, "dgs": dgs, "solver": solver,
                "rhs": dgs.scatter_field(self.rhs)}

    def op(self, state) -> tuple[float, bool]:
        t0 = time.perf_counter()
        point = state["campaign"].run_point(self.POINT_RANKS)
        seconds = time.perf_counter() - t0
        self._last_point = point
        gold = _golden("BENCH_step.json", f"scaling_{self.POINT_RANKS}")
        ok = _same(point.step_us * 1e-6, gold["simulated_step_seconds"]) and _same(
            point.gs_topology_speedup, gold["gs_topology_speedup"]
        )
        if self._count % self.SOLVE_EVERY == 1:
            ok = self._solve(state) and ok
        self._count += 1
        return seconds, ok

    def _solve(self, state) -> bool:
        x, mon = state["solver"].solve(state["rhs"])
        xg = state["dgs"].gather_field(x)
        diff = np.abs(xg - self.reference).max() / np.abs(self.reference).max()
        ok = bool(mon.converged and diff <= self.MATCH_TOL)
        self._solves.append((mon.iterations, ok))
        return ok

    def instrument(self, inst, state) -> None:
        inst.wrap(state["solver"], "local_amul", "comm.local_amul")

    def counters(self, state) -> dict[str, float]:
        st = state["world"].stats
        return {"p2p_messages": st.p2p_messages, "p2p_bytes": st.p2p_bytes,
                "allreduces": st.allreduce_calls, "solves": len(self._solves)}

    def finish(self, state) -> dict[str, bool]:
        point = state["campaign"].run_point(16)
        gold = _golden("BENCH_scaling.json", "world16_scaling_lumi")
        return {
            "16-rank point equals BENCH_scaling.json world16_scaling_lumi":
                _same(point.step_us * 1e-6, gold["seconds"])
                and _same(point.gs_topology_speedup, gold["gs_topology_speedup"]),
        }

    def layer_metrics(self, state, traced, untraced, n_traced, n_untraced, untraced_seconds):
        solves = max(traced.get("solves", 0.0), 1.0)
        out = {f"comm.{k}": (traced.get(k, 0.0) / solves, "bytes" if "bytes" in k else "count")
               for k in ("p2p_messages", "p2p_bytes", "allreduces")}
        out["comm.cg_iters"] = (float(self._solves[-1][0]) if self._solves else 0.0, "count")
        return out

    def report(self, state) -> list[str]:
        p = self._last_point
        lines = [f"distributed CG: {len(self._solves)} solves on {self.RANKS} ranks, "
                 f"{sum(not ok for _, ok in self._solves)} failed, "
                 f"iterations {sorted({it for it, _ in self._solves})}"]
        if p is not None:
            lines.append(
                f"modelled (DES, not measured): step {p.step_us * 1e-3:.4f} ms at {p.n_ranks} "
                f"ranks, topology gather-scatter speed-up x{p.gs_topology_speedup:.4f}, "
                f"closed-form step {p.modeled_step_us * 1e-3:.4f} ms"
            )
        return lines

    def describe(self) -> dict:
        out = super().describe()
        out.update({
            "campaign": {"ranks": self.POINT_RANKS, "elements": list(self.shape), "lx": self.lx,
                         "machine": "LUMI"},
            "distributed_cg": {"ranks": self.RANKS, "elements": list(self.MESH), "lx": self.LX,
                               "points_per_rank": self.space.nelv * self.LX**3 // self.RANKS,
                               "field_bytes": self.space.nelv * self.LX**3 * 8,
                               "tol": self.TOL, "every_ops": self.SOLVE_EVERY},
        })
        return out


# -- in-situ compression ---------------------------------------------------------------


class _SnapshotDone(Processor):
    """Last processor of the pipeline: signals that a snapshot is through."""

    name = "snapshot-done"

    def __init__(self) -> None:
        self.event = threading.Event()

    def process(self, tag, array, sim_time) -> None:
        if tag == FIELD_TAGS[-1]:
            self.event.set()


class InsituWorkload(Workload):
    """Seeded snapshots through ``InSituPipeline`` with compression and POD."""

    name = "insitu_compress"
    operation = "5-field snapshot written through the in-situ pipeline and read back"
    MESH, LX = (6, 6, 6), 8
    ERROR_BOUND = 0.025
    #: The compressor's bound is exact in the modal norm; measured with
    #: GLL quadrature the error may read up to 1.5x higher (see
    #: SpectralCompressor), so that is the check.
    ERROR_CHECK = 1.5 * ERROR_BOUND
    #: A set-up takes about a millisecond (it starts the worker thread), so
    #: many are cheap and steady its median.
    setup_repeats = 41
    N_SNAPSHOTS = 6
    MAX_QUEUE = 2
    WAIT_S = 60.0

    def __init__(self, seed: int) -> None:
        config = rbc_box_case(RAYLEIGH, PRANDTL, n=self.MESH, lx=self.LX, aspect=ASPECT)
        self.space = FunctionSpace(config.mesh, config.lx)
        self.snapshots = snapshot_stream(self.space, seed, self.N_SNAPSHOTS)
        self.points_per_op = len(FIELD_TAGS) * self.space.nelv * self.LX**3
        self._count = 0
        self._rates = {"write": [], "read": []}

    def setup(self):
        compressor = SpectralCompressor(self.space, error_bound=self.ERROR_BOUND)
        comp = CompressionProcessor(compressor)
        pod = StreamingPOD(n_modes=4, batch_size=8, weight=self.space.coef.mass)
        done = _SnapshotDone()
        pipeline = InSituPipeline(
            [comp, PODProcessor(pod, "T"), done], max_queue=self.MAX_QUEUE
        ).open()
        return {"pipeline": pipeline, "comp": comp, "pod": pod, "done": done}

    def discard(self, state) -> None:
        state["pipeline"].close()

    def op(self, state) -> tuple[float, bool]:
        snap = self.snapshots[self._count % len(self.snapshots)]
        sim_time = float(self._count)
        self._count += 1
        pipeline, comp, done = state["pipeline"], state["comp"], state["done"]
        done.event.clear()
        t0 = time.perf_counter()
        for tag in FIELD_TAGS:
            pipeline.put(tag, snap[tag], sim_time)
        finished = done.event.wait(self.WAIT_S)
        t1 = time.perf_counter()
        written = comp.compressed[-len(FIELD_TAGS):] if finished else []
        recon = [cf.decompress() for cf in written]
        t2 = time.perf_counter()
        raw = sum(cf.raw_bytes for cf in written)
        if finished:
            self._rates["write"].append(raw / (t1 - t0))
            self._rates["read"].append(raw / (t2 - t1))
        comp.compressed.clear()  # the worker is idle until the next put
        ok = finished and [cf.name for cf in written] == list(FIELD_TAGS)
        for cf, rec in zip(written, recon):
            err = self.space.norm_l2(rec - snap[cf.name]) / self.space.norm_l2(snap[cf.name])
            ok = ok and bool(err <= self.ERROR_CHECK)
        return t2 - t0, ok

    def counters(self, state) -> dict[str, float]:
        comp = state["comp"]
        return {"bytes_in": comp.total_raw, "bytes_out": comp.total_compressed}

    def finish(self, state) -> dict[str, bool]:
        pipeline, pod = state["pipeline"], state["pod"]
        error = None
        try:
            pipeline.close()
        except RuntimeError as exc:
            error = exc
        return {
            "pipeline closed without processor errors": error is None and pipeline.error is None,
            "no processor quarantined": not pipeline.quarantined,
            "POD singular values finite": bool(np.all(np.isfinite(pod.singular_values))),
        }

    def layer_metrics(self, state, traced, untraced, n_traced, n_untraced, untraced_seconds):
        comp = state["comp"]
        out = {
            "compression.bytes_in": (traced.get("bytes_in", 0.0) / n_traced, "bytes"),
            "compression.bytes_out": (traced.get("bytes_out", 0.0) / n_traced, "bytes"),
            "insitu.quarantined": (float(len(state["pipeline"].quarantined)), "count"),
        }
        if comp.total_raw:
            out["compression.ratio"] = (comp.total_compressed / comp.total_raw, "ratio")
        return out

    def report(self, state) -> list[str]:
        comp = state["comp"]
        if not self._rates["write"]:
            return []
        return [
            f"compress (write path) {np.median(self._rates['write']) / 1e6:.2f} MB/s, "
            f"decompress {np.median(self._rates['read']) / 1e6:.2f} MB/s (medians per snapshot), "
            f"compressed/raw {comp.total_compressed / max(comp.total_raw, 1):.5f}"
        ]

    def describe(self) -> dict:
        out = super().describe()
        out.update({"elements": list(self.MESH), "lx": self.LX, "fields": list(FIELD_TAGS),
                    "field_bytes": self.space.nelv * self.LX**3 * 8,
                    "error_bound": self.ERROR_BOUND, "max_queue": self.MAX_QUEUE,
                    "distinct_snapshots": self.N_SNAPSHOTS})
        return out


WORKLOADS = {
    "step_large": StepWorkload,
    "comm_scaling": CommWorkload,
    "insitu_compress": InsituWorkload,
}

"""The Fig. 4 phase registry: canonical span and metric names.

The paper's wall-time breakdown (Fig. 4) partitions a time step into a
fixed set of phases; the observability layer reproduces that taxonomy as
span names, and every dashboard, exporter and regression comparison keys
on them.  A misspelled span name does not fail -- it silently opens a new
series that no tooling aggregates, which is how taxonomies rot.  This
module is therefore the single source of truth:

* instrumentation sites import the ``PHASE_*`` constants instead of
  retyping string literals;
* the ``span-hygiene`` rule of :mod:`repro.statcheck` statically checks
  every literal passed to ``Tracer.span`` / ``RegionTimers.region`` /
  ``MetricsRegistry.counter``-and-friends against this registry, so an
  unregistered name is caught at lint time, before it pollutes a trace.

Dynamic name families (one series per solver, per processor, ...) are
registered as *prefixes*: ``krylov.<solver>`` spans, ``solver.<name>.*``
metrics and so on.
"""

from __future__ import annotations

__all__ = [
    "PHASE_STEP",
    "PHASE_ADVECTION",
    "PHASE_PRESSURE",
    "PHASE_VELOCITY",
    "PHASE_TEMPERATURE",
    "PHASE_GATHER_SCATTER",
    "PHASE_STATISTICS",
    "PHASE_INSITU",
    "PHASES",
    "SPAN_PREFIXES",
    "METRIC_PREFIXES",
    "is_registered_span",
    "is_registered_metric",
]

# -- span taxonomy (Fig. 4) --------------------------------------------------

PHASE_STEP = "step"
PHASE_ADVECTION = "advection"
PHASE_PRESSURE = "pressure"
PHASE_VELOCITY = "velocity"
PHASE_TEMPERATURE = "temperature"
PHASE_GATHER_SCATTER = "gather_scatter"
PHASE_STATISTICS = "statistics"
PHASE_INSITU = "insitu"

#: Exact span names of the per-step phase breakdown, outermost first.
PHASES: tuple[str, ...] = (
    PHASE_STEP,
    PHASE_ADVECTION,
    PHASE_PRESSURE,
    PHASE_VELOCITY,
    PHASE_TEMPERATURE,
    PHASE_GATHER_SCATTER,
    PHASE_STATISTICS,
    PHASE_INSITU,
)

#: Registered dynamic span families: a span name is valid when it starts
#: with one of these prefixes (``krylov.pressure``, ``resilience.rollback``).
#: The ``fleet.`` family carries the per-rank spans of the distributed
#: telemetry layer (``fleet.gs.local``, ``fleet.cg.amul``); ``anomaly.``
#: are the instant events of the online detectors; ``flight.`` marks the
#: flight-recorder lifecycle (arm, dump, divergence).  The ``verify.``
#: family wraps the verification subsystem's convergence studies
#: (``verify.study``, ``verify.case``).  The ``chaos.`` family wraps the
#: chaos-testing harness's scenario runs (``chaos.campaign``,
#: ``chaos.scenario``).
#: The ``cache.`` family marks operator-cache lifecycle events
#: (``cache.build``) and the ``autotune.`` family the startup kernel
#: autotuner (``autotune.sweep``, ``autotune.variant``,
#: ``autotune.fallback``, ``autotune.precision_fallback``).  The
#: ``profile.`` family carries the continuous profiler's roofline
#: attribution spans and model-drift events (``profile.attribution``,
#: ``profile.drift.<series>``); the ``campaign.`` family wraps the
#: cross-run ledger/observatory (``campaign.append``, ``campaign.report``).
#: The ``topo.`` family carries the topology-aware gather--scatter's
#: staged-exchange spans and per-rank DES timings (``topo.gs``,
#: ``topo.compute``), and the ``scaling.`` family wraps the simulated
#: strong-scaling campaign (``scaling.campaign``, ``scaling.point``).
SPAN_PREFIXES: tuple[str, ...] = (
    "krylov.",
    "resilience.",
    "checkpoint.",
    "fleet.",
    "anomaly.",
    "flight.",
    "verify.",
    "chaos.",
    "cache.",
    "autotune.",
    "profile.",
    "campaign.",
    "topo.",
    "scaling.",
)

# -- metric taxonomy ---------------------------------------------------------

#: Registered metric-name families, matching the exporters and the bench
#: trajectory.  Kept as prefixes because most series are parameterized by a
#: solver / processor / event name.
METRIC_PREFIXES: tuple[str, ...] = (
    "sim.",
    "gs.",
    "solver.",
    "insitu.",
    "comm.",
    "resilience.",
    "bench.",
    "fleet.",
    "anomaly.",
    "flight.",
    "verify.",
    "chaos.",
    "cache.",
    "autotune.",
    "profile.",
    "campaign.",
    "topo.",
    "scaling.",
)


def is_registered_span(name: str) -> bool:
    """True when ``name`` is a phase or belongs to a registered span family."""
    return name in PHASES or name.startswith(SPAN_PREFIXES)


def is_registered_metric(name: str) -> bool:
    """True when ``name`` belongs to a registered metric family."""
    return name.startswith(METRIC_PREFIXES)

"""repro: a spectral-element Rayleigh-Benard convection framework.

A from-scratch Python reproduction of the system described in
"Exploring the Ultimate Regime of Turbulent Rayleigh-Benard Convection
Through Unprecedented Spectral-Element Simulations" (SC '23):

* ``repro.sem`` -- the spectral-element discretization (GLL bases, hex
  meshes including the butterfly cylinder, gather--scatter, matrix-free
  tensor-product operators, 3/2-rule dealiasing).
* ``repro.solvers`` / ``repro.precond`` -- Krylov solvers and the hybrid
  Schwarz-multigrid pressure preconditioner with its task-overlap schedule.
* ``repro.timeint`` / ``repro.core`` -- BDF/EXT time integration, the
  P_N-P_N splitting scheme, the Boussinesq scalar, case configuration and
  the simulation driver with Nusselt-number statistics.
* ``repro.gpu`` -- a discrete-event GPU execution simulator (streams,
  launch latency, priorities) reproducing the Fig. 2 overlap study.
* ``repro.comm`` -- an in-process MPI-rank simulator with two-phase
  distributed gather--scatter.
* ``repro.perfmodel`` -- roofline + network performance model of LUMI and
  Leonardo reproducing the Fig. 3 / Fig. 4 scaling results.
* ``repro.compression`` / ``repro.insitu`` -- the lossy spectral
  compressor (Fig. 5) and the asynchronous in-situ pipeline with
  streaming POD.
* ``repro.analysis`` -- Nu-Ra scaling fits, the ultimate-regime crossover
  analysis, energy spectra and boundary-layer diagnostics.
* ``repro.observability`` -- trace spans, metrics, exporters, the
  continuous profiler and the cross-run campaign ledger.
* ``repro.resilience`` -- fault injection, the checkpoint ring,
  rollback-and-retry and the seeded chaos campaign.
* ``repro.statcheck`` -- domain-invariant static analysis and runtime
  array contracts.
* ``repro.verify`` -- manufactured solutions and convergence-order
  studies.
"""

__version__ = "1.0.0"

__all__ = [
    "sem",
    "solvers",
    "precond",
    "timeint",
    "core",
    "gpu",
    "comm",
    "perfmodel",
    "compression",
    "insitu",
    "analysis",
    "observability",
    "resilience",
    "statcheck",
    "verify",
]

"""Krylov solvers used by the time-stepper.

The paper's configuration: conjugate gradients with block-Jacobi
preconditioning for the velocity and temperature Helmholtz solves, and
GMRES with the hybrid Schwarz-multigrid preconditioner for the pressure
Poisson equation.  Both are implemented matrix-free against a user-supplied
operator callable and a user-supplied inner product (so that duplicated SEM
storage and, in the distributed case, allreduce-based dots plug in
unchanged).
"""

from repro.solvers.monitor import SolverMonitor
from repro.solvers.cg import ConjugateGradient
from repro.solvers.gmres import Gmres
from repro.solvers.projection import MeanProjector
from repro.solvers.solution_projection import SolutionProjection

__all__ = [
    "SolverMonitor",
    "ConjugateGradient",
    "Gmres",
    "MeanProjector",
    "SolutionProjection",
]

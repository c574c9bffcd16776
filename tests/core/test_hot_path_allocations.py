"""Allocation regression of the step's Krylov hot path.

Once the space's workspace holds the kernels' scratch, the operator of a
velocity solve allocates nothing and its Jacobi preconditioner exactly
one field (its new result), and a CG solve allocates a fixed set of
vectors however many iterations it runs.  tracemalloc sees every NumPy
data buffer, so these bounds fail as soon as a field-sized temporary
creeps back into the loop.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import Simulation, rbc_box_case
from repro.solvers.cg import ConjugateGradient

#: Slack for the array objects and interpreter frames around the data
#: buffers (a few hundred bytes each), far below one field.
OBJECT_SLACK = 4096


@pytest.fixture(scope="module")
def velocity_solver():
    sim = Simulation(rbc_box_case(1.0e4, n=(3, 3, 2), lx=6, dt=1e-3))
    sim.run(n_steps=1)  # builds the solver and touches every workspace buffer
    return sim.space, sim.fluid._vel_solver


def _peak(fn, *args) -> int:
    """Peak traced bytes above the starting level while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_velocity_amul_and_precond_allocate_at_most_one_field(velocity_solver):
    space, solver = velocity_solver
    field = np.dtype(np.float64).itemsize * space.n_dofs_local
    u = np.random.default_rng(0).standard_normal(space.shape)
    r = space.gs.add(u)
    solver.amul(u)
    solver.precond(r)

    peak = _peak(lambda: (solver.amul(u), solver.precond(r)))
    assert peak <= field + OBJECT_SLACK


def test_cg_peak_does_not_grow_with_iterations(velocity_solver):
    space, solver = velocity_solver
    field = np.dtype(np.float64).itemsize * space.n_dofs_local
    b = space.gs.add(np.random.default_rng(1).standard_normal(space.shape))
    peaks = {}
    for maxiter in (5, 40):
        # tol=0 never converges: every solve runs all its iterations.
        cg = ConjugateGradient(solver.amul, space.gs.dot, precond=solver.precond,
                               tol=0.0, atol=0.0, maxiter=maxiter)
        cg.solve(b)
        peaks[maxiter] = _peak(cg.solve, b)
    assert abs(peaks[40] - peaks[5]) <= field

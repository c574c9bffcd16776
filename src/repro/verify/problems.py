"""Discrete verification problems: domains, elliptic solves, temporal MMS.

This module turns the closed-form fields of
:mod:`repro.verify.manufactured` into concrete discrete problems:

* domain builders (affine unit box, seeded randomly-deformed box, periodic
  box) shared by the convergence studies and the regression tests;
* elliptic MMS solves with inhomogeneous Dirichlet data handled by lifting
  (solve the homogeneous correction, add the boundary interpolant back);
* a preconditioner factory pairing each preconditioner with the Krylov
  method it is valid for -- the Schwarz-based preconditioners are not
  symmetric with respect to the gather--scatter inner product, so they pair
  with GMRES exactly as the production pressure solver does, while Jacobi
  keeps CG;
* temporal MMS problems for the scalar advection--diffusion equation and
  the coupled Boussinesq step, with the multistep history primed from the
  exact solution so the BDFk/EXTk design order is observable from the very
  first step (the default order ramp would otherwise contaminate the fit).

The temporal error metric is the *maximum over the trajectory* of the
relative L^2 error, not the final-time error: a single-time measurement can
accidentally cancel (the error is oscillatory in t) and report a spurious
order, which cost a calibration round to diagnose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.case import CaseConfig
from repro.core.fluid import FluidScheme
from repro.core.scalar import ScalarScheme
from repro.precond.fdm import FastDiagonalization
from repro.precond.hsmg import HybridSchwarzMultigrid
from repro.precond.jacobi import JacobiPrecond
from repro.precond.schwarz import SchwarzSmoother
from repro.sem.bc import DirichletBC
from repro.sem.mesh import HexMesh, box_mesh
from repro.sem.operators import ax_helmholtz, ax_poisson, convective_term_collocated
from repro.sem.space import FunctionSpace
from repro.solvers.cg import ConjugateGradient
from repro.solvers.gmres import Gmres
from repro.solvers.monitor import SolverMonitor
from repro.verify.manufactured import (
    BoussinesqMMS,
    ScalarAdvectionDiffusionMMS,
    SteadyMMS,
)

__all__ = [
    "unit_box_space",
    "deformed_box_space",
    "periodic_box_space",
    "EllipticSolveResult",
    "solve_poisson_mms",
    "solve_helmholtz_mms",
    "make_preconditioner",
    "solve_poisson_mms_preconditioned",
    "PRECONDITIONERS",
    "ScalarTemporalMMSProblem",
    "BoussinesqTemporalMMSProblem",
]

Array = np.ndarray


# -- domains -----------------------------------------------------------------


def unit_box_space(n: int, lx: int) -> FunctionSpace:
    """Affine ``n x n x n`` unit box."""
    return FunctionSpace(box_mesh((n, n, n)), lx)


def deformed_box_space(
    n: int | tuple[int, int, int], lx: int, amplitude: float = 0.05, seed: int = 3
) -> FunctionSpace:
    """Unit box with seeded random trigonometric corner perturbation.

    ``n`` is the element count per direction, or an ``(nx, ny, nz)`` tuple.

    Every corner moves by ``amplitude * sin(pi x + phi) * sin(pi y + phi)
    * sin(pi z + phi)`` per direction with seeded random phases, producing
    genuinely non-affine (trilinear) elements with full cross-metric terms.
    The Jacobian is asserted positive so the deformation never folds.
    """
    mesh = box_mesh((n, n, n) if isinstance(n, int) else n)
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2 * np.pi, size=(3, 3))
    cc = mesh.corner_coords
    x, y, z = cc[..., 0].copy(), cc[..., 1].copy(), cc[..., 2].copy()
    for d in range(3):
        cc[..., d] += (
            amplitude
            * np.sin(np.pi * x + phases[d, 0])
            * np.sin(np.pi * y + phases[d, 1])
            * np.sin(np.pi * z + phases[d, 2])
        )
    space = FunctionSpace(mesh, lx)
    if not np.all(space.coef.jac > 0):
        raise ValueError(
            f"deformation amplitude {amplitude} folds the mesh (negative Jacobian)"
        )
    return space


def periodic_box_space(
    n: int, lx: int, length: float = 2.0
) -> FunctionSpace:
    """Fully periodic cube of side ``length`` (for the Taylor--Green MMS)."""
    mesh = box_mesh(
        (n, n, n), lengths=(length, length, length), periodic=(True, True, True)
    )
    return FunctionSpace(mesh, lx)


# -- elliptic MMS solves -----------------------------------------------------


@dataclass(frozen=True)
class EllipticSolveResult:
    """Outcome of one MMS elliptic solve."""

    error: float  #: relative L^2 error against the manufactured solution
    iterations: int
    converged: bool
    monitor: SolverMonitor


def _lifted_elliptic_solve(
    space: FunctionSpace,
    mms: SteadyMMS,
    apply_op: Callable[[Array], Array],
    forcing: Array,
    tol: float,
    maxiter: int,
) -> EllipticSolveResult:
    """Shared Dirichlet-lifting solve for both elliptic operators.

    ``apply_op`` is the unassembled elementwise operator; assembly
    (gather--scatter) and masking happen here so every caller treats the
    boundary identically:  ``A (u0 + lift) = B f`` becomes
    ``A u0 = B f - A lift`` restricted to the interior.
    """
    bc = DirichletBC(space, space.mesh.boundary_labels(), mms.solution)
    mask, lift = bc.mask, bc.values
    rhs = space.gs.add(space.coef.mass * forcing - apply_op(lift)) * mask

    def amul(u: Array) -> Array:
        return space.gs.add(apply_op(u)) * mask

    pre = JacobiPrecond(space, 1.0, 0.0, mask=mask)
    cg = ConjugateGradient(amul, space.gs.dot, precond=pre, tol=tol, maxiter=maxiter)
    u0, mon = cg.solve(rhs)
    u = u0 + lift
    exact = space.interpolate(mms.solution)
    err = space.relative_l2_error(u, exact)
    return EllipticSolveResult(
        error=err, iterations=mon.iterations, converged=mon.converged, monitor=mon
    )


def solve_poisson_mms(
    space: FunctionSpace,
    mms: SteadyMMS,
    tol: float = 1e-12,
    maxiter: int = 2000,
) -> EllipticSolveResult:
    """Solve ``-lap u = f`` with manufactured Dirichlet data and forcing."""
    forcing = np.asarray(mms.poisson_forcing(space.x, space.y, space.z))

    def op(u: Array) -> Array:
        return ax_poisson(u, space.coef, space.dx)

    return _lifted_elliptic_solve(space, mms, op, forcing, tol, maxiter)


def solve_helmholtz_mms(
    space: FunctionSpace,
    mms: SteadyMMS,
    h1: float = 1.0,
    h2: float = 10.0,
    tol: float = 1e-12,
    maxiter: int = 2000,
) -> EllipticSolveResult:
    """Solve ``-h1 lap u + h2 u = f`` with manufactured data and forcing."""
    forcing = np.asarray(mms.helmholtz_forcing(space.x, space.y, space.z, h1, h2))

    def op(u: Array) -> Array:
        return ax_helmholtz(u, space.coef, space.dx, h1, h2)

    return _lifted_elliptic_solve(space, mms, op, forcing, tol, maxiter)


# -- preconditioner factory --------------------------------------------------

#: Preconditioner names accepted by :func:`make_preconditioner`, each paired
#: with the Krylov method it is symmetric/valid for.
PRECONDITIONERS: tuple[str, ...] = ("none", "jacobi", "fdm", "schwarz", "hsmg")


def make_preconditioner(
    name: str, space: FunctionSpace, mask: Array
) -> tuple[Callable[[Array], Array] | None, str]:
    """Build preconditioner ``name``; returns ``(apply, recommended_solver)``.

    ``recommended_solver`` is ``"cg"`` for preconditioners symmetric with
    respect to the gather--scatter inner product (identity, Jacobi) and
    ``"gmres"`` for the Schwarz family -- the overlap/ghost exchange makes
    those non-symmetric, and CG silently diverges with them (observed:
    2000 iterations without convergence), exactly why the production
    pressure solve uses GMRES + HSMG.
    """

    def masked(apply: Callable[[Array], Array]) -> Callable[[Array], Array]:
        def wrapped(r: Array) -> Array:
            return apply(r) * mask

        return wrapped

    if name == "none":
        return None, "cg"
    if name == "jacobi":
        return JacobiPrecond(space, 1.0, 0.0, mask=mask), "cg"
    if name == "fdm":
        return masked(FastDiagonalization(space)), "gmres"
    if name == "schwarz":
        return masked(SchwarzSmoother(space, mask=mask)), "gmres"
    if name == "hsmg":
        # Pin the paper's configuration (10-iteration CG coarse solve):
        # the iteration-count regression bands reference this variant, not
        # the production direct-coarse fast path.
        return (
            masked(
                HybridSchwarzMultigrid(
                    space, mask=mask, coarse_iterations=10, coarse_method="cg"
                )
            ),
            "gmres",
        )
    raise ValueError(f"unknown preconditioner {name!r}; options: {PRECONDITIONERS}")


def solve_poisson_mms_preconditioned(
    space: FunctionSpace,
    mms: SteadyMMS,
    precond: str,
    tol: float = 1e-10,
    maxiter: int = 2000,
) -> EllipticSolveResult:
    """Poisson MMS solve through :func:`make_preconditioner`.

    Used by the iteration-count regression tests and the CLI: the error
    assertion proves the preconditioned solve converges to the *right*
    answer, the iteration count pins the preconditioner's strength.
    """
    bc = DirichletBC(space, space.mesh.boundary_labels(), mms.solution)
    mask, lift = bc.mask, bc.values
    forcing = np.asarray(mms.poisson_forcing(space.x, space.y, space.z))
    rhs = space.gs.add(
        space.coef.mass * forcing - ax_poisson(lift, space.coef, space.dx)
    ) * mask

    def amul(u: Array) -> Array:
        return space.gs.add(ax_poisson(u, space.coef, space.dx)) * mask

    pre, method = make_preconditioner(precond, space, mask)
    if method == "cg":
        solver: ConjugateGradient | Gmres = ConjugateGradient(
            amul, space.gs.dot, precond=pre, tol=tol, maxiter=maxiter
        )
    else:
        solver = Gmres(amul, space.gs.dot, precond=pre, tol=tol, maxiter=maxiter)
    u0, mon = solver.solve(rhs)
    u = u0 + lift
    exact = space.interpolate(mms.solution)
    err = space.relative_l2_error(u, exact)
    return EllipticSolveResult(
        error=err, iterations=mon.iterations, converged=mon.converged, monitor=mon
    )


# -- temporal MMS problems ---------------------------------------------------


@dataclass
class ScalarTemporalMMSProblem:
    """Advection--diffusion temporal-order study problem.

    Integrates the manufactured temperature on a periodic box with a
    prescribed (exact) advecting velocity; the spatial resolution
    (``lx = 10`` on ``2^3`` elements of the length-2 box) puts the spatial
    error floor near 4e-8, far below the temporal errors measured at the
    study's step sizes, so the fitted slope is purely temporal.
    """

    kappa: float = 0.05
    lx: int = 10
    nelem: int = 2
    t_final: float = 0.1

    mms: ScalarAdvectionDiffusionMMS = field(init=False)

    def __post_init__(self) -> None:
        self.mms = ScalarAdvectionDiffusionMMS(kappa=self.kappa)

    def run(self, order: int, dt: float) -> float:
        """Max-over-trajectory relative L^2 temperature error."""
        from repro.timeint.bdf_ext import TimeScheme

        space = periodic_box_space(self.nelem, self.lx)
        # kappa = 1/sqrt(Ra Pr) with Pr = 1  =>  Ra = 1/kappa^2.
        cfg = CaseConfig(
            space.mesh,
            lx=self.lx,
            rayleigh=1.0 / self.kappa**2,
            prandtl=1.0,
            dt=dt,
            time_order=order,
            temperature_tol=1e-13,
            dealias=False,
        )
        scheme = TimeScheme(order)
        scalar = ScalarScheme(space, cfg, scheme)
        b = space.coef.mass
        x, y, z = space.x, space.y, space.z
        mms = self.mms
        t0 = 0.0

        def weak_forcing(t: float) -> Array:
            uj = mms.velocity(x, y, z, t)
            Tj = mms.temperature(x, y, z, t)
            conv = convective_term_collocated(uj[0], uj[1], uj[2], Tj, space.coef, space.dx)
            return -b * conv + b * mms.source(x, y, z, t)

        scalar.prime_history(
            lambda t: mms.temperature(x, y, z, t), weak_forcing, t0=t0, dt=dt
        )

        t = t0
        nsteps = round(self.t_final / dt)
        err = 0.0
        for _ in range(nsteps):
            vel = mms.velocity(x, y, z, t)
            scalar.step(vel, source_weak=b * mms.source(x, y, z, t))
            scheme.advance()
            t += dt
            exact = mms.temperature(x, y, z, t)
            err = max(err, space.relative_l2_error(scalar.temperature, exact))
        return err


@dataclass
class BoussinesqTemporalMMSProblem:
    """Coupled Boussinesq temporal-order study problem.

    Runs the production :class:`~repro.core.fluid.FluidScheme` +
    :class:`~repro.core.scalar.ScalarScheme` pair exactly as
    :class:`~repro.core.simulation.Simulation` does (buoyancy from the
    *computed* temperature, scalar stepped before the fluid), against the
    Taylor--Green manufactured solution.

    The temperature observes the full design order ``k``.  The velocity is
    limited to second order by the incremental pressure-correction
    splitting, so callers should assert ``min(k, 2)`` for it -- that limit
    is a property of the scheme, not a bug, and is documented in
    EXPERIMENTS.md.
    """

    rayleigh: float = 4.0e2
    prandtl: float = 1.0
    lx: int = 10
    nelem: int = 2
    t_final: float = 0.1

    def run(self, order: int, dt: float) -> tuple[float, float]:
        """Max-over-trajectory relative L^2 errors ``(velocity, temperature)``."""
        from repro.timeint.bdf_ext import TimeScheme

        space = periodic_box_space(self.nelem, self.lx)
        cfg = CaseConfig(
            space.mesh,
            lx=self.lx,
            rayleigh=self.rayleigh,
            prandtl=self.prandtl,
            dt=dt,
            time_order=order,
            pressure_tol=1e-11,
            velocity_tol=1e-13,
            temperature_tol=1e-13,
            dealias=False,
            pressure_projection_dim=0,
        )
        mms = BoussinesqMMS(
            viscosity=cfg.viscosity, conductivity=cfg.conductivity
        )
        scheme = TimeScheme(order)
        fluid = FluidScheme(space, cfg, scheme)
        scalar = ScalarScheme(space, cfg, scheme)
        b = space.coef.mass
        x, y, z = space.x, space.y, space.z
        t0 = 0.0

        def fluid_weak_forcing(t: float) -> tuple[Array, Array, Array]:
            # Explicit forcing incl. buoyancy from the *exact* temperature
            # (history priming only; the loop below uses the computed one).
            fx, fy, fz = mms.momentum_forcing(x, y, z, t)
            tj = mms.temperature(x, y, z, t)
            return (b * fx, b * fy, b * (fz + tj))

        def fluid_history_forcing(t: float) -> tuple[Array, Array, Array]:
            uj = mms.velocity(x, y, z, t)
            fw = fluid_weak_forcing(t)
            out = []
            for comp, f in zip(uj, fw):
                conv = convective_term_collocated(
                    uj[0], uj[1], uj[2], comp, space.coef, space.dx
                )
                out.append(-b * conv + f)
            return (out[0], out[1], out[2])

        def scalar_history_forcing(t: float) -> Array:
            uj = mms.velocity(x, y, z, t)
            tj = mms.temperature(x, y, z, t)
            conv = convective_term_collocated(uj[0], uj[1], uj[2], tj, space.coef, space.dx)
            return -b * conv + b * mms.temperature_source(x, y, z, t)

        fluid.prime_history(
            lambda t: mms.velocity(x, y, z, t),
            fluid_history_forcing,
            t0=t0,
            dt=dt,
            pressure=mms.pressure(x, y, z, t0),
        )
        scalar.prime_history(
            lambda t: mms.temperature(x, y, z, t),
            scalar_history_forcing,
            t0=t0,
            dt=dt,
        )

        t = t0
        nsteps = round(self.t_final / dt)
        err_u = err_t = 0.0
        for _ in range(nsteps):
            fx, fy, fz = mms.momentum_forcing(x, y, z, t)
            # Buoyancy from the computed temperature, as Simulation.step does.
            forcing = (b * fx, b * fy, b * (fz + scalar.temperature))
            vel_now = (fluid.u[0], fluid.v[0], fluid.w[0])
            scalar.step(vel_now, source_weak=b * mms.temperature_source(x, y, z, t))
            fluid.step(forcing)
            scheme.advance()
            t += dt

            ue = mms.velocity(x, y, z, t)
            num = np.sqrt(
                sum(
                    space.norm_l2(a - e) ** 2
                    for a, e in zip((fluid.u[0], fluid.v[0], fluid.w[0]), ue)
                )
            )
            den = np.sqrt(sum(space.norm_l2(e) ** 2 for e in ue))
            err_u = max(err_u, float(num / den))
            exact_t = mms.temperature(x, y, z, t)
            err_t = max(err_t, space.relative_l2_error(scalar.temperature, exact_t))
        return err_u, err_t

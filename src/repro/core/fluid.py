"""The P_N-P_N splitting scheme for the incompressible momentum equations.

One step of the Karniadakis-Israeli-Orszag (1991) velocity-correction
scheme, as configured in the paper:

1. Advance the explicit terms: weak-form dealiased advection plus body
   forces (buoyancy), extrapolated with EXT-k, combined with the BDF-k
   history of the velocity.
2. Solve the consistent pressure Poisson equation with GMRES preconditioned
   by the hybrid Schwarz multigrid.  The right-hand side uses the
   integrated-by-parts form ``(grad phi, v*)`` so that the impermeability
   condition on the walls enters naturally (homogeneous Neumann on ``p``).
3. Solve one Helmholtz problem per velocity component with Jacobi-CG.

Deliberate simplification vs. Neko (documented in DESIGN.md): the pressure
uses the first-order homogeneous Neumann condition instead of the full
rotational high-order boundary term.  Integral RBC observables at the
modest Ra accessible here are insensitive to this.
"""

from __future__ import annotations

import numpy as np

from repro.core.case import CaseConfig
from repro.core.timers import RegionTimers
from repro.observability.phases import (
    PHASE_ADVECTION,
    PHASE_PRESSURE,
    PHASE_VELOCITY,
)
from repro.precond.hsmg import HybridSchwarzMultigrid
from repro.precond.jacobi import JacobiPrecond
from repro.sem.bc import BoundaryMask
from repro.sem.dealias import Dealiaser
from repro.sem.operators import (
    ax_helmholtz,
    ax_poisson,
    convective_term_collocated,
    divergence,
    physical_grad,
    weak_gradient_transpose,
)
from repro.sem.space import FunctionSpace
from repro.solvers.cg import ConjugateGradient
from repro.solvers.gmres import Gmres
from repro.solvers.monitor import SolverMonitor
from repro.solvers.projection import MeanProjector
from repro.solvers.solution_projection import SolutionProjection
from repro.timeint.bdf_ext import TimeScheme

__all__ = ["FluidScheme"]


class FluidScheme:
    """Velocity/pressure integrator on a shared function space."""

    def __init__(
        self,
        space: FunctionSpace,
        config: CaseConfig,
        scheme: TimeScheme,
        timers: RegionTimers | None = None,
    ) -> None:
        self.space = space
        self.config = config
        self.scheme = scheme
        self.timers = timers if timers is not None else RegionTimers()
        self.nu = config.viscosity
        self.dt = config.dt

        # Velocity Dirichlet mask (no-slip: all components share it).
        if config.no_slip_labels:
            self.vel_mask = BoundaryMask(space, config.no_slip_labels).mask
        else:
            self.vel_mask = np.ones(space.shape)

        self.dealiaser = Dealiaser(space) if config.dealias else None

        # Velocity histories u^{n}, u^{n-1}, u^{n-2} (index 0 = newest) and
        # explicit-term (advection + forcing, weak form) histories.
        self.u = [space.zeros() for _ in range(3)]
        self.v = [space.zeros() for _ in range(3)]
        self.w = [space.zeros() for _ in range(3)]
        self.f_hist: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

        self.p = space.zeros()

        # Pressure solver: GMRES + hybrid Schwarz multigrid, singular
        # (pure-Neumann) with the counting null-space projector.  The
        # operator cache, coarse method and smoother precision are case
        # options (autotuner/fast-path wiring lives in Simulation).
        cache_opt = None if config.operator_cache else False
        self.hsmg = HybridSchwarzMultigrid(
            space,
            mask=None,
            coarse_iterations=config.coarse_iterations,
            overlap=config.schwarz_overlap,
            smoother_dtype=config.smoother_dtype,
            coarse_method=config.coarse_method,
            cache=cache_opt,
        )
        self._pressure_project = MeanProjector.counting(space.gs)

        # The amul closures write into a workspace buffer of their own: the
        # returned array is valid only until the closure's next call (the
        # Krylov solvers consume it within the iteration, and
        # SolutionProjection copies what it keeps).
        p_out = space.workspace.get("amul.pressure", space.shape)

        def p_amul(u: np.ndarray) -> np.ndarray:
            w = ax_poisson(u, space.coef, space.dx, out=p_out)
            return space.gs.add(w, out=w)

        self.pressure_solver = Gmres(
            p_amul,
            space.gs.dot,
            precond=self.hsmg,
            tol=config.pressure_tol,
            maxiter=300,
            restart=config.gmres_restart,
            project_out=self._pressure_project,
            name="pressure",
            tracer=self.timers.tracer,
            dot_weight=space.gs.inv_multiplicity,
        )
        # Previous-solutions projection space (Fischer's technique; Neko's
        # proj_pre): deflates each pressure solve against recent history.
        self.pressure_projection: SolutionProjection | None = None
        if config.pressure_projection_dim > 0:
            self.pressure_projection = SolutionProjection(
                p_amul, space.gs.dot, max_dim=config.pressure_projection_dim
            )

        # Velocity Helmholtz solver (coefficients fixed by dt and order;
        # refreshed when the BDF order ramps).
        self._helmholtz_b0: float | None = None
        self._vel_precond: JacobiPrecond | None = None
        self.monitors: dict[str, SolverMonitor] = {}
        # Times the mixed-precision guard tripped (exported by Simulation
        # as the ``autotune.precision_fallback`` event/metric).
        self.precision_fallbacks = 0

    # -- operators -----------------------------------------------------------

    def _vel_amul(self, h2: float):
        space = self.space
        nu = self.nu
        mask = self.vel_mask

        out = space.workspace.get("amul.velocity", space.shape)

        def amul(u: np.ndarray) -> np.ndarray:
            w = ax_helmholtz(u, space.coef, space.dx, nu, h2, out=out)
            space.gs.add(w, out=w)
            w *= mask
            return w

        return amul

    def set_dt(self, dt: float) -> None:
        """Change the step size (adaptive stepping); operators refresh lazily."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.dt = dt

    def _refresh_helmholtz(self, b0: float) -> None:
        if self._helmholtz_b0 == (b0, self.dt):
            return
        h2 = b0 / self.dt
        if self._vel_precond is None:
            self._vel_precond = JacobiPrecond(
                self.space,
                self.nu,
                h2,
                mask=self.vel_mask,
                cache=None if self.config.operator_cache else False,
            )
        else:
            self._vel_precond.update(self.nu, h2)
        self._vel_solver = ConjugateGradient(
            self._vel_amul(h2),
            self.space.gs.dot,
            precond=self._vel_precond,
            tol=self.config.velocity_tol,
            maxiter=500,
            name="velocity",
            tracer=self.timers.tracer,
        )
        self._helmholtz_b0 = (b0, self.dt)

    def convective_weak(
        self,
        u: np.ndarray,
        c_fine: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Weak-form advection ``(phi, (u . grad) u_comp)`` of one component."""
        cx, cy, cz = self.u[0], self.v[0], self.w[0]
        if self.dealiaser is not None:
            return self.dealiaser.convect_weak(cx, cy, cz, u, c_fine=c_fine)
        conv = convective_term_collocated(cx, cy, cz, u, self.space.coef, self.space.dx)
        return self.space.coef.mass * conv

    def fine_velocity(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Current velocity interpolated to the dealiasing grid (reusable)."""
        if self.dealiaser is None:
            return None
        d = self.dealiaser
        return (d.to_fine(self.u[0]), d.to_fine(self.v[0]), d.to_fine(self.w[0]))

    # -- stepping ------------------------------------------------------------

    def set_velocity(self, ux: np.ndarray, uy: np.ndarray, uz: np.ndarray) -> None:
        """Initialize all history levels with the given field."""
        for hist, val in ((self.u, ux), (self.v, uy), (self.w, uz)):
            for lev in hist:
                lev[:] = val

    def prime_history(
        self,
        velocity_at,
        weak_forcing_at,
        t0: float,
        dt: float,
        pressure: np.ndarray | None = None,
    ) -> None:
        """Fill the multistep histories from known solution/forcing functions.

        ``velocity_at(t)`` returns the three components; ``weak_forcing_at(t)``
        the mass-weighted explicit term per component (advection plus body
        force) as a 3-tuple.  Evaluated at ``t0 - j dt``; the order ramp is
        then skipped.  ``pressure`` seeds the incremental pressure-correction
        predictor -- without it the first pressure increment carries an O(1)
        splitting transient.
        """
        for j in range(len(self.u)):
            uj, vj, wj = velocity_at(t0 - j * dt)
            self.u[j][:], self.v[j][:], self.w[j][:] = uj, vj, wj
        self.f_hist = [
            weak_forcing_at(t0 - j * dt)
            for j in range(1, self.scheme.target_order)
        ]
        if pressure is not None:
            self.p = pressure.copy()
            self._pressure_project(self.p)
        self.scheme.jump_start()

    def step(
        self,
        forcing_weak: tuple[np.ndarray, np.ndarray, np.ndarray],
        c_fine: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> dict[str, SolverMonitor]:
        """Advance the velocity/pressure one time step.

        ``forcing_weak`` is the mass-weighted explicit body force at the
        *current* time level (for RBC: buoyancy ``B * T^n e_z``); it is
        extrapolated together with the advection term.
        """
        space = self.space
        b0, bs = self.scheme.bdf
        ext = self.scheme.ext
        dt = self.dt
        self._refresh_helmholtz(b0)

        with self.timers.region(PHASE_ADVECTION):
            fx = -self.convective_weak(self.u[0], c_fine) + forcing_weak[0]
            fy = -self.convective_weak(self.v[0], c_fine) + forcing_weak[1]
            fz = -self.convective_weak(self.w[0], c_fine) + forcing_weak[2]
            self.f_hist.insert(0, (fx, fy, fz))
            del self.f_hist[3:]

            rhs = []
            for comp, hist in enumerate((self.u, self.v, self.w)):
                r = np.zeros(space.shape)
                for q, aq in enumerate(ext):
                    if q < len(self.f_hist):
                        r += aq * self.f_hist[q][comp]
                for j, bj in enumerate(bs):
                    r += (bj / dt) * space.coef.mass * hist[j]
                rhs.append(r)

        with self.timers.region(PHASE_PRESSURE):
            # Incremental pressure correction: the predictor carries the
            # previous pressure gradient, the Poisson solve yields only the
            # increment dp (second-order splitting, and a much smaller
            # right-hand side for GMRES than solving for the full pressure).
            gpx, gpy, gpz = physical_grad(self.p, space.coef, space.dx)
            vstar = [
                (space.gs.add(r) * space.inv_mass_assembled - gp) * self.vel_mask
                for r, gp in zip(rhs, (gpx, gpy, gpz))
            ]
            rhs_p = space.gs.add(
                weak_gradient_transpose(vstar[0], vstar[1], vstar[2], space.coef, space.dx)
            )
            if self.pressure_projection is not None:
                self._pressure_project(rhs_p)
                dp, mon_p = self.pressure_projection.solve_with(
                    self.pressure_solver, rhs_p
                )
            else:
                dp, mon_p = self.pressure_solver.solve(rhs_p)
            self.p = self.p + dp
            self._pressure_project(self.p)
            # Mixed-precision guard: a float32 smoother whose iteration
            # counts regress beyond the band is swapped back to float64.
            if self.hsmg.observe_iterations(mon_p.iterations):
                self.precision_fallbacks += 1

        with self.timers.region(PHASE_VELOCITY):
            px, py, pz = physical_grad(self.p, space.coef, space.dx)
            b = space.coef.mass
            mons = []
            for comp, (r, gp, hist) in enumerate(
                ((rhs[0], px, self.u), (rhs[1], py, self.v), (rhs[2], pz, self.w))
            ):
                bvec = space.gs.add(r - b * gp) * self.vel_mask
                sol, mon = self._vel_solver.solve(bvec, x0=hist[0] * self.vel_mask)
                mons.append(mon)
                hist.insert(0, sol)
                del hist[3:]

        self.monitors = {
            "pressure": mon_p,
            "velocity_x": mons[0],
            "velocity_y": mons[1],
            "velocity_z": mons[2],
        }
        return self.monitors

    # -- diagnostics -----------------------------------------------------------

    def divergence_norm(self) -> float:
        """Mass-weighted L^2 norm of ``div u`` of the current velocity."""
        d = divergence(self.u[0], self.v[0], self.w[0], self.space.coef, self.space.dx)
        return self.space.norm_l2(d)

    def kinetic_energy(self) -> float:
        """Volume-integrated kinetic energy of the current velocity."""
        sq = self.u[0] ** 2 + self.v[0] ** 2 + self.w[0] ** 2
        return 0.5 * self.space.integrate(sq)

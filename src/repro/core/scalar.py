"""The Boussinesq temperature scalar: advection-diffusion with BDF/EXT.

Dirichlet plates (hot bottom, cold top) enter through lifting: the solve is
performed for the homogeneous correction and the boundary data added back,
so the CG operator stays symmetric.  Insulated side walls are natural
(zero-flux) conditions and need no action.
"""

from __future__ import annotations

import numpy as np

from repro.core.case import CaseConfig
from repro.core.timers import RegionTimers
from repro.observability.phases import PHASE_TEMPERATURE
from repro.precond.jacobi import JacobiPrecond
from repro.sem.bc import DirichletBC
from repro.sem.dealias import Dealiaser
from repro.sem.operators import ax_helmholtz, convective_term_collocated
from repro.sem.space import FunctionSpace
from repro.solvers.cg import ConjugateGradient
from repro.solvers.monitor import SolverMonitor
from repro.timeint.bdf_ext import TimeScheme

__all__ = ["ScalarScheme"]


class ScalarScheme:
    """Temperature integrator sharing the fluid's function space."""

    def __init__(
        self,
        space: FunctionSpace,
        config: CaseConfig,
        scheme: TimeScheme,
        timers: RegionTimers | None = None,
        dealiaser: Dealiaser | None = None,
    ) -> None:
        self.space = space
        self.config = config
        self.scheme = scheme
        self.timers = timers if timers is not None else RegionTimers()
        self.kappa = config.conductivity
        self.dt = config.dt
        self.dealiaser = dealiaser

        # Combined Dirichlet data over all temperature boundaries.
        self.bcs = [
            DirichletBC(space, [lab], val) for lab, val in config.temperature_bcs.items()
        ]
        self.mask = np.ones(space.shape)
        self.lift = np.zeros(space.shape)
        for bc in self.bcs:
            self.mask *= bc.mask
            np.copyto(self.lift, bc.values, where=bc.mask == 0.0)

        self.t_hist = [space.zeros() for _ in range(3)]
        self.f_hist: list[np.ndarray] = []
        self._b0: float | None = None
        self._precond: JacobiPrecond | None = None
        self.monitors: dict[str, SolverMonitor] = {}

    @property
    def temperature(self) -> np.ndarray:
        """The current temperature field."""
        return self.t_hist[0]

    def set_temperature(self, t: np.ndarray) -> None:
        """Initialize all history levels (boundary values enforced)."""
        t = t.copy()
        np.copyto(t, self.lift, where=self.mask == 0.0)
        for lev in self.t_hist:
            lev[:] = t

    def prime_history(
        self,
        temperature_at,
        weak_forcing_at,
        t0: float,
        dt: float,
    ) -> None:
        """Fill the multistep histories from known solution/forcing functions.

        ``temperature_at(t)`` and ``weak_forcing_at(t)`` (the mass-weighted
        explicit term, advection included) are evaluated at ``t0 - j dt``;
        the order ramp is then skipped so the very first step runs at the
        scheme's target order.  Used by restart paths and the MMS
        temporal-order studies, where the ramp's low-order start would
        otherwise dominate the measured convergence rate.
        """
        for j in range(len(self.t_hist)):
            self.t_hist[j][:] = temperature_at(t0 - j * dt)
        self.f_hist = [
            weak_forcing_at(t0 - j * dt)
            for j in range(1, self.scheme.target_order)
        ]
        self.scheme.jump_start()

    def _amul_full(self, u: np.ndarray, h2: float) -> np.ndarray:
        """Assembled, unmasked Helmholtz action into the ``amul.temperature``
        workspace buffer: valid only until the next call."""
        space = self.space
        out = space.workspace.get("amul.temperature", space.shape)
        ax_helmholtz(u, space.coef, space.dx, self.kappa, h2, out=out)
        return space.gs.add(out, out=out)

    def set_dt(self, dt: float) -> None:
        """Change the step size (adaptive stepping); operators refresh lazily."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.dt = dt

    def _refresh(self, b0: float) -> None:
        if self._b0 == (b0, self.dt):
            return
        h2 = b0 / self.dt
        if self._precond is None:
            self._precond = JacobiPrecond(self.space, self.kappa, h2, mask=self.mask)
        else:
            self._precond.update(self.kappa, h2)

        def amul(u: np.ndarray) -> np.ndarray:
            w = self._amul_full(u, h2)
            w *= self.mask
            return w

        self._solver = ConjugateGradient(
            amul,
            self.space.gs.dot,
            precond=self._precond,
            tol=self.config.temperature_tol,
            maxiter=500,
            name="temperature",
            tracer=self.timers.tracer,
        )
        self._b0 = (b0, self.dt)

    def step(
        self,
        velocity: tuple[np.ndarray, np.ndarray, np.ndarray],
        c_fine: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
        source_weak: np.ndarray | None = None,
    ) -> dict[str, SolverMonitor]:
        """Advance the temperature one step, advected by ``velocity``."""
        space = self.space
        b0, bs = self.scheme.bdf
        ext = self.scheme.ext
        dt = self.dt
        self._refresh(b0)

        with self.timers.region(PHASE_TEMPERATURE):
            cx, cy, cz = velocity
            if self.dealiaser is not None:
                adv = self.dealiaser.convect_weak(cx, cy, cz, self.t_hist[0], c_fine=c_fine)
            else:
                conv = convective_term_collocated(
                    cx, cy, cz, self.t_hist[0], space.coef, space.dx
                )
                adv = space.coef.mass * conv
            f = -adv
            if source_weak is not None:
                f = f + source_weak
            self.f_hist.insert(0, f)
            del self.f_hist[3:]

            rhs = np.zeros(space.shape)
            for q, aq in enumerate(ext):
                if q < len(self.f_hist):
                    rhs += aq * self.f_hist[q]
            for j, bj in enumerate(bs):
                rhs += (bj / dt) * space.coef.mass * self.t_hist[j]

            # Lifting of the inhomogeneous Dirichlet data.
            h2 = b0 / dt
            bvec = (space.gs.add(rhs) - self._amul_full(self.lift, h2)) * self.mask
            guess = (self.t_hist[0] - self.lift) * self.mask
            theta, mon = self._solver.solve(bvec, x0=guess)
            t_new = theta * self.mask + self.lift
            self.t_hist.insert(0, t_new)
            del self.t_hist[3:]

        self.monitors = {"temperature": mon}
        return self.monitors

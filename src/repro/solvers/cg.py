"""Preconditioned conjugate-gradient solver.

Matches the paper's velocity/temperature configuration: CG with a (block-)
Jacobi preconditioner.  The operator, preconditioner and inner product are
injected as callables, mirroring Neko's abstract ``ax``/``pc``/``glsc3``
interfaces, so the same solver runs on the plain arrays of one space and
on the distributed rank simulator.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import numpy.typing as npt

from repro.observability.tracer import NULL_TRACER, TracerProtocol
from repro.solvers.monitor import SolverMonitor

__all__ = ["ConjugateGradient"]

FloatArray = npt.NDArray[np.float64]
Operator = Callable[[FloatArray], FloatArray]
Dot = Callable[[FloatArray, FloatArray], float]


def _identity(r: FloatArray) -> FloatArray:
    """Unpreconditioned default: ``M^{-1} = I``."""
    return r


class ConjugateGradient:
    """CG for symmetric positive-definite systems ``A x = b``.

    Parameters
    ----------
    amul:
        The (assembled, masked) operator action.
    dot:
        Inner product consistent with the storage layout.
    precond:
        Optional preconditioner action ``z = M^{-1} r``; must be SPD.
    tol, maxiter:
        Relative residual tolerance and iteration cap.
    fixed_iterations:
        When set, run exactly this many iterations with *no* convergence
        test -- the mode the paper uses for the coarse-grid solve ("a fixed
        number of iterations (~10)"), which avoids the extra allreduce of a
        residual norm per iteration.
    """

    def __init__(
        self,
        amul: Operator,
        dot: Dot,
        precond: Operator | None = None,
        tol: float = 1e-8,
        maxiter: int = 500,
        fixed_iterations: int | None = None,
        atol: float = 1e-30,
        name: str = "cg",
        tracer: TracerProtocol | None = None,
    ) -> None:
        self.amul = amul
        self.dot = dot
        self.precond: Operator = precond if precond is not None else _identity
        self.tol = tol
        self.atol = atol
        self.maxiter = maxiter
        self.fixed_iterations = fixed_iterations
        self.name = name
        self.tracer: TracerProtocol = tracer if tracer is not None else NULL_TRACER

    def solve(
        self, b: FloatArray, x0: FloatArray | None = None
    ) -> tuple[FloatArray, SolverMonitor]:
        """Solve ``A x = b``; returns the solution and a convergence monitor."""
        if not self.tracer.enabled:
            return self._solve(b, x0)
        with self.tracer.span(f"krylov.{self.name}") as sp:
            x, mon = self._solve(b, x0)
            sp.add("iterations", mon.iterations)
            sp.tags["converged"] = mon.converged
            sp.tags["final_residual"] = mon.final_residual
            return x, mon

    def _solve(
        self, b: FloatArray, x0: FloatArray | None = None
    ) -> tuple[FloatArray, SolverMonitor]:
        mon = SolverMonitor(tol=self.tol, atol=self.atol, name=self.name)
        x = np.zeros_like(b) if x0 is None else x0.copy()

        r = b - self.amul(x) if x0 is not None else b.copy()
        z = self.precond(r)
        rho = self.dot(r, z)
        rnorm = float(np.sqrt(max(self.dot(r, r), 0.0)))

        if self.fixed_iterations is None and mon.start(rnorm):
            return x, mon
        if self.fixed_iterations is not None:
            mon.start(rnorm)

        p = z.copy()
        # One scratch vector per solve for the axpys: ``np.multiply(p,
        # alpha, out=tmp); x += tmp`` is bitwise ``x += alpha * p`` without
        # a temporary per iteration.  ``ap`` may be the operator's own
        # buffer (valid until its next call); it is consumed here.
        tmp = np.empty_like(p)
        niter = self.fixed_iterations if self.fixed_iterations is not None else self.maxiter
        for _ in range(niter):
            ap = self.amul(p)
            pap = self.dot(p, ap)
            if pap <= 0.0:
                # Operator lost positive-definiteness (breakdown); bail with
                # the best iterate so far rather than diverging silently.
                break
            alpha = rho / pap
            np.multiply(p, alpha, out=tmp)
            x += tmp
            np.multiply(ap, alpha, out=tmp)
            r -= tmp
            if self.fixed_iterations is None:
                rnorm = float(np.sqrt(max(self.dot(r, r), 0.0)))
                if mon.step(rnorm):
                    break
            z = self.precond(r)
            rho_new = self.dot(r, z)
            beta = rho_new / rho
            rho = rho_new
            # In-place recurrence update: beta*p + z is bitwise identical
            # to z + beta*p and reuses p's buffer instead of allocating.
            p *= beta
            p += z
        if self.fixed_iterations is not None:
            rnorm = float(np.sqrt(max(self.dot(r, r), 0.0)))
            mon.step(rnorm)
        return x, mon

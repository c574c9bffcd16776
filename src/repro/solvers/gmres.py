"""Restarted GMRES with right preconditioning.

The paper's pressure solve: "the pressure is solved through a hybrid-Schwarz
multigrid preconditioner combined with GMRES".  Right preconditioning keeps
the GMRES residual equal to the true residual of ``A x = b``, so the
stopping criterion does not depend on the quality of the preconditioner.
An optional null-space projector keeps the iteration orthogonal to the
constant mode of the pure-Neumann pressure problem.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import numpy.typing as npt

from repro.observability.tracer import NULL_TRACER, TracerProtocol
from repro.sem.workspace import Workspace
from repro.solvers.monitor import SolverMonitor

__all__ = ["Gmres"]

FloatArray = npt.NDArray[np.float64]
Operator = Callable[[FloatArray], FloatArray]
Dot = Callable[[FloatArray, FloatArray], float]


def _copy(r: FloatArray) -> FloatArray:
    """Unpreconditioned default: ``M^{-1} = I`` (fresh copy, callers mutate)."""
    return r.copy()


def _no_projection(u: FloatArray) -> FloatArray:
    """Default null-space projector: the problem is nonsingular."""
    return u


class Gmres:
    """GMRES(m) for general nonsingular (or consistently singular) systems.

    Parameters
    ----------
    amul, dot, precond:
        Operator action, inner product and right preconditioner ``M^{-1}``.
    restart:
        Krylov subspace dimension per cycle (Neko's default is 30; the
        pressure solve typically converges well within one cycle).
    project_out:
        Optional in-place null-space projector applied to the right-hand
        side, to every preconditioned direction and to the solution --
        removes the constant pressure mode.
    dot_weight:
        Optional pointwise weight ``W`` such that
        ``dot(u, v) == sum(u * W * v)`` (the gather--scatter counting
        weight).  When given, the Arnoldi basis is kept in a dense
        ``(m+1, n)`` matrix (plus a ``W``-scaled copy) and each
        orthogonalization runs as *reorthogonalized classical
        Gram--Schmidt* (CGS2): two gemv projections instead of ``k + 1``
        Python-level triple-product dots and axpys.  CGS2 is as robust as
        modified Gram--Schmidt in practice (the standard choice in
        performance-oriented Krylov implementations) and must be
        consistent with ``dot``; residual histories agree to rounding.
    """

    def __init__(
        self,
        amul: Operator,
        dot: Dot,
        precond: Operator | None = None,
        tol: float = 1e-7,
        maxiter: int = 300,
        restart: int = 30,
        project_out: Callable[[FloatArray], FloatArray] | None = None,
        atol: float = 1e-30,
        name: str = "gmres",
        tracer: TracerProtocol | None = None,
        dot_weight: FloatArray | None = None,
    ) -> None:
        self.amul = amul
        self.dot = dot
        self.dot_weight = dot_weight
        self.precond: Operator = precond if precond is not None else _copy
        self.tol = tol
        self.atol = atol
        self.maxiter = maxiter
        self.restart = restart
        self.project_out: Callable[[FloatArray], FloatArray] = (
            project_out if project_out is not None else _no_projection
        )
        self.name = name
        self.tracer: TracerProtocol = tracer if tracer is not None else NULL_TRACER
        # Krylov storage kept across solves (see _solve); copies and
        # pickles of the solver start without it.
        self._workspace = Workspace()

    def _norm(self, u: FloatArray) -> float:
        if self.dot_weight is not None:
            d = float(np.dot((u * self.dot_weight).reshape(-1), u.reshape(-1)))
            return float(np.sqrt(max(d, 0.0)))
        return float(np.sqrt(max(self.dot(u, u), 0.0)))

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
        b = self.project_out(b.copy())
        x = np.zeros_like(b) if x0 is None else x0.copy()

        r = b - self.amul(x) if x0 is not None else b.copy()
        self.project_out(r)
        beta = self._norm(r)
        if mon.start(beta):
            return x, mon
        target = max(self.tol * beta, mon.atol)

        weight = self.dot_weight
        wf = weight.reshape(-1) if weight is not None else None
        shape = b.shape
        total_iters = 0
        # Storage kept on the solver across solves and restart cycles: the
        # preconditioned directions as rows of a (restart, n) matrix, a
        # projection/axpy vector and, for the weighted fast path, the
        # (restart+1, n) basis matrix and a weighting vector.  A solve
        # touches only the rows it reaches, and later solves allocate none.
        ws, n = self._workspace, b.size
        zmat = ws.get("directions", (self.restart, n))
        proj = ws.get("proj", (n,))
        vmat_ws: FloatArray | None = None
        ww: FloatArray | None = None
        if weight is not None and wf is not None:
            vmat_ws = ws.get("basis", (self.restart + 1, n))
            ww = ws.get("ww", (n,))
        while total_iters < self.maxiter:
            m = min(self.restart, self.maxiter - total_iters)
            # Arnoldi basis and Hessenberg matrix.  The weighted fast path
            # keeps the basis as rows of a dense (m+1, n) matrix ``vmat``
            # so each orthogonalization is a pair of gemvs on the *same*
            # matrix (the W-weighting is folded into the right-hand vector:
            # V^T W w = V^T (W.w), so no scaled basis copy is kept -- that
            # would double the memory traffic of every gemv); the generic
            # path keeps element-layout vectors.
            v: list[FloatArray] = []
            vmat: FloatArray | None = None
            if vmat_ws is not None:
                vmat = vmat_ws[: m + 1]
                np.divide(r.reshape(-1), beta, out=vmat[0])
            else:
                v = [r / beta]
            # Hessenberg columns, Givens coefficients and the reduced RHS
            # live as Python floats: the recurrences are sequential scalar
            # arithmetic, where single-element ndarray indexing costs ~50x
            # a float op and dominated the per-iteration overhead.
            hcols: list[list[float]] = []
            g: list[float] = [beta] + [0.0] * m
            cs: list[float] = [0.0] * m
            sn: list[float] = [0.0] * m
            k_done = 0

            for k in range(m):
                vk = vmat[k].reshape(shape) if vmat is not None else v[k]
                z = self.precond(vk)
                self.project_out(z)
                zmat[k] = z.reshape(-1)
                w = self.amul(z)
                self.project_out(w)
                if vmat is not None and ww is not None:
                    # Classical Gram-Schmidt with DGKS selective
                    # reorthogonalization: one gemv pair per iteration, and a
                    # second pass only when the projection removed most of the
                    # vector (h_next^2 < ||w_before||^2 / 2), the standard
                    # "twice is enough" criterion.  The test reuses already
                    # computed quantities: ||w_before||^2 = h_next^2 + |hcol|^2.
                    wflat = np.ascontiguousarray(w.reshape(-1))
                    np.multiply(wflat, wf, out=ww)
                    hcol = vmat[: k + 1] @ ww
                    wflat -= np.matmul(hcol, vmat[: k + 1], out=proj)
                    hc = hcol.tolist()
                    np.multiply(wflat, wf, out=ww)
                    h2 = float(max(np.dot(ww, wflat), 0.0))
                    if 2.0 * h2 < h2 + float(np.dot(hcol, hcol)):
                        corr = vmat[: k + 1] @ ww
                        wflat -= np.matmul(corr, vmat[: k + 1], out=proj)
                        for i, ci in enumerate(corr.tolist()):
                            hc[i] += ci
                        np.multiply(wflat, wf, out=ww)
                        h2 = float(max(np.dot(ww, wflat), 0.0))
                    h_next = float(np.sqrt(h2))
                    w = wflat.reshape(shape)
                else:
                    # Modified Gram-Schmidt.
                    hc = []
                    for i in range(k + 1):
                        hik = float(self.dot(w, v[i]))
                        hc.append(hik)
                        w -= hik * v[i]
                    h_next = self._norm(w)
                hc.append(h_next)

                # Apply accumulated Givens rotations to the new column.
                for i in range(k):
                    tmp = cs[i] * hc[i] + sn[i] * hc[i + 1]
                    hc[i + 1] = -sn[i] * hc[i] + cs[i] * hc[i + 1]
                    hc[i] = tmp
                denom = float(np.hypot(hc[k], hc[k + 1]))
                if denom == 0.0:
                    hcols.append(hc)
                    k_done = k + 1
                    break
                cs[k] = hc[k] / denom
                sn[k] = hc[k + 1] / denom
                hc[k] = denom
                hc[k + 1] = 0.0
                hcols.append(hc)
                g[k + 1] = -sn[k] * g[k]
                g[k] = cs[k] * g[k]

                k_done = k + 1
                total_iters += 1
                res = abs(g[k + 1])
                mon.step(res)
                if res <= target or h_next == 0.0:
                    break
                if k + 1 < m:
                    if vmat is not None:
                        np.divide(w.reshape(-1), h_next, out=vmat[k + 1])
                    else:
                        v.append(w / h_next)

            # Back substitution for the small triangular system (a zero
            # pivot signals exact breakdown; drop that direction).
            y = [0.0] * k_done
            for i in range(k_done - 1, -1, -1):
                if hcols[i][i] == 0.0:
                    continue
                s = g[i]
                for j in range(i + 1, k_done):
                    s -= hcols[j][i] * y[j]
                y[i] = s / hcols[i][i]
            xflat = x.reshape(-1)
            for i in range(k_done):
                np.multiply(zmat[i], y[i], out=proj)
                xflat += proj
            self.project_out(x)

            r = b - self.amul(x)
            self.project_out(r)
            beta = self._norm(r)
            # True-residual check (guards against Arnoldi loss of orthogonality).
            mon.residuals[-1] = beta
            mon.converged = beta <= target
            if mon.converged or k_done == 0:
                break
        return x, mon

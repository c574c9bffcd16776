"""3/2-rule dealiasing (overintegration) of the convective term.

The quadratic nonlinearity ``(c . grad) u`` is evaluated on a finer GLL grid
with ``lxd = ceil(3 lx / 2)`` points per direction and projected back, which
removes the aliasing errors that destabilize marginally-resolved turbulence
-- exactly the treatment the paper reports ("dealiasing (overintegration)
according to the 3/2-rule").

The interpolation operators and the fine-grid metric factors are
precomputed once per space and reused every step; applying the operator is
three batched ``matmul`` sweeps per direction, the same tensor-contraction
structure as the coarse-grid kernels.
"""

from __future__ import annotations

import numpy as np

from repro.sem.basis import lagrange_interpolation_matrix
from repro.sem.coef import sum_of_products, tensor_derivatives_stacked
from repro.sem.quadrature import gll_points_weights
from repro.sem.space import FunctionSpace
from repro.sem.workspace import Workspace

__all__ = ["Dealiaser", "interp3", "interp3_into", "interp3_transpose"]


def interp3(u: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Apply a 1-D operator ``j`` along all three tensor directions.

    ``u`` has shape ``(nelv, m, m, m)`` and ``j`` shape ``(p, m)``; the
    result is a new ``(nelv, p, p, p)`` array.  Hot paths call
    :func:`interp3_into` with their own output and workspace.
    """
    nelv, p = u.shape[0], j.shape[0]
    out = np.empty((nelv, p, p, p), np.result_type(u, j))
    return interp3_into(u, j, out, Workspace())


def interp3_into(u: np.ndarray, j: np.ndarray, out: np.ndarray, ws: Workspace) -> np.ndarray:
    """:func:`interp3` into ``out`` (C-contiguous, not aliasing ``u``).

    The two intermediate sweeps use the ``interp.t1``/``interp.t2``
    buffers of ``ws``.
    """
    nelv, m = u.shape[0], u.shape[-1]
    p = j.shape[0]
    v1 = ws.get("interp.t1", (nelv, m, m, p), out.dtype)
    # i sweep as one (nelv*m*m, m) x (m, p) BLAS product.
    np.matmul(u.reshape(-1, m), np.ascontiguousarray(j.T), out=v1.reshape(-1, p))
    v2 = ws.get("interp.t2", (nelv, m, p, p), out.dtype)
    np.matmul(j, v1, out=v2)                                          # j
    np.matmul(j, v2.reshape(nelv, m, p * p), out=out.reshape(nelv, p, p * p))  # k
    return out


def interp3_transpose(u: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`interp3` (projection from the fine grid back)."""
    return interp3(u, j.T.copy())


#: Elements per block of the fine-grid sweeps.  Everything between the
#: coarse input and the coarse output of the dealiased operator is
#: element-local, so it runs block by block on block-sized workspace
#: buffers: the fine-grid scratch stays cache-resident and the space keeps
#: a few blocks resident instead of several fine fields.  Per element the
#: arithmetic (one batched ``matmul`` per element, pointwise products) is
#: the same for any block size, so results do not depend on it.
BLOCK_ELEMENTS = 16


class Dealiaser:
    """Dealiased convective operator for one function space.

    Parameters
    ----------
    space:
        The coarse (solution) function space.  Its workspace holds the
        block-sized fine-grid scratch of every method (``dealias.*`` and
        ``interp.*`` buffers).
    lxd:
        Number of fine-grid points per direction; defaults to the 3/2 rule.
    """

    def __init__(self, space: FunctionSpace, lxd: int | None = None) -> None:
        self.space = space
        lx = space.lx
        self.lxd = lxd if lxd is not None else (3 * lx + 1) // 2
        if self.lxd < lx:
            raise ValueError(f"fine grid lxd={self.lxd} must be >= lx={lx}")
        fine_pts, fine_w = gll_points_weights(self.lxd)
        self.interp = lagrange_interpolation_matrix(np.asarray(fine_pts), lx)
        self._interp_t = self.interp.T.copy()
        self._blocks = [
            slice(e, min(e + BLOCK_ELEMENTS, space.nelv))
            for e in range(0, space.nelv, BLOCK_ELEMENTS)
        ]
        self._fine_shape = (space.nelv,) + (self.lxd,) * 3

        coef = space.coef
        # Fine-grid inverse-map metrics: for each physical direction k the
        # live (coef.live.inv) pairs (a, dr_a/dx_k on the fine grid); the
        # structurally zero ones would interpolate to all-zero arrays and
        # are not kept.  The interpolation of the coarse-grid metrics is
        # exact for affine elements and spectrally accurate for the blended
        # cylinder maps.
        inv, live = coef.inverse_metrics(), coef.live.inv
        self._metrics = tuple(
            tuple((a, interp3(inv[a][k], self.interp)) for a in range(3) if live[a][k])
            for k in range(3)
        )
        jac_d = interp3(coef.jac, self.interp)
        w = np.asarray(fine_w)
        w3 = w[None, :, None, None] * w[None, None, :, None] * w[None, None, None, :]
        self.mass_d = w3 * jac_d

    def to_fine(self, u: np.ndarray) -> np.ndarray:
        """Interpolate a coarse nodal field to the fine grid (new array)."""
        ws = self.space.workspace
        out = np.empty(self._fine_shape)
        for blk in self._blocks:
            interp3_into(u[blk], self.interp, out[blk], ws)
        return out

    def project_weak(self, u_fine: np.ndarray) -> np.ndarray:
        """Multiply by the fine mass and project back (weak-form data)."""
        out = np.empty((u_fine.shape[0],) + (self.space.lx,) * 3)
        return interp3_into(self.mass_d * u_fine, self._interp_t, out, self.space.workspace)

    def _ref_grad_fine(self, u: np.ndarray) -> np.ndarray:
        """Reference-space derivatives of a block ``u`` on the fine grid.

        Differentiates on the coarse grid (where the polynomial lives) and
        interpolates -- the standard Nek/Neko ordering, which keeps the
        result exact for polynomial data.  Returns the stacked
        ``dealias.ud`` workspace buffer.
        """
        ws = self.space.workspace
        du = ws.get("dealias.du", (3,) + u.shape)
        tensor_derivatives_stacked(u, np.asarray(self.space.dx), du)
        p = self.lxd
        ud = ws.get("dealias.ud", (3, u.shape[0], p, p, p))
        for d in range(3):
            interp3_into(du[d], self.interp, ud[d], ws)
        return ud

    def _physical(
        self, ud: np.ndarray, k: int, blk: slice, out: np.ndarray, tmp: np.ndarray
    ) -> np.ndarray:
        """``du/dx_k`` of block ``blk`` on the fine grid into ``out``.

        Sums ``ud[a] * dr_a/dx_k`` over the live metrics only.
        """
        return sum_of_products(out, [(ud[a], m[blk]) for a, m in self._metrics[k]], tmp)

    def grad_fine(
        self, u: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Physical gradient of a coarse field, evaluated on the fine grid.

        Differentiates on the coarse grid and interpolates the
        reference-space derivatives, then applies the fine metrics.
        Returns three new arrays.
        """
        grads = tuple(np.empty(self._fine_shape) for _ in range(3))
        for blk in self._blocks:
            ud = self._ref_grad_fine(u[blk])
            tmp = self.space.workspace.get("dealias.tmp", ud.shape[1:])
            for k, g in enumerate(grads):
                self._physical(ud, k, blk, g[blk], tmp)
        return grads

    def convect_weak(
        self,
        cx: np.ndarray,
        cy: np.ndarray,
        cz: np.ndarray,
        u: np.ndarray,
        c_fine: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Weak-form dealiased convection ``(v, (c . grad) u)`` (new array).

        ``c_fine`` may carry the convecting velocity already interpolated to
        the fine grid (it is reused across the three momentum components and
        the scalar each step -- the caller-side optimization Neko performs).
        Every fine-grid intermediate is a block-sized workspace buffer; the
        operation order is that of ``cx*dudx + cy*dudy + cz*dudz`` with
        ``dudx = ur*drdx + us*dsdx + ut*dtdx``, so results are bitwise
        those of the whole-field array-expression form (the structurally
        zero metric terms it skips are exact zeros).
        """
        if c_fine is None:
            c_fine = (self.to_fine(cx), self.to_fine(cy), self.to_fine(cz))
        ws = self.space.workspace
        out = np.empty(u.shape)
        for blk in self._blocks:
            ud = self._ref_grad_fine(u[blk])
            fshape = ud.shape[1:]
            adv = ws.get("dealias.adv", fshape)
            g = ws.get("dealias.g", fshape)
            tmp = ws.get("dealias.tmp", fshape)
            self._physical(ud, 0, blk, adv, tmp)
            adv *= c_fine[0][blk]
            for k in (1, 2):
                self._physical(ud, k, blk, g, tmp)
                g *= c_fine[k][blk]
                adv += g
            adv *= self.mass_d[blk]
            interp3_into(adv, self._interp_t, out[blk], ws)
        return out

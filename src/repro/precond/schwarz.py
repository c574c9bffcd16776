"""Additive overlapping Schwarz smoother (the fine level of eq. (3)).

Applies the per-element FDM inverse to the residual, combines the
overlapping contributions additively with counting weights and restores
C^0 continuity with a gather--scatter sum.

Two variants are provided:

* ``overlap=False`` (default): zero-Dirichlet ghost caps one grid spacing
  outside the element and no neighbour data; one tensor solve on ``lx^3``
  arrays.  Empirically the better conditioned of the two variants here
  (all eigenvalues of ``M^{-1} A`` positive, condition number independent
  of the element count).
* ``overlap=True``: the classic one-layer overlapping Schwarz.  Each
  element's local domain is extended by one grid point into its face
  neighbours; the residual at those ghost points is *real neighbour data*,
  gathered with the extrude/dssum/subtract-own trick that Nek5000 and Neko
  use (write your own depth-1 plane onto the shared face, dssum, subtract
  your contribution -- what remains is the neighbour's depth-1 value), and
  the local ghost corrections are returned to the neighbours through the
  transpose exchange.  Ghost values along extension edges/corners are
  zeroed, as in Nek5000.
"""

from __future__ import annotations

import numpy as np

from repro.precond.cache import CacheKey, OperatorCache, resolve_cache
from repro.precond.fdm import FastDiagonalization
from repro.sem.space import FunctionSpace

__all__ = ["SchwarzSmoother"]


class SchwarzSmoother:
    """One additive-Schwarz application ``z = sum_k R_k^T A_k^{-1} R_k r``.

    Parameters
    ----------
    space:
        Function space of the level this smoother acts on.
    mask:
        Optional Dirichlet mask applied before and after the local solves.
    damping:
        Scales the correction; with counting weights a value near 1 is
        appropriate for the Poisson problem.
    overlap:
        Use the one-layer data overlap (see module docstring).
    dtype:
        Precision of the local FDM solves (``np.float32`` for the
        mixed-precision smoother); the exchange and weighting stay float64.
    cache:
        Operator-cache handle forwarded to the FDM setup and used for the
        overlap counting weights (``None`` = process-wide cache).
    """

    def __init__(
        self,
        space: FunctionSpace,
        mask: np.ndarray | None = None,
        damping: float = 1.0,
        overlap: bool = False,
        dtype: np.dtype | str | type = np.float64,
        cache: OperatorCache | bool | None = None,
    ) -> None:
        self.space = space
        self.mask = mask
        self.damping = damping
        self.overlap = overlap
        self.dtype = np.dtype(dtype)
        self.fdm = FastDiagonalization(space, overlap=overlap, dtype=dtype, cache=cache)
        # Counting weights: each unique dof receives the average of its
        # (possibly overlapping) local solutions.  With overlap, the count
        # includes the ghost-return contributions and is computed
        # empirically by pushing an indicator field through the exchange
        # (Nek5000's ``schwarz_wt`` plays the same role).  The push is a
        # pure function of the connectivity, so it is cached.
        if overlap:
            key = CacheKey.for_space(space, "schwarz_weight[overlap=True]")
            self._weight = resolve_cache(cache).get_or_build(key, self._build_overlap_weight)
            self._sqrt_weight = None
        else:
            self._weight = 1.0 / space.gs.multiplicity
            # Split the counting weight symmetrically around the local
            # solves (Nek5000's ``schwarz_wt`` does the same): the smoother
            # becomes W^{1/2} (sum_k R_k^T A_k^{-1} R_k) W^{1/2}, which is
            # symmetric as an operator and measurably better conditioned
            # than the one-sided post-weighting -- ~12% fewer GMRES
            # iterations on the pure-Neumann pressure problem.
            self._sqrt_weight = np.sqrt(self._weight)
        # Final dssum averages duplicated dofs.
        self._post = 1.0 / space.gs.multiplicity if overlap else None

    def _build_overlap_weight(self) -> np.ndarray:
        ind = self._extended_residual(np.ones(self.space.shape))
        z1 = ind[:, 1:-1, 1:-1, 1:-1].copy()
        self._return_ghosts(z1, ind)
        return 1.0 / z1

    # -- overlap data exchange ----------------------------------------------

    def _extended_residual(self, r: np.ndarray) -> np.ndarray:
        """Extend ``r`` by one ghost layer filled with neighbour data.

        For each of the three tensor directions: write the depth-1 plane
        onto the face, dssum, subtract the own contribution.  Face-interior
        nodes have exactly two duplicates so the remainder is the (single)
        neighbour's depth-1 residual; face-edge nodes mix several neighbours
        and are zeroed, matching Nek5000's treatment of extension edges.
        """
        gs = self.space.gs
        nelv, lx = r.shape[0], r.shape[-1]
        lxe = lx + 2
        re = np.zeros((nelv, lxe, lxe, lxe))
        re[:, 1:-1, 1:-1, 1:-1] = r

        # Scratch plane buffer hoisted out of the axis loop: this runs once
        # per preconditioner application, so the smoother must not allocate
        # per axis.
        w = np.empty_like(r)
        for axis in (1, 2, 3):
            w.fill(0.0)
            lo = [slice(None)] * 4
            hi = [slice(None)] * 4
            lo_in = [slice(None)] * 4
            hi_in = [slice(None)] * 4
            lo[axis], hi[axis] = 0, lx - 1
            lo_in[axis], hi_in[axis] = 1, lx - 2
            w[tuple(lo)] = r[tuple(lo_in)]
            w[tuple(hi)] = r[tuple(hi_in)]
            wa = gs.add(w)
            ghost_lo = wa[tuple(lo)] - w[tuple(lo)]
            ghost_hi = wa[tuple(hi)] - w[tuple(hi)]
            # Zero the edge rings of each ghost plane.
            for plane in (ghost_lo, ghost_hi):
                plane[:, 0, :] = 0.0
                plane[:, -1, :] = 0.0
                plane[:, :, 0] = 0.0
                plane[:, :, -1] = 0.0
            dst_lo = [slice(None), slice(1, -1), slice(1, -1), slice(1, -1)]
            dst_hi = [slice(None), slice(1, -1), slice(1, -1), slice(1, -1)]
            dst_lo[axis] = 0
            dst_hi[axis] = lxe - 1
            re[tuple(dst_lo)] = ghost_lo
            re[tuple(dst_hi)] = ghost_hi
        return re

    def _return_ghosts(self, z: np.ndarray, ze: np.ndarray) -> None:
        """Add each element's ghost-layer solution to its neighbours.

        Transpose of :meth:`_extended_residual`: the correction an element
        computed at its ghost points belongs to the neighbour's depth-1
        nodes.  Transfer with the same face/dssum/subtract-own trick.
        """
        gs = self.space.gs
        lx = z.shape[-1]
        w = np.empty_like(z)  # scratch buffer shared across the axis loop
        # Ghost-plane scratch: the extracted planes have the same
        # (nelv, lx, lx) shape for every axis, so two buffers serve all
        # three passes instead of six fresh copies per application.
        g_lo = np.empty((z.shape[0], lx, lx), dtype=ze.dtype)
        g_hi = np.empty_like(g_lo)
        for axis in (1, 2, 3):
            src_lo = [slice(None), slice(1, -1), slice(1, -1), slice(1, -1)]
            src_hi = [slice(None), slice(1, -1), slice(1, -1), slice(1, -1)]
            src_lo[axis] = 0
            src_hi[axis] = lx + 1
            g_lo[...] = ze[tuple(src_lo)]
            g_hi[...] = ze[tuple(src_hi)]
            for plane in (g_lo, g_hi):
                plane[:, 0, :] = 0.0
                plane[:, -1, :] = 0.0
                plane[:, :, 0] = 0.0
                plane[:, :, -1] = 0.0
            w.fill(0.0)
            lo = [slice(None)] * 4
            hi = [slice(None)] * 4
            lo_in = [slice(None)] * 4
            hi_in = [slice(None)] * 4
            lo[axis], hi[axis] = 0, lx - 1
            lo_in[axis], hi_in[axis] = 1, lx - 2
            w[tuple(lo)] = g_lo
            w[tuple(hi)] = g_hi
            wa = gs.add(w)
            z[tuple(lo_in)] += wa[tuple(lo)] - w[tuple(lo)]
            z[tuple(hi_in)] += wa[tuple(hi)] - w[tuple(hi)]

    # -- application ----------------------------------------------------------

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """Apply the smoother to an (assembled) residual."""
        if self.overlap:
            if self.mask is not None:
                r = r * self.mask
            re = self._extended_residual(r)
            ze = self.fdm.solve(re)
            z = ze[:, 1:-1, 1:-1, 1:-1].copy()
            self._return_ghosts(z, ze)
            z *= self._weight
            z = self.space.gs.add(z)
            z *= self._post
        else:
            # Weight, local solves and weight again in one workspace buffer;
            # the gather--scatter writes the (new) result.
            wr = self.space.workspace.get("precond.r", r.shape)
            if self.mask is not None:
                np.multiply(r, self.mask, out=wr)
                np.multiply(self._sqrt_weight, wr, out=wr)
            else:
                np.multiply(self._sqrt_weight, r, out=wr)
            zl = self.fdm.solve(wr, out=wr)
            zl *= self._sqrt_weight
            z = self.space.gs.add(zl)
        if self.mask is not None:
            z *= self.mask
        if self.damping != 1.0:
            z *= self.damping
        return z

    def kernel_inventory(self, n_elements: int | None = None) -> list[tuple[str, int]]:
        """Kernel launch sequence of one application, for the GPU simulator.

        Returns ``(kernel_name, flop-ish size)`` tuples; the DES assigns
        durations from the machine model.  ``n_elements`` overrides the
        element count (used when modelling a production-size mesh).
        """
        ne = self.space.nelv if n_elements is None else n_elements
        lx = self.space.lx + (2 if self.overlap else 0)
        work = ne * lx**4  # tensor contraction cost scale
        seq: list[tuple[str, int]] = [("schwarz_mask", ne * lx**3)]
        if self.overlap:
            seq += [("schwarz_extrude", ne * lx**2 * 6), ("gs_extrude", ne * lx**2 * 6)]
        seq += [
            ("fdm_apply_st", 3 * work),
            ("fdm_scale", ne * lx**3),
            ("fdm_apply_s", 3 * work),
            ("schwarz_weight", ne * lx**3),
            ("gs_local", ne * lx**2 * 6),
            ("schwarz_mask2", ne * lx**3),
        ]
        return seq

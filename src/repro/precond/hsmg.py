"""Hybrid Schwarz multigrid: the paper's pressure preconditioner (eq. (3)).

    M0^{-1} = R0^T A0^{-1} R0 + sum_k R_k^T A~_k^{-1} R_k

Additively combines the vertex-space coarse correction with per-level
additive Schwarz smoothers (the fine solution space plus optional
intermediate polynomial levels).  The decisive structural property --
exploited by the task-overlap schedule of Section 5.3 and by the GPU
simulator -- is that the coarse term and the Schwarz term are *independent*:
:meth:`apply_parts` exposes them separately so they can run concurrently,
while :meth:`__call__` is the serial reference composition.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.precond.cache import OperatorCache
from repro.precond.coarse import CoarseGridSolver
from repro.precond.schwarz import SchwarzSmoother
from repro.sem.basis import lagrange_interpolation_matrix
from repro.sem.dealias import interp3, interp3_transpose
from repro.sem.quadrature import gll_points_weights
from repro.sem.space import FunctionSpace

__all__ = ["HybridSchwarzMultigrid", "IterationGuard"]


@dataclass
class _Timing:
    """Cumulative wall time spent in the two independent parts.

    ``per_apply`` keeps only the most recent samples (bounded deque):
    the preconditioner is applied once per Krylov iteration for the whole
    run, and an unbounded list would grow without limit.
    """

    coarse: float = 0.0
    schwarz: float = 0.0
    applications: int = 0
    per_apply: deque[tuple[float, float]] = field(
        default_factory=lambda: deque(maxlen=1024)
    )


@dataclass
class IterationGuard:
    """Fallback guard for the mixed-precision smoother.

    Watches the outer-solver iteration counts while the float32 smoother
    is active.  The best count seen so far is the *reference*; a solve
    whose count exceeds ``reference * (1 + band)`` scores a strike, and
    ``patience`` consecutive strikes trip the guard (:meth:`observe`
    returns ``True`` exactly once, at the trip).  A count back inside the
    band resets the strikes.  Once tripped the guard stays tripped -- the
    preconditioner rebuilds its smoothers in float64 and the guard only
    records history from then on.
    """

    band: float = 0.2
    patience: int = 3
    reference: int | None = None
    strikes: int = 0
    tripped: bool = False
    history: list[int] = field(default_factory=list)

    def observe(self, iterations: int) -> bool:
        """Record one solve's iteration count; ``True`` when the guard trips."""
        n = int(iterations)
        self.history.append(n)
        if self.tripped:
            return False
        if self.reference is None or n < self.reference:
            self.reference = n
        if n > self.reference * (1.0 + self.band):
            self.strikes += 1
            if self.strikes >= self.patience:
                self.tripped = True
                return True
        else:
            self.strikes = 0
        return False


class HybridSchwarzMultigrid:
    """Two-(or multi-)level additive Schwarz multigrid preconditioner.

    Parameters
    ----------
    space:
        The pressure function space.
    mask:
        Optional Dirichlet mask on the pressure (``None`` for the standard
        pure-Neumann pressure problem).
    coarse_iterations:
        Fixed CG iteration count of the coarse solve (``coarse_method="cg"``).
    mid_orders:
        Optional intermediate polynomial orders (``lx`` values) inserted
        between the fine level and the vertex space, each contributing an
        additional additive Schwarz term (the general k-level form).
    smoother_dtype:
        Precision of the Schwarz/FDM smoother solves.  ``np.float32``
        activates the mixed-precision fast path with an
        :class:`IterationGuard`: feed outer iteration counts to
        :meth:`observe_iterations` and the preconditioner rebuilds its
        smoothers in float64 when convergence regresses beyond the band.
    coarse_method:
        ``"direct"`` (cached sparse LU, the production default here) or
        ``"cg"`` (the paper's fixed-iteration configuration).
    cache:
        Operator-cache handle shared by all level setups (``None`` =
        process-wide cache).
    """

    def __init__(
        self,
        space: FunctionSpace,
        mask: np.ndarray | None = None,
        coarse_iterations: int = 10,
        mid_orders: tuple[int, ...] = (),
        overlap: bool = False,
        smoother_dtype: np.dtype | str | type = np.float64,
        coarse_method: str = "direct",
        cache: OperatorCache | bool | None = None,
        guard_band: float = 0.2,
        guard_patience: int = 3,
    ) -> None:
        self.space = space
        self.mask = mask
        self.overlap = overlap
        self.smoother_dtype = np.dtype(smoother_dtype)
        self._cache = cache
        self._mid_orders = tuple(mid_orders)
        self.coarse = CoarseGridSolver(
            space,
            iterations=coarse_iterations,
            mask=mask,
            method=coarse_method,
            cache=cache,
        )
        self._build_smoothers(self.smoother_dtype)
        self.guard: IterationGuard | None = (
            IterationGuard(band=guard_band, patience=guard_patience)
            if self.smoother_dtype == np.dtype(np.float32)
            else None
        )

        self.timing = _Timing()

    def _build_smoothers(self, dtype: np.dtype) -> None:
        """(Re)build the fine and mid-level smoothers at ``dtype``."""
        space, mask, cache = self.space, self.mask, self._cache
        self.schwarz = SchwarzSmoother(
            space, mask=mask, overlap=self.overlap, dtype=dtype, cache=cache
        )
        self.mid_levels: list[tuple[FunctionSpace, SchwarzSmoother, np.ndarray]] = []
        fine_pts, _ = gll_points_weights(space.lx)
        for lxm in self._mid_orders:
            if not (2 < lxm < space.lx):
                raise ValueError(
                    f"mid level lx={lxm} must satisfy 2 < lx < {space.lx}"
                )
            mid_space = FunctionSpace(space.mesh, lxm)
            mid_mask = None
            if mask is not None:
                # Re-derive the mask on the mid space from the same labels is
                # not possible here (labels are not stored); restrict by
                # interpolating and thresholding instead.
                # statcheck: ignore[backend-purity] -- constructor: levels built once per case
                jm = lagrange_interpolation_matrix(np.asarray(mid_space.points), space.lx)
                mid_mask = (interp3(mask, jm) > 0.999).astype(np.float64)
                mid_mask = mid_space.gs.min(mid_mask)
            smoother = SchwarzSmoother(mid_space, mask=mid_mask, dtype=dtype, cache=cache)
            # statcheck: ignore[backend-purity] -- constructor: levels built once per case
            j_m2f = lagrange_interpolation_matrix(np.asarray(fine_pts), lxm)
            self.mid_levels.append((mid_space, smoother, j_m2f))

    def observe_iterations(self, iterations: int) -> bool:
        """Feed one outer-solve iteration count to the mixed-precision guard.

        Returns ``True`` exactly when this observation trips the guard, in
        which case the smoothers have just been rebuilt in float64 (the
        caller should log/export the ``autotune.fallback`` event).  A
        float64 preconditioner has no guard and always returns ``False``.
        """
        if self.guard is None:
            return False
        if self.guard.observe(iterations):
            self.smoother_dtype = np.dtype(np.float64)
            self._build_smoothers(self.smoother_dtype)
            return True
        return False

    # -- the two independent parts -----------------------------------------

    def coarse_part(self, r: np.ndarray) -> np.ndarray:
        """``R0^T A0^{-1} R0 r`` -- the latency-bound coarse correction."""
        return self.coarse(r)

    def schwarz_part(self, r: np.ndarray) -> np.ndarray:
        """``sum_k R_k^T A~_k^{-1} R_k r`` -- the bandwidth-bound smoothers."""
        z = self.schwarz(r)
        for mid_space, smoother, j_m2f in self.mid_levels:
            # statcheck: ignore[hot-loop-allocation] -- one allocation per mid level (<= 2), not per element
            rm = mid_space.gs.add(interp3_transpose(r, j_m2f))
            zm = smoother(rm)
            # statcheck: ignore[hot-loop-allocation] -- one allocation per mid level (<= 2), not per element
            z += interp3(mid_space.gs.average(zm), j_m2f)
        return z

    def apply_parts(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both parts, timed separately (they are data-independent).

        This is the decomposition the overlapped schedule launches on two
        streams; here the parts run sequentially but their independence is
        what the DES-based Fig. 2 study exploits.
        """
        t0 = time.perf_counter()
        zc = self.coarse_part(r)
        t1 = time.perf_counter()
        zs = self.schwarz_part(r)
        t2 = time.perf_counter()
        self.timing.coarse += t1 - t0
        self.timing.schwarz += t2 - t1
        self.timing.applications += 1
        self.timing.per_apply.append((t1 - t0, t2 - t1))
        return zc, zs

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """Serial composition ``z = coarse_part(r) + schwarz_part(r)``."""
        zc, zs = self.apply_parts(r)
        z = zs
        z += zc  # zs is the smoother's new array: sum in place
        if self.mask is not None:
            z *= self.mask
        return z

    def kernel_inventory(self, n_elements: int | None = None) -> dict[str, list[tuple[str, int]]]:
        """Per-part kernel sequences for the GPU simulator."""
        return {
            "coarse": self.coarse.kernel_inventory(n_elements),
            "schwarz": self.schwarz.kernel_inventory(n_elements),
        }

"""Geometric factors (metric terms) of a deformed spectral element.

For every element the map x(r) from the reference cube is differentiated on
the GLL grid to obtain the Jacobian matrix ``dx_i/dr_j``, its determinant,
its inverse ``dr_i/dx_j``, the diagonal mass matrix ``B = w3 |J|`` and the
six symmetric stiffness factors

    G_ab = w3 |J| (grad r_a . grad r_b),   a, b in {r, s, t},

which are what the matrix-free Laplacian kernel contracts against.  These
arrays are exactly the ``drdx``/``jac``/``B``/``G`` fields a spectral-element
code keeps resident on the device for the whole run.

On undeformed meshes most cross terms are structurally zero: on a box every
off-diagonal ``dx_i/dr_j`` is rounding error, and on the z-extruded
cylinder ``dx/dt``, ``dy/dt``, ``dz/dr`` and ``dz/ds`` are.
:meth:`Coefficients.build` detects those entries once per mesh, makes them
(and so every inverse metric and ``G_ab`` built from them alone) exactly
zero, and records the surviving terms in :class:`LiveTerms`.  The metric
contractions read that record and skip the dead terms, the analogue of
Nek5000 adding ``G12``/``G13``/``G23`` only for deformed elements.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.sem.workspace import Workspace

__all__ = [
    "Coefficients",
    "LiveTerms",
    "ALL_LIVE",
    "STRUCTURAL_ZERO_RTOL",
    "sum_of_products",
    "tensor_derivatives",
    "CONTRACTION_VARIANTS",
    "set_contraction_variant",
    "get_contraction_variant",
]

#: Interchangeable implementations of the tensor-contraction kernels.  The
#: startup autotuner (:mod:`repro.sem.autotune`) benchmarks both per
#: ``(nelem, p)`` and installs the winner; ``"batched"`` (batched BLAS
#: ``matmul`` over ``(nelem*n, n, n)`` reshapes) is the default.
CONTRACTION_VARIANTS: tuple[str, ...] = ("batched", "axis")

_contraction_variant = "batched"


def set_contraction_variant(name: str) -> None:
    """Install a contraction variant process-wide (autotuner hook)."""
    global _contraction_variant
    if name not in CONTRACTION_VARIANTS:
        raise ValueError(
            f"unknown contraction variant {name!r}; options: {CONTRACTION_VARIANTS}"
        )
    _contraction_variant = name


def get_contraction_variant() -> str:
    """The currently installed contraction variant."""
    return _contraction_variant


def _tensor_derivatives_batched(
    u: np.ndarray, dx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    nelv, lz, ly, lx = u.shape
    ur = u @ dx.T
    us = np.matmul(dx, u)
    ut = np.matmul(dx, u.reshape(nelv, lz, ly * lx)).reshape(u.shape)
    return ur, us, ut


def _tensor_derivatives_axis(
    u: np.ndarray, dx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    ur = np.einsum("il,ekjl->ekji", dx, u)
    us = np.einsum("jl,ekli->ekji", dx, u)
    ut = np.einsum("kl,elji->ekji", dx, u)
    return ur, us, ut


def tensor_derivatives_stacked(u: np.ndarray, dx: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Reference-space derivatives written into a stacked ``(3, *u.shape)`` buffer.

    Same contractions as :func:`tensor_derivatives` (either variant) but
    with ``out=`` targets, so the result lands directly in the layout the
    fused geometric-factor contraction of ``ax_poisson``/``ax_helmholtz``
    and the dealiased gradient consume -- no staging copies.
    """
    if _contraction_variant == "axis":
        np.einsum("il,ekjl->ekji", dx, u, out=out[0])
        np.einsum("jl,ekli->ekji", dx, u, out=out[1])
        np.einsum("kl,elji->ekji", dx, u, out=out[2])
        return out
    nelv, lz, ly, lx = u.shape
    # The r sweep as one (nelv*lz*ly, lx) x (lx, lx) product: a single
    # BLAS call instead of one per (element, t-row); the same per-entry
    # dot products as ``u @ dx.T``.
    np.matmul(u.reshape(-1, lx), np.ascontiguousarray(dx.T), out=out[0].reshape(-1, lx))
    np.matmul(dx, u, out=out[1])
    np.matmul(dx, u.reshape(nelv, lz, ly * lx), out=out[2].reshape(nelv, lz, ly * lx))
    return out


def tensor_derivatives(u: np.ndarray, dx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference-space derivatives ``(du/dr, du/ds, du/dt)`` of nodal data.

    ``u`` has shape ``(nelv, lx, lx, lx)`` indexed ``[e, k(t), j(s), i(r)]``
    and ``dx`` is the 1-D collocation derivative matrix.  The default
    ``"batched"`` variant runs all three directions as batched BLAS
    ``matmul`` calls (the guide's "vectorize the loops" rule); the
    ``"axis"`` variant is the per-axis ``einsum`` form kept as an
    autotuner alternative and equivalence oracle.
    """
    if _contraction_variant == "axis":
        return _tensor_derivatives_axis(u, dx)
    return _tensor_derivatives_batched(u, dx)


#: Threshold of the structural-zero test in :meth:`Coefficients.build`,
#: relative to ``||D||_inf * max|x_i|`` on the element.  Differentiating a
#: coordinate ``x_i`` that does not vary along ``r_j`` gives pure rounding
#: error, bounded by a few ulps of that scale: measured at most 2.8e-16 on
#: box, graded-box (also far from the origin) and z-extruded cylinder
#: meshes at lx 2-12.  The corner deformation of ``deformed_box_space``
#: at amplitude 1e-6 reads at least 8.5e-10.  1e-12 is more than two
#: decades from both.
STRUCTURAL_ZERO_RTOL = 1e-12

_AXES = (0, 1, 2)
_DENSE = ((True, True, True),) * 3

Pattern = tuple[tuple[bool, ...], ...]


@dataclass(frozen=True)
class LiveTerms:
    """Which metric terms of a mesh are live (not structurally zero).

    ``jac[i][j]`` is for ``dx_i/dr_j``, ``inv[a][k]`` for ``dr_a/dx_k`` and
    ``g[a][b]`` for ``G_ab``.  A dead term is exactly 0.0 at every node, so
    a contraction that skips it equals one that adds it.  The default (all
    live) is what a :class:`Coefficients` not made by
    :meth:`Coefficients.build` carries.
    """

    jac: Pattern = _DENSE
    inv: Pattern = _DENSE
    g: Pattern = _DENSE

    @property
    def dense_g(self) -> bool:
        """All nine ``G_ab`` live: a fully deformed mesh."""
        return all(all(row) for row in self.g)


ALL_LIVE = LiveTerms()


def sum_of_products(
    out: np.ndarray,
    terms: Sequence[tuple[np.ndarray, np.ndarray]],
    tmp: np.ndarray | None = None,
) -> np.ndarray:
    """``out = a0*b0 + a1*b1 + a2*b2`` over one to three ``(a, b)`` pairs.

    Each product is one in-place ufunc pass and the sum runs left to
    right, so called with the live terms of a metric contraction (in the
    full expression's order) it gives the full expression's result: the
    skipped products are exact zeros.  ``tmp`` is scratch shaped like
    ``out``, needed only for more than one term.
    """
    (a, b), *rest = terms
    np.multiply(a, b, out=out)
    if rest:
        np.multiply(*rest[0], out=tmp)
        out += tmp
    if len(rest) > 1:
        np.multiply(*rest[1], out=tmp)
        out += tmp
    return out


def _live_jacobian(
    jac: Sequence[Sequence[np.ndarray]], coords: Sequence[np.ndarray], dx: np.ndarray
) -> Pattern:
    """Classify each ``dx_i/dr_j``: live if above rounding error anywhere.

    The entry is dead when on every element ``max|dx_i/dr_j|`` is at most
    :data:`STRUCTURAL_ZERO_RTOL` times ``||D||_inf * max|x_i|``, the size
    of the rounding error of differentiating a ``x_i`` constant along
    ``r_j``.
    """
    nelv = coords[0].shape[0]

    def peak(a: np.ndarray) -> np.ndarray:
        return np.abs(a).reshape(nelv, -1).max(axis=1)

    dnorm = float(np.abs(dx).sum(axis=1).max())
    scale = dnorm * np.array([peak(c) for c in coords])                # (3, nelv)
    size = np.array([[peak(entry) for entry in row] for row in jac])  # (3, 3, nelv)
    live = np.any(size > STRUCTURAL_ZERO_RTOL * scale[:, None, :], axis=2)
    return tuple(tuple(row) for row in live.tolist())


def _nonzero(rows: Sequence[Sequence[np.ndarray]]) -> Pattern:
    """Which arrays of a 3x3 layout have a nonzero entry."""
    return tuple(tuple(bool(np.any(a)) for a in row) for row in rows)


@dataclass
class Coefficients:
    """Metric terms of a mesh sampled on the GLL grid of a function space.

    All arrays have shape ``(nelv, lx, lx, lx)``.
    """

    # Forward map derivatives dx_i/dr_j.
    dxdr: np.ndarray
    dxds: np.ndarray
    dxdt: np.ndarray
    dydr: np.ndarray
    dyds: np.ndarray
    dydt: np.ndarray
    dzdr: np.ndarray
    dzds: np.ndarray
    dzdt: np.ndarray
    # Inverse map derivatives dr_i/dx_j.
    drdx: np.ndarray
    drdy: np.ndarray
    drdz: np.ndarray
    dsdx: np.ndarray
    dsdy: np.ndarray
    dsdz: np.ndarray
    dtdx: np.ndarray
    dtdy: np.ndarray
    dtdz: np.ndarray
    jac: np.ndarray
    mass: np.ndarray  # B = w3 * |J|
    g11: np.ndarray
    g22: np.ndarray
    g33: np.ndarray
    g12: np.ndarray
    g13: np.ndarray
    g23: np.ndarray
    volume: float
    # Which of the terms above are structurally zero (see LiveTerms); the
    # metric contractions skip the dead ones.
    live: LiveTerms = ALL_LIVE
    # Lazily built stacked view of the symmetric G tensor (see g_stack()).
    _g_stack: np.ndarray | None = None
    # Scratch buffers of the kernels that contract against these factors
    # (see repro.sem.workspace); FunctionSpace exposes it as ``workspace``.
    workspace: Workspace = field(default_factory=Workspace, repr=False, compare=False)

    def inverse_metrics(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """``dr_a/dx_k`` indexed ``[a][k]``, the layout of ``live.inv``."""
        return (
            (self.drdx, self.drdy, self.drdz),
            (self.dsdx, self.dsdy, self.dsdz),
            (self.dtdx, self.dtdy, self.dtdz),
        )

    def g_matrix(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """The symmetric ``G_ab`` indexed ``[a][b]``, the layout of ``live.g``."""
        return (
            (self.g11, self.g12, self.g13),
            (self.g12, self.g22, self.g23),
            (self.g13, self.g23, self.g33),
        )

    def g_stack(self) -> np.ndarray:
        """Symmetric geometric factors as one ``(3, 3, npts)`` array.

        Feeds the fused ``einsum("abn,bn->an", ...)`` contraction that
        ``ax_poisson``/``ax_helmholtz`` run on fully deformed meshes
        (``live.dense_g``): one C pass over nine components instead of
        fifteen separate multiply/add sweeps.  Built on first use and
        reused for the lifetime of the coefficients (the G tensor is
        immutable after construction).
        """
        if self._g_stack is None:
            self._g_stack = np.array(
                [[gab.reshape(-1) for gab in row] for row in self.g_matrix()]
            )
        return self._g_stack

    @classmethod
    def build(
        cls,
        x: np.ndarray,
        y: np.ndarray,
        z: np.ndarray,
        weights: np.ndarray,
        dx: np.ndarray,
    ) -> "Coefficients":
        """Compute all factors from nodal coordinates.

        Parameters
        ----------
        x, y, z:
            ``(nelv, lx, lx, lx)`` GLL node coordinates.
        weights:
            1-D GLL quadrature weights of length ``lx``.
        dx:
            ``(lx, lx)`` collocation derivative matrix.
        """
        dxdr, dxds, dxdt = tensor_derivatives(x, dx)
        dydr, dyds, dydt = tensor_derivatives(y, dx)
        dzdr, dzds, dzdt = tensor_derivatives(z, dx)
        # Structural zeros: entries that are rounding error on every element
        # become exactly 0.0, so the formulas below make every inverse
        # metric and G_ab that depends only on them exactly 0.0 too.
        jac_rows = ((dxdr, dxds, dxdt), (dydr, dyds, dydt), (dzdr, dzds, dzdt))
        live_jac = _live_jacobian(jac_rows, (x, y, z), dx)
        for i in _AXES:
            for j in _AXES:
                if not live_jac[i][j]:
                    jac_rows[i][j].fill(0.0)

        jac = (
            dxdr * (dyds * dzdt - dydt * dzds)
            - dxds * (dydr * dzdt - dydt * dzdr)
            + dxdt * (dydr * dzds - dyds * dzdr)
        )
        if np.any(jac <= 0.0):
            bad = int(np.count_nonzero(np.min(jac.reshape(jac.shape[0], -1), axis=1) <= 0.0))
            raise ValueError(
                f"mesh has {bad} element(s) with non-positive Jacobian "
                "(inverted or degenerate geometry)"
            )

        inv = 1.0 / jac
        drdx = (dyds * dzdt - dydt * dzds) * inv
        drdy = (dxdt * dzds - dxds * dzdt) * inv
        drdz = (dxds * dydt - dxdt * dyds) * inv
        dsdx = (dydt * dzdr - dydr * dzdt) * inv
        dsdy = (dxdr * dzdt - dxdt * dzdr) * inv
        dsdz = (dxdt * dydr - dxdr * dydt) * inv
        dtdx = (dydr * dzds - dyds * dzdr) * inv
        dtdy = (dxds * dzdr - dxdr * dzds) * inv
        dtdz = (dxdr * dyds - dxds * dydr) * inv

        w3 = weights[None, :, None, None] * weights[None, None, :, None] * weights[None, None, None, :]
        mass = w3 * jac
        wj = w3 * jac

        g11 = wj * (drdx**2 + drdy**2 + drdz**2)
        g22 = wj * (dsdx**2 + dsdy**2 + dsdz**2)
        g33 = wj * (dtdx**2 + dtdy**2 + dtdz**2)
        g12 = wj * (drdx * dsdx + drdy * dsdy + drdz * dsdz)
        g13 = wj * (drdx * dtdx + drdy * dtdy + drdz * dtdz)
        g23 = wj * (dsdx * dtdx + dsdy * dtdy + dsdz * dtdz)
        # Live inverse metrics and G_ab: those not exactly zero, which is
        # the property the contractions that skip the dead ones rely on.
        live = LiveTerms(
            jac=live_jac,
            inv=_nonzero(((drdx, drdy, drdz), (dsdx, dsdy, dsdz), (dtdx, dtdy, dtdz))),
            g=_nonzero(((g11, g12, g13), (g12, g22, g23), (g13, g23, g33))),
        )

        return cls(
            dxdr=dxdr, dxds=dxds, dxdt=dxdt,
            dydr=dydr, dyds=dyds, dydt=dydt,
            dzdr=dzdr, dzds=dzds, dzdt=dzdt,
            drdx=drdx, drdy=drdy, drdz=drdz,
            dsdx=dsdx, dsdy=dsdy, dsdz=dsdz,
            dtdx=dtdx, dtdy=dtdy, dtdz=dtdz,
            jac=jac, mass=mass,
            g11=g11, g22=g22, g33=g33, g12=g12, g13=g13, g23=g23,
            volume=float(np.sum(mass)),
            live=live,
        )

"""Geometric factors (metric terms) of a deformed spectral element.

For every element the map x(r) from the reference cube is differentiated on
the GLL grid to obtain the Jacobian matrix ``dx_i/dr_j``, its determinant,
its inverse ``dr_i/dx_j``, the diagonal mass matrix ``B = w3 |J|`` and the
six symmetric stiffness factors

    G_ab = w3 |J| (grad r_a . grad r_b),   a, b in {r, s, t},

which are what the matrix-free Laplacian kernel contracts against.  These
arrays are exactly the ``drdx``/``jac``/``B``/``G`` fields a spectral-element
code keeps resident on the device for the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sem.workspace import Workspace

__all__ = [
    "Coefficients",
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
    # Lazily built stacked view of the symmetric G tensor (see g_stack()).
    _g_stack: np.ndarray | None = None
    # Scratch buffers of the kernels that contract against these factors
    # (see repro.sem.workspace); FunctionSpace exposes it as ``workspace``.
    workspace: Workspace = field(default_factory=Workspace, repr=False, compare=False)

    def g_stack(self) -> np.ndarray:
        """Symmetric geometric factors as one ``(3, 3, npts)`` array.

        Feeds the fused ``einsum("abn,bn->an", ...)`` contraction in
        ``ax_poisson``/``ax_helmholtz``: one C pass over nine components
        instead of fifteen separate multiply/add sweeps.  Built on first
        use and reused for the lifetime of the coefficients (the G tensor
        is immutable after construction).
        """
        if self._g_stack is None:
            n = self.g11.size
            g = np.empty((3, 3, n))
            g[0, 0] = self.g11.reshape(-1)
            g[0, 1] = self.g12.reshape(-1)
            g[0, 2] = self.g13.reshape(-1)
            g[1, 0] = self.g12.reshape(-1)
            g[1, 1] = self.g22.reshape(-1)
            g[1, 2] = self.g23.reshape(-1)
            g[2, 0] = self.g13.reshape(-1)
            g[2, 1] = self.g23.reshape(-1)
            g[2, 2] = self.g33.reshape(-1)
            self._g_stack = g
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
        )

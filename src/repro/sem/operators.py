"""Matrix-free tensor-product operators.

These are the compute kernels of the solver -- the Python analogues of
Neko's ``ax_helm``, ``opgrad``, ``cdtp`` and friends.  Everything is
formulated per element on the ``(nelv, lx, lx, lx)`` layout and contracted
with batched ``matmul`` so the work runs inside BLAS.  None of these
routines performs gather--scatter or boundary masking; that is the caller's
job (exactly as in the real code, where the ``Ax`` object computes the local
action and the Krylov solver owns assembly).
"""

from __future__ import annotations

import numpy as np

from repro.sem.coef import (
    Coefficients,
    get_contraction_variant,
    tensor_derivatives,
    tensor_derivatives_stacked,
)
from repro.statcheck.contracts import FIELD, OPERATOR_1D, contract

__all__ = [
    "local_grad",
    "local_grad_transpose",
    "physical_grad",
    "ax_poisson",
    "ax_helmholtz",
    "weak_divergence",
    "weak_gradient",
    "weak_gradient_transpose",
    "divergence",
    "curl",
    "convective_term_collocated",
]


def local_grad(u: np.ndarray, dx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference-space derivatives ``(u_r, u_s, u_t)``."""
    return tensor_derivatives(u, dx)


def local_grad_transpose(
    wr: np.ndarray, ws: np.ndarray, wt: np.ndarray, dx: np.ndarray
) -> np.ndarray:
    """Adjoint of :func:`local_grad`: ``D_r^T wr + D_s^T ws + D_t^T wt``.

    Dispatches on the same autotuner-selected contraction variant as
    :func:`~repro.sem.coef.tensor_derivatives`.
    """
    if get_contraction_variant() == "axis":
        out = np.einsum("ekjl,li->ekji", wr, dx)
        out += np.einsum("lj,ekli->ekji", dx, ws)
        out += np.einsum("lk,elji->ekji", dx, wt)
        return out
    dtype = np.result_type(wr, dx)
    return _local_grad_transpose_into(
        wr, ws, wt, dx, np.empty(wr.shape, dtype), np.empty(wr.shape, dtype)
    )


def _local_grad_transpose_into(
    wr: np.ndarray,
    ws: np.ndarray,
    wt: np.ndarray,
    dx: np.ndarray,
    out: np.ndarray,
    tmp: np.ndarray,
) -> np.ndarray:
    """Batched :func:`local_grad_transpose` into ``out``; ``tmp`` is scratch.

    ``out`` and ``tmp`` are C-contiguous fields that overlap none of the
    inputs (``matmul`` would otherwise stage a copy).
    """
    nelv, lz, ly, lx = wr.shape
    np.matmul(wr.reshape(-1, lx), dx, out=out.reshape(-1, lx))  # one BLAS call
    np.matmul(dx.T, ws, out=tmp)
    out += tmp
    np.matmul(dx.T, wt.reshape(nelv, lz, ly * lx), out=tmp.reshape(nelv, lz, ly * lx))
    out += tmp
    return out


def physical_grad(
    u: np.ndarray, coef: Coefficients, dx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pointwise physical gradient ``(du/dx, du/dy, du/dz)``."""
    ur, us, ut = tensor_derivatives(u, dx)
    dudx = ur * coef.drdx + us * coef.dsdx + ut * coef.dtdx
    dudy = ur * coef.drdy + us * coef.dsdy + ut * coef.dtdy
    dudz = ur * coef.drdz + us * coef.dsdz + ut * coef.dtdz
    return dudx, dudy, dudz


def _ax_batched(
    u: np.ndarray, coef: Coefficients, dx: np.ndarray, h1: float | np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Shared batched core of the ``Ax`` kernels, on ``coef.workspace``.

    Returns ``(w, scratch)``: the three ``h1``-scaled contracted
    directions ``G . grad u`` (stacked ``(3, *u.shape)``) and one free
    scratch field.  Both are workspace buffers, valid until the next
    ``Ax`` call on the space.
    """
    ws = coef.workspace
    # Derivatives land in a stacked buffer and the G contraction runs as
    # a single fused einsum pass into a second one.
    du = ws.get("du", (3,) + u.shape)
    tensor_derivatives_stacked(u, dx, du)
    w = ws.get("w", du.shape)
    np.einsum("abn,bn->an", coef.g_stack(), du.reshape(3, u.size), out=w.reshape(3, u.size))
    if h1 is not None:
        w *= h1  # scalar or pointwise (nelv, lx, lx, lx): broadcasts over rows
    # du is dead after the contraction; its first row is the scratch field.
    return w, du[0]


@contract(u=FIELD, dx=OPERATOR_1D, returns=FIELD)
def ax_poisson(
    u: np.ndarray, coef: Coefficients, dx: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Local action of the stiffness matrix: ``w = A u`` (unassembled).

    The weak Laplacian ``(grad v, grad u)`` evaluated with the geometric
    factors ``G``: differentiate, contract with ``G``, apply the transposed
    derivatives.  ~`6 lx` flops per point over `7` resident arrays -- the
    bandwidth-bound profile the roofline model in ``repro.perfmodel``
    assumes.

    The result goes to ``out`` (a C-contiguous field not aliasing ``u``)
    or to a new array; all intermediates live in ``coef.workspace``.
    """
    # The batched fast path needs the stacked geometric factors; duck-typed
    # coef stand-ins (e.g. per-rank chunks in the distributed layer) that
    # only carry g11..g33 take the per-axis form regardless of the variant.
    if get_contraction_variant() == "axis" or not hasattr(coef, "g_stack"):
        ur, us, ut = tensor_derivatives(u, dx)
        wr = coef.g11 * ur + coef.g12 * us + coef.g13 * ut
        ws = coef.g12 * ur + coef.g22 * us + coef.g23 * ut
        wt = coef.g13 * ur + coef.g23 * us + coef.g33 * ut
        return _into(local_grad_transpose(wr, ws, wt, dx), out)
    w, tmp = _ax_batched(u, coef, dx, None)
    if out is None:
        out = np.empty(u.shape)
    return _local_grad_transpose_into(w[0], w[1], w[2], dx, out, tmp)


@contract(u=FIELD, dx=OPERATOR_1D, returns=FIELD)
def ax_helmholtz(
    u: np.ndarray,
    coef: Coefficients,
    dx: np.ndarray,
    h1: float | np.ndarray,
    h2: float | np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Local action of the Helmholtz operator ``h1 * A + h2 * B``.

    ``h1`` is the diffusivity, ``h2`` the reaction/mass coefficient (the
    BDF ``b0 / dt`` factor in the time-stepper); both may vary pointwise.
    ``out`` as in :func:`ax_poisson`.
    """
    if get_contraction_variant() == "axis" or not hasattr(coef, "g_stack"):
        ur, us, ut = tensor_derivatives(u, dx)
        wr = h1 * (coef.g11 * ur + coef.g12 * us + coef.g13 * ut)
        ws = h1 * (coef.g12 * ur + coef.g22 * us + coef.g23 * ut)
        wt = h1 * (coef.g13 * ur + coef.g23 * us + coef.g33 * ut)
        res = local_grad_transpose(wr, ws, wt, dx)
        res += h2 * coef.mass * u
        return _into(res, out)
    w, tmp = _ax_batched(u, coef, dx, h1)
    if out is None:
        out = np.empty(u.shape)
    _local_grad_transpose_into(w[0], w[1], w[2], dx, out, tmp)
    # Mass term in the same operation order as ``h2 * mass * u``.
    np.multiply(h2, coef.mass, out=tmp)
    tmp *= u
    out += tmp
    return out


def _into(res: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``res``, copied into ``out`` when the caller gave one."""
    if out is None:
        return res
    out[...] = res
    return out


def divergence(
    ux: np.ndarray, uy: np.ndarray, uz: np.ndarray, coef: Coefficients, dx: np.ndarray
) -> np.ndarray:
    """Pointwise (strong) divergence of a vector field."""
    dxx, _, _ = physical_grad(ux, coef, dx)
    _, dyy, _ = physical_grad(uy, coef, dx)
    _, _, dzz = physical_grad(uz, coef, dx)
    return dxx + dyy + dzz


def weak_divergence(
    ux: np.ndarray, uy: np.ndarray, uz: np.ndarray, coef: Coefficients, dx: np.ndarray
) -> np.ndarray:
    """Weak divergence ``(v, div u)``: the mass-weighted strong divergence.

    With GLL collocation the weak form reduces to ``B * div(u)``; this is the
    quantity that feeds the pressure-Poisson right-hand side.
    """
    return coef.mass * divergence(ux, uy, uz, coef, dx)


def weak_gradient(
    p: np.ndarray, coef: Coefficients, dx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weak gradient ``(v, grad p)`` componentwise (mass-weighted)."""
    px, py, pz = physical_grad(p, coef, dx)
    return coef.mass * px, coef.mass * py, coef.mass * pz


def weak_gradient_transpose(
    vx: np.ndarray,
    vy: np.ndarray,
    vz: np.ndarray,
    coef: Coefficients,
    dx: np.ndarray,
) -> np.ndarray:
    """``(grad phi, v)`` -- the integrated-by-parts weak divergence.

    This is Nek's ``cdtp``: the adjoint of the weak gradient.  For a vector
    field with zero normal component on the boundary (no-slip, symmetry or
    periodic), ``(phi, div v) = -(grad phi, v)``, and using this form for
    the pressure right-hand side builds the boundary condition into the
    discretization instead of differentiating across the wall.
    """
    b = coef.mass
    wr = b * (coef.drdx * vx + coef.drdy * vy + coef.drdz * vz)
    ws = b * (coef.dsdx * vx + coef.dsdy * vy + coef.dsdz * vz)
    wt = b * (coef.dtdx * vx + coef.dtdy * vy + coef.dtdz * vz)
    return local_grad_transpose(wr, ws, wt, dx)


def curl(
    ux: np.ndarray, uy: np.ndarray, uz: np.ndarray, coef: Coefficients, dx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pointwise curl of a vector field (vorticity when applied to velocity)."""
    _, duxdy, duxdz = physical_grad(ux, coef, dx)
    duydx, _, duydz = physical_grad(uy, coef, dx)
    duzdx, duzdy, _ = physical_grad(uz, coef, dx)
    wx = duzdy - duydz
    wy = duxdz - duzdx
    wz = duydx - duxdy
    return wx, wy, wz


def convective_term_collocated(
    cx: np.ndarray,
    cy: np.ndarray,
    cz: np.ndarray,
    u: np.ndarray,
    coef: Coefficients,
    dx: np.ndarray,
) -> np.ndarray:
    """Pointwise ``(c . grad) u`` *without* dealiasing.

    Kept for verification against the dealiased operator (both must agree
    when the fields are well resolved) and for the cheap low-Ra tests.
    """
    dudx, dudy, dudz = physical_grad(u, coef, dx)
    return cx * dudx + cy * dudy + cz * dudz

"""Structurally zero metric terms and the kernels that skip them.

``Coefficients.build`` classifies every Jacobian entry ``dx_i/dr_j`` once
per mesh: on box meshes the off-diagonal ones, on the z-extruded cylinder
``dx/dt``, ``dy/dt``, ``dz/dr`` and ``dz/ds`` are rounding error and become
exactly zero, with every inverse metric and ``G_ab`` built from them
alone.  The ``Ax`` kernels, the physical gradient and the dealiased
gradient then skip the dead terms.  Because only exact zeros are dropped,
each must equal the all-terms form (the fused einsum for ``Ax``) on the
same coefficients, bit for bit.
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro.sem.basis import derivative_matrix
from repro.sem.coef import ALL_LIVE, Coefficients, LiveTerms
from repro.sem.dealias import Dealiaser
from repro.sem.mesh import box_mesh, cylinder_mesh
from repro.sem.operators import (
    ax_helmholtz,
    ax_poisson,
    local_grad,
    local_grad_transpose,
    physical_grad,
    weak_gradient_transpose,
)
from repro.sem.quadrature import gll_points_weights
from repro.sem.space import FunctionSpace
from repro.verify.problems import deformed_box_space

T, F = True, False
DIAGONAL = ((T, F, F), (F, T, F), (F, F, T))
#: z-extruded cylinder: x, y depend on (r, s) only, z on t only.
EXTRUDED = ((T, T, F), (T, T, F), (F, F, T))

MESHES = {
    "box": (lambda: box_mesh((2, 2, 2)), DIAGONAL),
    # Graded, anisotropic and far from the origin: the rounding error of
    # the cross terms scales with the coordinates, the test with it.
    "graded_box": (
        lambda: box_mesh((3, 2, 4), (2.0, 0.5, 1.0), (-1.0, 100.0, 0.0), grading=(0.5, 0.0, 2.0)),
        DIAGONAL,
    ),
    "cylinder": (lambda: cylinder_mesh(0.5, 1.0, n_z=2, z_grading=1.5), EXTRUDED),
}


def build_coef(mesh, lx: int) -> Coefficients:
    _, w = gll_points_weights(lx)
    return Coefficients.build(
        *mesh.gll_coordinates(lx), np.asarray(w), np.asarray(derivative_matrix(lx))
    )


def dense(coef: Coefficients) -> Coefficients:
    """The same coefficients with every term counted live (einsum oracle)."""
    return dataclasses.replace(coef, live=ALL_LIVE, _g_stack=None)


@pytest.mark.parametrize("lx", range(2, 13))
@pytest.mark.parametrize("kind", sorted(MESHES))
def test_undeformed_meshes_get_the_expected_dead_terms(kind, lx):
    make_mesh, pattern = MESHES[kind]
    coef = build_coef(make_mesh(), lx)
    # Inverse metrics and G follow the Jacobian's pattern.
    assert coef.live == LiveTerms(jac=pattern, inv=pattern, g=pattern)
    assert not coef.live.dense_g
    # Dead terms are exact zeros; live ones are not.
    fwd = (
        (coef.dxdr, coef.dxds, coef.dxdt),
        (coef.dydr, coef.dyds, coef.dydt),
        (coef.dzdr, coef.dzds, coef.dzdt),
    )
    for name, arrays, live in (
        ("jac", fwd, coef.live.jac),
        ("inv", coef.inverse_metrics(), coef.live.inv),
        ("g", coef.g_matrix(), coef.live.g),
    ):
        for i in range(3):
            for j in range(3):
                assert bool(np.any(arrays[i][j])) == live[i][j], (name, i, j)


@pytest.mark.parametrize("amplitude", [1e-6, 1e-3, 0.05])
@pytest.mark.parametrize("lx", [2, 5, 8, 12])
def test_deformed_meshes_keep_all_nine_terms(amplitude, lx):
    live = deformed_box_space(2, lx, amplitude=amplitude).coef.live
    assert live == ALL_LIVE
    assert live.dense_g


def test_coefficients_not_built_by_build_count_every_term_live():
    coef = build_coef(box_mesh((1, 1, 1)), 4)
    init = {
        f.name: getattr(coef, f.name)
        for f in dataclasses.fields(coef)
        if f.init and f.name not in ("live", "_g_stack", "workspace")
    }
    assert Coefficients(**init).live == ALL_LIVE
    assert ALL_LIVE.dense_g


@pytest.fixture(scope="module")
def spaces():
    return {
        "box": FunctionSpace(box_mesh((2, 2, 2)), 5),
        "cylinder": FunctionSpace(cylinder_mesh(0.5, 1.0, n_z=2), 5),
        "deformed": deformed_box_space(2, 5, amplitude=0.05),
    }


CASES = ["box", "cylinder", "deformed"]


@pytest.mark.parametrize("kind", CASES)
def test_ax_equals_the_einsum_oracle(spaces, kind):
    sp = spaces[kind]
    oracle = dense(sp.coef)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(sp.shape)
    h1 = 0.5 + rng.random(sp.shape)
    assert np.array_equal(ax_poisson(u, sp.coef, sp.dx), ax_poisson(u, oracle, sp.dx))
    for coeffs in ((0.3, 7.0), (h1, 2.0)):
        assert np.array_equal(
            ax_helmholtz(u, sp.coef, sp.dx, *coeffs), ax_helmholtz(u, oracle, sp.dx, *coeffs)
        )
    # Only the all-live mesh builds (and pays for) the stacked G tensor.
    assert (sp.coef._g_stack is not None) == (kind == "deformed")
    assert oracle._g_stack is not None


@pytest.mark.parametrize("kind", CASES)
def test_physical_gradients_equal_the_all_terms_expressions(spaces, kind):
    sp = spaces[kind]
    c = sp.coef
    rng = np.random.default_rng(1)
    u, vx, vy, vz = (rng.standard_normal(sp.shape) for _ in range(4))
    ur, us, ut = local_grad(u, sp.dx)
    want = (
        ur * c.drdx + us * c.dsdx + ut * c.dtdx,
        ur * c.drdy + us * c.dsdy + ut * c.dtdy,
        ur * c.drdz + us * c.dsdz + ut * c.dtdz,
    )
    for got, ref in zip(physical_grad(u, c, sp.dx), want):
        assert np.array_equal(got, ref)
    b = c.mass
    want_t = local_grad_transpose(
        b * (c.drdx * vx + c.drdy * vy + c.drdz * vz),
        b * (c.dsdx * vx + c.dsdy * vy + c.dsdz * vz),
        b * (c.dtdx * vx + c.dtdy * vy + c.dtdz * vz),
        sp.dx,
    )
    assert np.array_equal(weak_gradient_transpose(vx, vy, vz, c, sp.dx), want_t)


@pytest.mark.parametrize("kind", CASES)
def test_dealiased_gradient_equals_the_all_terms_form(spaces, kind):
    sp = spaces[kind]
    full_space = copy.copy(sp)
    full_space.coef = dense(sp.coef)
    fast, full = Dealiaser(sp), Dealiaser(full_space)
    # Only live fine-grid metrics are kept: 3 on the box, 5 on the
    # cylinder, all 9 on the deformed mesh.
    kept = sum(len(m) for m in fast._metrics)
    assert kept == {"box": 3, "cylinder": 5, "deformed": 9}[kind]
    assert sum(len(m) for m in full._metrics) == 9

    rng = np.random.default_rng(2)
    u, cx, cy, cz = (rng.standard_normal(sp.shape) for _ in range(4))
    for got, want in zip(fast.grad_fine(u), full.grad_fine(u)):
        assert np.array_equal(got, want)
    assert np.array_equal(fast.convect_weak(cx, cy, cz, u), full.convect_weak(cx, cy, cz, u))

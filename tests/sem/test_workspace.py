"""The per-space workspace and the kernels that run on it.

The ``Ax`` kernels and the dealiased convection keep every intermediate
in named :class:`~repro.sem.workspace.Workspace` buffers.  Two things can
go wrong with that: a buffer shared by two roles corrupts a result, and a
result that *is* a workspace buffer changes under the caller's feet on the
next call.  Hypothesis drives random meshes, orders and coefficients
through both kernels and checks them against plain ``einsum`` oracles that
allocate everything afresh, and checks that consecutive calls never alias
or overwrite an earlier result.
"""

import copy
import pickle
import threading

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.sem.basis import lagrange_interpolation_matrix
from repro.sem.dealias import Dealiaser
from repro.sem.mesh import box_mesh
from repro.sem.operators import ax_helmholtz, ax_poisson
from repro.sem.quadrature import gll_points_weights
from repro.sem.space import FunctionSpace
from repro.sem.workspace import Workspace

TOL = 1e-14


def random_space(seed: int, n: tuple[int, int, int], lx: int) -> FunctionSpace:
    """A box of ``n`` elements with a random smooth (positive-Jacobian) warp."""
    mesh = box_mesh(n)
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(3, 3))
    cc = mesh.corner_coords
    x, y, z = cc[..., 0].copy(), cc[..., 1].copy(), cc[..., 2].copy()
    for d in range(3):
        cc[..., d] += (
            0.02
            * np.sin(np.pi * x + phases[d, 0])
            * np.sin(np.pi * y + phases[d, 1])
            * np.sin(np.pi * z + phases[d, 2])
        )
    return FunctionSpace(mesh, lx)


def grad_ref(u, dx):
    return (
        np.einsum("il,ekjl->ekji", dx, u),
        np.einsum("jl,ekli->ekji", dx, u),
        np.einsum("kl,elji->ekji", dx, u),
    )


def ax_oracle(u, c, dx, h1=1.0, h2=0.0):
    ur, us, ut = grad_ref(u, dx)
    wr = h1 * (c.g11 * ur + c.g12 * us + c.g13 * ut)
    ws = h1 * (c.g12 * ur + c.g22 * us + c.g23 * ut)
    wt = h1 * (c.g13 * ur + c.g23 * us + c.g33 * ut)
    out = (
        np.einsum("ekjl,li->ekji", wr, dx)
        + np.einsum("lj,ekli->ekji", dx, ws)
        + np.einsum("lk,elji->ekji", dx, wt)
    )
    return out + h2 * c.mass * u


def interp_oracle(u, j):
    return np.einsum("ai,bj,ck,ekji->ecba", j, j, j, u)


def convect_oracle(space, lxd, cx, cy, cz, u):
    """Dealiased ``(v, (c . grad) u)`` from fresh einsums on the fine grid."""
    c = space.coef
    pts, w = gll_points_weights(lxd)
    j = lagrange_interpolation_matrix(np.asarray(pts), space.lx)
    urd, usd, utd = (interp_oracle(d, j) for d in grad_ref(u, np.asarray(space.dx)))
    grads = []
    for rx, sx, tx in (
        (c.drdx, c.dsdx, c.dtdx), (c.drdy, c.dsdy, c.dtdy), (c.drdz, c.dsdz, c.dtdz)
    ):
        grads.append(
            urd * interp_oracle(rx, j) + usd * interp_oracle(sx, j) + utd * interp_oracle(tx, j)
        )
    adv = sum(interp_oracle(ci, j) * g for ci, g in zip((cx, cy, cz), grads))
    w = np.asarray(w)
    mass_d = np.einsum("k,j,i->kji", w, w, w)[None] * interp_oracle(c.jac, j)
    return interp_oracle(mass_d * adv, j.T)


def rel_err(a, b):
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


meshes = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 2))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=meshes,
    lx=st.integers(2, 8),
    pointwise=st.booleans(),
)
def test_ax_kernels_match_einsum_oracle(seed, n, lx, pointwise):
    space = random_space(seed, n, lx)
    rng = np.random.default_rng(seed + 1)
    u = rng.standard_normal(space.shape)
    if pointwise:
        h1 = rng.uniform(0.5, 2.0, space.shape)
        h2 = rng.uniform(0.5, 2.0, space.shape)
    else:
        h1, h2 = float(rng.uniform(0.01, 1.0)), float(rng.uniform(1.0, 100.0))
    dx = np.asarray(space.dx)
    want_p = ax_oracle(u, space.coef, dx)
    want_h = ax_oracle(u, space.coef, dx, h1, h2)
    assert rel_err(ax_poisson(u, space.coef, space.dx), want_p) <= TOL
    assert rel_err(ax_helmholtz(u, space.coef, space.dx, h1, h2), want_h) <= TOL
    out = np.full(space.shape, np.nan)
    assert ax_poisson(u, space.coef, space.dx, out=out) is out
    assert rel_err(out, want_p) <= TOL
    assert ax_helmholtz(u, space.coef, space.dx, h1, h2, out=out) is out
    assert rel_err(out, want_h) <= TOL


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16), n=meshes, lx=st.integers(2, 7))
@example(seed=0, n=(3, 3, 3), lx=4)  # 27 elements: a full and a partial block
def test_convect_weak_matches_einsum_oracle(seed, n, lx):
    space = random_space(seed, n, lx)
    rng = np.random.default_rng(seed + 2)
    cx, cy, cz, u = (rng.standard_normal(space.shape) for _ in range(4))
    d = Dealiaser(space)
    want = convect_oracle(space, d.lxd, cx, cy, cz, u)
    assert rel_err(d.convect_weak(cx, cy, cz, u), want) <= TOL
    c_fine = (d.to_fine(cx), d.to_fine(cy), d.to_fine(cz))
    assert rel_err(d.convect_weak(cx, cy, cz, u, c_fine=c_fine), want) <= TOL


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), n=meshes, lx=st.integers(2, 6))
def test_consecutive_calls_never_alias_earlier_results(seed, n, lx):
    space = random_space(seed, n, lx)
    rng = np.random.default_rng(seed + 3)
    u1, u2, cx, cy, cz = (rng.standard_normal(space.shape) for _ in range(5))
    d = Dealiaser(space)
    kernels = (
        lambda u: ax_poisson(u, space.coef, space.dx),
        lambda u: ax_helmholtz(u, space.coef, space.dx, 0.1, 10.0),
        lambda u: d.convect_weak(cx, cy, cz, u),
        d.to_fine,
    )
    for kernel in kernels:
        r1 = kernel(u1)
        kept = r1.copy()
        r2 = kernel(u2)
        assert not np.shares_memory(r1, r2)
        np.testing.assert_array_equal(r1, kept)
        # The other kernels share the workspace: they must not touch r1 either.
        for other in kernels:
            other(u2)
        np.testing.assert_array_equal(r1, kept)


class TestWorkspace:
    def test_buffers_are_reused_and_grow(self):
        ws = Workspace()
        a = ws.get("x", (2, 3))
        b = ws.get("x", (3, 2))
        assert np.shares_memory(a, b)
        assert ws.nbytes == 6 * 8
        big = ws.get("x", (4, 4))
        assert not np.shares_memory(a, big)
        assert ws.nbytes == 16 * 8
        small = ws.get("x", (2,))
        assert np.shares_memory(small, big)
        assert ws.get("x", (2,), np.float32).dtype == np.float32
        assert not np.shares_memory(ws.get("y", (2, 3)), a)

    def test_buffers_are_per_thread(self):
        ws = Workspace()
        mine = ws.get("x", (8,))
        theirs = []
        t = threading.Thread(target=lambda: theirs.append(ws.get("x", (8,))))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        assert not np.shares_memory(mine, theirs[0])

    def test_copies_start_empty(self):
        ws = Workspace()
        ws.get("x", (100,))
        assert copy.deepcopy(ws).nbytes == 0
        assert pickle.loads(pickle.dumps(ws)).nbytes == 0

    def test_space_shares_one_workspace(self):
        space = FunctionSpace(box_mesh((1, 1, 1)), 3)
        assert space.workspace is space.coef.workspace is space.gs.workspace

"""Tests for Jacobi, FDM/Schwarz and the hybrid Schwarz multigrid."""

import numpy as np
import pytest

from repro.precond import (
    CoarseGridSolver,
    FastDiagonalization,
    HybridSchwarzMultigrid,
    JacobiPrecond,
    SchwarzSmoother,
    helmholtz_diagonal,
)
from repro.precond.fdm import extended_grid_operators
from repro.sem.bc import DirichletBC
from repro.sem.mesh import box_mesh, cylinder_mesh
from repro.sem.operators import ax_helmholtz, ax_poisson
from repro.sem.space import FunctionSpace
from repro.solvers import ConjugateGradient, Gmres, MeanProjector


@pytest.fixture(scope="module")
def sp():
    return FunctionSpace(box_mesh((2, 2, 2)), 5)


def assembled_poisson(space, mask=None):
    def amul(u):
        w = space.gs.add(ax_poisson(u, space.coef, space.dx))
        if mask is not None:
            w *= mask
        return w

    return amul


class TestHelmholtzDiagonal:
    def test_matches_probed_diagonal(self, sp):
        """The closed-form diagonal equals basis-vector probing of ax."""
        diag = helmholtz_diagonal(sp, 1.0, 2.0)
        rng = np.random.default_rng(0)
        # Probe a sample of entries.
        flat_idx = rng.choice(sp.n_dofs_local, size=40, replace=False)
        for fi in flat_idx:
            e = np.zeros(sp.n_dofs_local)
            e[fi] = 1.0
            e = e.reshape(sp.shape)
            w = ax_helmholtz(e, sp.coef, sp.dx, 1.0, 2.0)
            assert w.reshape(-1)[fi] == pytest.approx(diag.reshape(-1)[fi], rel=1e-10)

    def test_positive_for_positive_coefficients(self, sp):
        diag = helmholtz_diagonal(sp, 1.0, 1.0)
        assert np.all(sp.gs.add(diag) > 0)


class TestJacobi:
    def test_apply_is_diagonal_scaling(self, sp):
        pc = JacobiPrecond(sp, 1.0, 1.0)
        r = np.ones(sp.shape)
        z = pc(r)
        assert z.shape == sp.shape
        assert np.all(z > 0)

    def test_update_changes_diagonal(self, sp):
        pc = JacobiPrecond(sp, 1.0, 1.0)
        # The result is the preconditioner's buffer, valid until its next call.
        z1 = pc(np.ones(sp.shape)).copy()
        pc.update(1.0, 100.0)
        z2 = pc(np.ones(sp.shape))
        assert np.all(z2 < z1)

    def test_invalid_coefficients_raise(self, sp):
        with pytest.raises(ValueError):
            JacobiPrecond(sp, -1.0, -1.0)

    def test_masked_dofs_zeroed(self, sp):
        bc = DirichletBC(sp, ["bottom"], 0.0)
        pc = JacobiPrecond(sp, 1.0, 1.0, mask=bc.mask)
        z = pc(np.ones(sp.shape))
        assert np.all(z[bc.mask == 0.0] == 0.0)

    def test_speeds_up_helmholtz_cg(self, sp):
        bc = DirichletBC(sp, ["bottom", "top", "x-", "x+", "y-", "y+"], 0.0)
        h1, h2 = 0.01, 100.0

        def amul(u):
            return sp.gs.add(ax_helmholtz(u, sp.coef, sp.dx, h1, h2)) * bc.mask

        rng = np.random.default_rng(1)
        b = sp.gs.add(sp.coef.mass * rng.normal(size=sp.shape)) * bc.mask
        plain = ConjugateGradient(amul, sp.gs.dot, tol=1e-10, maxiter=500)
        prec = ConjugateGradient(
            amul, sp.gs.dot, precond=JacobiPrecond(sp, h1, h2, mask=bc.mask), tol=1e-10, maxiter=500
        )
        _, m1 = plain.solve(b)
        _, m2 = prec.solve(b)
        assert m2.converged
        assert m2.iterations <= m1.iterations


class TestFDM:
    def test_extended_operators_cached_and_spd(self):
        s, lam, nodes = extended_grid_operators(5)
        assert s.shape == (5, 5)
        assert np.all(lam > 0)
        assert len(nodes) == 7
        s2, _, _ = extended_grid_operators(5)
        assert s is s2  # lru_cache

    def test_eigvec_normalization(self):
        # S^T M S = I for the reduced mass matrix.
        from repro.precond.fdm import _lagrange_matrices_on_nodes

        s, lam, nodes = extended_grid_operators(4)
        k, m = _lagrange_matrices_on_nodes(nodes)
        kr, mr = k[1:-1, 1:-1], m[1:-1, 1:-1]
        assert np.allclose(s.T @ mr @ s, np.eye(4), atol=1e-10)
        assert np.allclose(s.T @ kr @ s, np.diag(lam), atol=1e-8)

    def test_solve_shape_and_linearity(self, sp):
        fdm = FastDiagonalization(sp)
        rng = np.random.default_rng(2)
        a = rng.normal(size=sp.shape)
        b = rng.normal(size=sp.shape)
        za = fdm.solve(a)
        assert za.shape == sp.shape
        zab = fdm.solve(a + 3 * b)
        assert np.allclose(zab, za + 3 * fdm.solve(b), atol=1e-10)

    def test_solve_spd(self, sp):
        fdm = FastDiagonalization(sp)
        rng = np.random.default_rng(3)
        r = rng.normal(size=sp.shape)
        assert np.sum(r * fdm.solve(r)) > 0


class TestSchwarz:
    def test_linearity(self, sp):
        sm = SchwarzSmoother(sp)
        rng = np.random.default_rng(4)
        a = sp.gs.add(rng.normal(size=sp.shape))
        b = sp.gs.add(rng.normal(size=sp.shape))
        assert np.allclose(sm(a + 2 * b), sm(a) + 2 * sm(b), atol=1e-10)

    def test_positive_on_residuals_of_smooth_fields(self, sp):
        # For residuals of actual fields, <M r, u> should be positive
        # (the smoother is an approximate inverse).
        from repro.sem.operators import ax_poisson

        sm = SchwarzSmoother(sp)
        u = np.cos(np.pi * sp.x) * np.cos(np.pi * sp.y)
        r = sp.gs.add(ax_poisson(u, sp.coef, sp.dx))
        z = sm(r)
        assert sp.gs.dot(z, u) > 0

    def test_overlap_variant_runs_and_differs(self, sp):
        sm0 = SchwarzSmoother(sp, overlap=False)
        sm1 = SchwarzSmoother(sp, overlap=True)
        rng = np.random.default_rng(12)
        r = sp.gs.add(rng.normal(size=sp.shape))
        z0, z1 = sm0(r), sm1(r)
        assert np.isfinite(z1).all()
        assert not np.allclose(z0, z1)

    def test_overlap_ghost_exchange_roundtrip(self, sp):
        # The extended residual's ghost planes must carry the neighbour's
        # depth-1 data: check against direct indexing for the box mesh.
        sm = SchwarzSmoother(sp, overlap=True)
        rng = np.random.default_rng(13)
        r = sp.gs.add(rng.normal(size=sp.shape))
        re = sm._extended_residual(r)
        assert np.allclose(re[:, 1:-1, 1:-1, 1:-1], r)
        # Element 0 of the 2x2x1 box has its r+ neighbour element 1: the
        # ghost plane at i = lx+1 of element 0 equals element 1's i = 1
        # plane (face-interior nodes only).
        lx = sp.lx
        ghost = re[0, 2:-2, 2:-2, -1]
        expected = r[1, 1:-1, 1:-1, 1]
        assert np.allclose(ghost, expected)

    def test_output_continuous(self, sp):
        sm = SchwarzSmoother(sp)
        rng = np.random.default_rng(5)
        z = sm(sp.gs.add(rng.normal(size=sp.shape)))
        assert np.allclose(sp.gs.average(z), z, atol=1e-10)

    def test_kernel_inventory(self, sp):
        sm = SchwarzSmoother(sp)
        inv = sm.kernel_inventory()
        names = [k for k, _ in inv]
        assert "fdm_apply_st" in names
        assert all(n > 0 for _, n in inv)
        inv_big = sm.kernel_inventory(n_elements=10**6)
        assert inv_big[0][1] > inv[0][1]


class TestCoarse:
    def test_restriction_prolongation_adjoint(self, sp):
        cg = CoarseGridSolver(sp)
        rng = np.random.default_rng(6)
        rf = rng.normal(size=sp.shape)
        uv = rng.normal(size=cg.n_vertices)
        lhs = np.sum(cg.restrict(rf) * uv)
        rhs = np.sum(rf * cg.prolong(uv))
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_prolong_constant(self, sp):
        cg = CoarseGridSolver(sp)
        u = cg.prolong(np.ones(cg.n_vertices))
        assert np.allclose(u, 1.0, atol=1e-12)

    def test_coarse_operator_is_galerkin(self, sp):
        # A0 must equal J^T A J: compare the action on a random coarse
        # vector against restrict(A(prolong(u))).
        from repro.sem.operators import ax_poisson

        cg = CoarseGridSolver(sp)
        rng = np.random.default_rng(60)
        uv = rng.normal(size=cg.n_vertices)
        uf = cg.prolong(uv)
        af = sp.gs.add(ax_poisson(uf, sp.coef, sp.dx)) / sp.gs.multiplicity
        galerkin = cg.restrict(af)
        direct = cg.a0 @ uv
        assert np.allclose(galerkin, direct, atol=1e-9 * max(1.0, np.abs(direct).max()))

    def test_smooth_mode_recovery(self):
        # The coarse correction must recover a smooth global mode to ~5%.
        from repro.sem.operators import ax_poisson

        sp4 = FunctionSpace(box_mesh((4, 4, 4)), 5)
        cg = CoarseGridSolver(sp4, iterations=50)
        u = np.cos(np.pi * sp4.x)
        r = sp4.gs.add(ax_poisson(u, sp4.coef, sp4.dx))
        z = cg(r)
        um = u - sp4.mean(u)
        zm = z - sp4.mean(z)
        scale = sp4.integrate(zm * um) / sp4.integrate(um * um)
        assert scale == pytest.approx(1.0, abs=0.12)

    def test_coarse_correction_zero_mean(self, sp):
        cg = CoarseGridSolver(sp)
        rng = np.random.default_rng(7)
        r = sp.gs.add(sp.coef.mass * rng.normal(size=sp.shape))
        z = cg(r)
        assert z.shape == sp.shape
        assert np.isfinite(z).all()

    def test_kernel_inventory_scaling(self, sp):
        cg = CoarseGridSolver(sp, iterations=10)
        inv = cg.kernel_inventory()
        dots = [k for k, _ in inv if k == "allreduce_dot"]
        assert len(dots) == 20  # two reductions per CG iteration


class TestHSMG:
    def test_preconditioned_gmres_beats_plain(self):
        sp = FunctionSpace(box_mesh((3, 3, 3)), 6)
        amul = assembled_poisson(sp)
        proj = MeanProjector.counting(sp.gs)
        rng = np.random.default_rng(8)
        f = rng.normal(size=sp.shape)
        b = sp.gs.add(sp.coef.mass * (f - sp.mean(f)))
        plain = Gmres(amul, sp.gs.dot, tol=1e-6, maxiter=400, project_out=proj)
        hsmg = HybridSchwarzMultigrid(sp)
        prec = Gmres(amul, sp.gs.dot, precond=hsmg, tol=1e-6, maxiter=400, project_out=proj)
        _, m1 = plain.solve(b)
        _, m2 = prec.solve(b)
        assert m2.converged
        assert m2.iterations < m1.iterations / 2

    def test_parts_sum_to_whole(self):
        sp = FunctionSpace(box_mesh((2, 2, 1)), 4)
        hsmg = HybridSchwarzMultigrid(sp)
        rng = np.random.default_rng(9)
        r = sp.gs.add(rng.normal(size=sp.shape))
        zc, zs = hsmg.apply_parts(r)
        z = hsmg(r)
        assert np.allclose(z, zc + zs, atol=1e-12)

    def test_timing_recorded(self):
        sp = FunctionSpace(box_mesh((2, 1, 1)), 4)
        hsmg = HybridSchwarzMultigrid(sp)
        r = sp.gs.add(np.ones(sp.shape))
        hsmg(r)
        assert hsmg.timing.applications == 1
        assert hsmg.timing.coarse > 0
        assert hsmg.timing.schwarz > 0

    def test_mid_level_ladder(self):
        sp = FunctionSpace(box_mesh((2, 2, 2)), 7)
        amul = assembled_poisson(sp)
        proj = MeanProjector.counting(sp.gs)
        rng = np.random.default_rng(10)
        f = rng.normal(size=sp.shape)
        b = sp.gs.add(sp.coef.mass * (f - sp.mean(f)))
        three = HybridSchwarzMultigrid(sp, mid_orders=(4,))
        g3 = Gmres(amul, sp.gs.dot, precond=three, tol=1e-6, maxiter=300, project_out=proj)
        _, m3 = g3.solve(b)
        assert m3.converged

    def test_invalid_mid_order(self):
        sp = FunctionSpace(box_mesh((1, 1, 1)), 5)
        with pytest.raises(ValueError):
            HybridSchwarzMultigrid(sp, mid_orders=(5,))

    def test_works_on_cylinder(self):
        sp = FunctionSpace(cylinder_mesh(n_square=2, n_ring=1, n_z=2), 5)
        amul = assembled_poisson(sp)
        proj = MeanProjector.counting(sp.gs)
        rng = np.random.default_rng(11)
        f = rng.normal(size=sp.shape)
        b = sp.gs.add(sp.coef.mass * (f - sp.mean(f)))
        hsmg = HybridSchwarzMultigrid(sp)
        g = Gmres(amul, sp.gs.dot, precond=hsmg, tol=1e-6, maxiter=300, project_out=proj)
        _, mon = g.solve(b)
        assert mon.converged
        assert mon.iterations < 120

"""Tests for the solution-projection space."""

import numpy as np
import pytest

from repro.solvers import ConjugateGradient, SolutionProjection


def dense_dot(a, b):
    return float(np.dot(a.reshape(-1), b.reshape(-1)))


def make_spd(n, seed=0, cond=100.0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = np.geomspace(1.0, cond, n)
    return q @ np.diag(lam) @ q.T


class TestSolutionProjection:
    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            SolutionProjection(lambda u: u, dense_dot, max_dim=0)

    def test_exact_for_repeated_rhs(self):
        a = make_spd(30, seed=5)
        proj = SolutionProjection(lambda u: a @ u, dense_dot, max_dim=5)
        cg = ConjugateGradient(lambda u: a @ u, dense_dot, tol=1e-12, maxiter=200)
        b = np.ones(30)
        x1, m1 = proj.solve_with(cg, b)
        assert m1.iterations > 0
        # Second solve with the same rhs: the guess is already exact.
        x2, m2 = proj.solve_with(cg, b)
        assert np.allclose(x2, x1, atol=1e-8)
        assert m2.iterations <= 1

    def test_guess_quality_tracked(self):
        a = make_spd(25, seed=6)
        proj = SolutionProjection(lambda u: a @ u, dense_dot, max_dim=5)
        cg = ConjugateGradient(lambda u: a @ u, dense_dot, tol=1e-12, maxiter=200)
        b = np.ones(25)
        proj.solve_with(cg, b)
        proj.initial_guess(b)
        assert proj.last_guess_norm_fraction > 0.99

    def test_rolling_window(self):
        a = make_spd(20, seed=7)
        proj = SolutionProjection(lambda u: a @ u, dense_dot, max_dim=3)
        cg = ConjugateGradient(lambda u: a @ u, dense_dot, tol=1e-12, maxiter=100)
        rng = np.random.default_rng(8)
        for _ in range(6):
            proj.solve_with(cg, rng.normal(size=20))
        assert proj.dim <= 3

    def test_reduces_iterations_for_slowly_varying_rhs(self):
        # The saving equals the digits removed by deflation: the deflated
        # residual is ~||perturbation|| and only needs reducing to
        # tol * ||b|| (the absolute floor), not tol * ||r_deflated||.
        a = make_spd(40, seed=9, cond=1e3)
        cg = ConjugateGradient(lambda u: a @ u, dense_dot, tol=1e-10, maxiter=500)
        proj = SolutionProjection(lambda u: a @ u, dense_dot, max_dim=8)
        rng = np.random.default_rng(10)
        base = rng.normal(size=40)
        its_plain, its_proj = [], []
        for k in range(8):
            b = base + 1e-3 * rng.normal(size=40)
            _, m_plain = cg.solve(b)
            its_plain.append(m_plain.iterations)
            _, m_proj = proj.solve_with(cg, b)
            its_proj.append(m_proj.iterations)
        # Deflation removes ~99.9% of the right-hand side...
        assert proj.last_guess_norm_fraction > 0.995
        # ...and strictly reduces the iteration count after warmup (the
        # tail digits converge slowly on this ill-conditioned matrix, so
        # the saving is a solid margin rather than the full digit ratio).
        assert np.mean(its_proj[2:]) < 0.97 * np.mean(its_plain[2:])

    def test_basis_a_orthonormal(self):
        a = make_spd(15, seed=11)
        proj = SolutionProjection(lambda u: a @ u, dense_dot, max_dim=4)
        cg = ConjugateGradient(lambda u: a @ u, dense_dot, tol=1e-13, maxiter=60)
        rng = np.random.default_rng(12)
        for _ in range(4):
            proj.solve_with(cg, rng.normal(size=15))
        for i, xi in enumerate(proj._x):
            for j, xj in enumerate(proj._x):
                val = dense_dot(xi, a @ xj)
                expect = 1.0 if i == j else 0.0
                assert val == pytest.approx(expect, abs=1e-6)

    def test_clear(self):
        a = make_spd(10, seed=13)
        proj = SolutionProjection(lambda u: a @ u, dense_dot)
        cg = ConjugateGradient(lambda u: a @ u, dense_dot, tol=1e-12)
        proj.solve_with(cg, np.ones(10))
        assert proj.dim == 1
        proj.clear()
        assert proj.dim == 0

    def test_degenerate_direction_discarded(self):
        a = make_spd(10, seed=14)
        proj = SolutionProjection(lambda u: a @ u, dense_dot)
        proj.update(np.ones(10))
        # The same direction again contributes nothing.
        proj.update(np.ones(10))
        assert proj.dim == 1

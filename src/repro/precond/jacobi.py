"""Jacobi (diagonal) preconditioning for SEM Helmholtz operators.

The diagonal of the tensor-product stiffness matrix is computed in closed
form from the 1-D derivative matrix and the geometric factors (no operator
probing), assembled across elements with a gather--scatter sum, and
inverted once.  This is the preconditioner the paper uses for the velocity
and temperature solves.
"""

from __future__ import annotations

import numpy as np

from repro.precond.cache import CacheKey, OperatorCache, mask_fingerprint, resolve_cache
from repro.sem.space import FunctionSpace
from repro.sem.workspace import Workspace

__all__ = ["helmholtz_diagonal", "JacobiPrecond"]


def helmholtz_diagonal(
    space: FunctionSpace, h1: float | np.ndarray = 1.0, h2: float | np.ndarray = 0.0
) -> np.ndarray:
    """Unassembled elementwise diagonal of ``h1 * A + h2 * B``.

    For ``A = D_r^T G11 D_r + ... + D_s^T G12 D_r + ...`` the diagonal at
    node ``(k, j, i)`` is

        sum_m D[m,i]^2 G11[k,j,m] + sum_m D[m,j]^2 G22[k,m,i]
      + sum_m D[m,k]^2 G33[m,j,i]
      + 2 D[i,i] D[j,j] G12[k,j,i] + 2 D[i,i] D[k,k] G13[k,j,i]
      + 2 D[j,j] D[k,k] G23[k,j,i].

    (For GLL collocation the interior diagonal entries of ``D`` vanish, so
    the cross terms only contribute on element faces.)
    """
    c = space.coef
    d = np.asarray(space.dx)
    d2 = d * d  # d2[m, i] = D[m, i]^2
    ddiag = np.diag(d)

    diag = np.einsum("ekjm,mi->ekji", c.g11, d2)
    diag += np.einsum("ekmi,mj->ekji", c.g22, d2)
    diag += np.einsum("emji,mk->ekji", c.g33, d2)
    diag += 2.0 * c.g12 * ddiag[None, None, None, :] * ddiag[None, None, :, None]
    diag += 2.0 * c.g13 * ddiag[None, None, None, :] * ddiag[None, :, None, None]
    diag += 2.0 * c.g23 * ddiag[None, None, :, None] * ddiag[None, :, None, None]
    return h1 * diag + h2 * c.mass


class JacobiPrecond:
    """Assembled-diagonal Jacobi preconditioner.

    Parameters
    ----------
    space:
        The function space (supplies gather--scatter).
    h1, h2:
        Helmholtz coefficients; refresh with :meth:`update` when the time
        step (and hence ``h2 = b0 / dt``) changes.
    mask:
        Optional Dirichlet mask; masked dofs get an identity diagonal so
        that applying the preconditioner never touches them.
    cache:
        Operator-cache handle.  For *scalar* ``h1``/``h2`` the assembled
        inverse diagonal is a pure function of ``(space, h1, h2, mask)``
        and is shared through the cache (repeated jobs on the same mesh
        and time step skip the closed-form assembly); array-valued
        coefficients always rebuild.
    """

    def __init__(
        self,
        space: FunctionSpace,
        h1: float | np.ndarray = 1.0,
        h2: float | np.ndarray = 0.0,
        mask: np.ndarray | None = None,
        cache: OperatorCache | bool | None = None,
    ) -> None:
        self.space = space
        self.mask = mask
        self._cache = cache
        self._inv_diag: np.ndarray | None = None
        # Result buffer of __call__; copies and pickles start without it.
        self._workspace = Workspace()
        self.update(h1, h2)

    def _build_inv_diag(self, h1: float | np.ndarray, h2: float | np.ndarray) -> np.ndarray:
        diag = self.space.gs.add(helmholtz_diagonal(self.space, h1, h2))
        if self.mask is not None:
            diag = np.where(self.mask == 0.0, 1.0, diag)
        if np.any(diag <= 0.0):
            raise ValueError("Helmholtz diagonal is not positive; check h1/h2 signs")
        return 1.0 / diag

    def update(self, h1: float | np.ndarray, h2: float | np.ndarray) -> None:
        """Recompute the assembled diagonal for new Helmholtz coefficients."""
        if np.isscalar(h1) and np.isscalar(h2):
            key = CacheKey.for_space(
                self.space,
                f"jacobi_diag[h1={float(h1)!r};h2={float(h2)!r};"
                f"mask={mask_fingerprint(self.mask)}]",
            )
            self._inv_diag = resolve_cache(self._cache).get_or_build(
                key, lambda: self._build_inv_diag(h1, h2)
            )
        else:
            self._inv_diag = self._build_inv_diag(h1, h2)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """Apply ``z = diag(A)^{-1} r`` (masked dofs passed through zeroed).

        ``z`` is the preconditioner's own buffer, valid until its next
        call: the Krylov solvers consume it before preconditioning again
        (CG copies the first one into its direction, GMRES copies each
        into its stored directions).
        """
        z = self._workspace.get("z", r.shape)
        np.multiply(r, self._inv_diag, out=z)
        if self.mask is not None:
            z *= self.mask
        return z

"""Spectral-element method substrate.

This package implements the discretization layer of the framework: GLL
quadrature and polynomial bases, hexahedral meshes (box and butterfly
cylinder), the SEM function space with geometric factors and its kernel
scratch workspace, the two-phase gather--scatter operation, matrix-free
tensor-product operators, 3/2-rule dealiasing, and boundary-condition
masks.

The layout of all field data is ``(nelv, lx, lx, lx)`` with the *last* axis
the fastest-varying (r) direction, matching the memory layout used by
spectral-element codes for cache-friendly tensor contractions.
"""

from repro.sem.quadrature import gll_points_weights, gauss_legendre_points_weights
from repro.sem.basis import (
    legendre_polynomial,
    lagrange_interpolation_matrix,
    derivative_matrix,
    modal_transform_matrix,
)
from repro.sem.mesh import HexMesh, box_mesh, cylinder_mesh
from repro.sem.space import FunctionSpace
from repro.sem.workspace import Workspace
from repro.sem.field import Field
from repro.sem.coef import Coefficients
from repro.sem.gather_scatter import GatherScatter
from repro.sem.operators import (
    local_grad,
    physical_grad,
    ax_helmholtz,
    ax_poisson,
    weak_divergence,
    curl,
)
from repro.sem.dealias import Dealiaser
from repro.sem.bc import DirichletBC, BoundaryMask
from repro.sem.probes import FieldProbes
from repro.sem.filter import ModalFilter

__all__ = [
    "gll_points_weights",
    "gauss_legendre_points_weights",
    "legendre_polynomial",
    "lagrange_interpolation_matrix",
    "derivative_matrix",
    "modal_transform_matrix",
    "HexMesh",
    "box_mesh",
    "cylinder_mesh",
    "FunctionSpace",
    "Workspace",
    "Field",
    "Coefficients",
    "GatherScatter",
    "local_grad",
    "physical_grad",
    "ax_helmholtz",
    "ax_poisson",
    "weak_divergence",
    "curl",
    "Dealiaser",
    "DirichletBC",
    "BoundaryMask",
    "FieldProbes",
    "ModalFilter",
]

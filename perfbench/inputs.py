"""Seeded inputs of the benchmark workloads.

Every array or callable a workload hands to the program is built here from
the benchmark seed, so the same seed gives the same inputs and another seed
gives other inputs of the same size and character.  Each input kind draws
from its own ``default_rng([seed, stream])`` stream: adding a draw to one
kind never shifts another.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import legendre

__all__ = [
    "FIELD_TAGS",
    "RBC_PERTURBATION",
    "SNAPSHOT_DECAY",
    "rbc_initial_temperature",
    "helmholtz_rhs",
    "snapshot_stream",
]

_STREAM_RBC, _STREAM_RHS, _STREAM_SNAPSHOTS = 1, 2, 3

#: Peak amplitude of the RBC temperature perturbation.  The coefficients
#: are normalised to sum to one, so every seed starts from the same bound
#: on the perturbation and only the mode mix (phases, relative weights)
#: changes.
RBC_PERTURBATION = 0.1

#: Per-degree energy decay of the synthetic in-situ snapshots: the modal
#: coefficient of total degree ``d = i + j + k`` has standard deviation
#: ``SNAPSHOT_DECAY ** d``.  At this decay the compressor keeps about 8 %
#: of the coefficients at its 2.5 % error bound and stores about 2.4 % of
#: the raw bytes: the paper's 97 % reduction operating point (Fig. 5).
#: (Early-transient solver fields compress far further and would leave the
#: encoder almost idle.)
SNAPSHOT_DECAY = 0.4

#: The five fields of one in-situ snapshot, in the order they are written.
FIELD_TAGS = ("T", "u", "v", "w", "p")


def rbc_initial_temperature(seed: int, aspect: float = 2.0, modes: int = 3):
    """Conductive profile plus a seeded perturbation, as ``(x, y, z) -> T``.

    The perturbation is a sum of lateral harmonics ``cos(k_m x + a) *
    cos(k_n y + b)`` with ``k_m = 2 pi m / aspect`` for ``m, n = 0..modes``
    (not both zero), under a ``sin(pi z)`` envelope that vanishes on the
    plates.  ``m = 1`` is the box's lowest periodic mode (``k = pi`` for the
    aspect-2 box).  Phases are uniform and amplitudes decay like
    ``1 / |k|`` with a seeded factor in ``[0.5, 1]``.
    """
    rng = np.random.default_rng([seed, _STREAM_RBC])
    m, n = np.meshgrid(np.arange(modes + 1), np.arange(modes + 1), indexing="ij")
    m, n = m.ravel()[1:], n.ravel()[1:]
    amp = rng.uniform(0.5, 1.0, m.size) / np.hypot(m, n)
    amp *= RBC_PERTURBATION / amp.sum()
    phase_x = rng.uniform(0.0, 2.0 * np.pi, m.size)
    phase_y = rng.uniform(0.0, 2.0 * np.pi, m.size)
    kx = 2.0 * np.pi * m / aspect
    ky = 2.0 * np.pi * n / aspect

    def temperature(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        pert = np.zeros_like(z)
        for a, km, kn, px, py in zip(amp, kx, ky, phase_x, phase_y):
            pert += a * np.cos(km * x + px) * np.cos(kn * y + py)
        return 0.5 - z + np.sin(np.pi * z) * pert

    return temperature


def helmholtz_rhs(space, mask: np.ndarray, seed: int) -> np.ndarray:
    """An assembled, masked random right-hand side on ``space``."""
    rng = np.random.default_rng([seed, _STREAM_RHS])
    return space.gs.add(space.coef.mass * rng.normal(size=space.shape)) * mask


def _orthonormal_vandermonde(points: np.ndarray) -> np.ndarray:
    """``V[i, d]``: orthonormal Legendre polynomial of degree ``d`` at ``points[i]``."""
    lx = len(points)
    v = np.empty((lx, lx))
    for d in range(lx):
        coeff = np.zeros(d + 1)
        coeff[d] = 1.0
        v[:, d] = legendre.legval(points, coeff) * np.sqrt((2 * d + 1) / 2.0)
    return v


def snapshot_stream(space, seed: int, n_snapshots: int) -> list[dict[str, np.ndarray]]:
    """``n_snapshots`` synthetic snapshots of ``FIELD_TAGS`` on ``space``.

    Each field is built in the orthonormal Legendre basis of every element:
    Gaussian coefficients with standard deviation ``SNAPSHOT_DECAY ** (i +
    j + k)``, scaled per element by a smooth seeded envelope so the field
    has large-scale structure, then mapped to the GLL nodes.  The stated
    decay, not the solver, fixes how much the compressor keeps.
    """
    rng = np.random.default_rng([seed, _STREAM_SNAPSHOTS])
    lx = space.lx
    v = _orthonormal_vandermonde(np.asarray(space.points))
    deg = np.add.outer(np.add.outer(np.arange(lx), np.arange(lx)), np.arange(lx))
    scale = SNAPSHOT_DECAY ** deg
    # Element centroids drive the smooth per-element envelope.
    cx = space.x.reshape(space.nelv, -1).mean(axis=1)
    cy = space.y.reshape(space.nelv, -1).mean(axis=1)
    cz = space.z.reshape(space.nelv, -1).mean(axis=1)
    snapshots = []
    for _ in range(n_snapshots):
        snap = {}
        for tag in FIELD_TAGS:
            ph = rng.uniform(0.0, 2.0 * np.pi, 3)
            envelope = 1.0 + 0.5 * np.sin(np.pi * cx + ph[0]) * np.sin(np.pi * cy + ph[1])
            envelope *= 1.0 + 0.5 * np.cos(np.pi * cz + ph[2])
            uh = rng.normal(size=space.shape) * scale * envelope[:, None, None, None]
            # Nodal values: apply V along each of the three element axes.
            u = np.einsum("li,eabi->eabl", v, uh)
            u = np.einsum("li,eaib->ealb", v, u)
            u = np.einsum("li,eiab->elab", v, u)
            snap[tag] = np.ascontiguousarray(u)
        snapshots.append(snap)
    return snapshots

"""Per-space scratch buffers for the hot-path kernels.

Every kernel of a time step -- the matrix-free ``Ax``, the dealiased
convection, the Schwarz/FDM smoother, the gather--scatter inner product --
needs field-sized temporaries.  Allocating them per call makes the kernel
zero fresh pages on every Krylov iteration; Neko and NekRS instead keep
work arrays resident for the whole run (Neko's scratch registry).  A
:class:`Workspace` is that registry for one function space: named flat
buffers, created on first use, grown if a later request is larger, kept
for the lifetime of the space and handed out as reshaped views.

Two rules keep the sharing safe:

* **Lifetime.**  A buffer is scratch of the kernel that asks for it and is
  never returned to a caller, except where the caller says so explicitly
  (the ``amul`` closures of :mod:`repro.core`, whose return value is valid
  only until their next call).  Two roles that are alive at the same time
  must use different names; one name may serve several kernels that never
  nest, which is what keeps the resident set small.
* **Threads.**  Buffers are kept per thread (``threading.local``), so two
  threads that run kernels on one space never share scratch.  In practice
  only the solver thread runs kernels; the in-situ worker never does.

Copies and pickles of a workspace start empty.
"""

from __future__ import annotations

import threading
from math import prod

import numpy as np

__all__ = ["Workspace"]


class Workspace:
    """Named, lazily created, per-thread scratch buffers of one space."""

    def __init__(self) -> None:
        self._local = threading.local()

    def get(self, name: str, shape: tuple[int, ...], dtype: np.dtype | type = np.float64) -> np.ndarray:
        """A C-contiguous ``shape`` view of the buffer ``name``.

        The contents are undefined (whatever the last user left).  The
        buffer is allocated on the first request and reallocated only when
        a request is larger than every earlier one.
        """
        bufs = self._local.__dict__
        key = (name, np.dtype(dtype))
        size = prod(shape)
        buf = bufs.get(key)
        if buf is None or buf.size < size:
            buf = bufs[key] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)

    @property
    def nbytes(self) -> int:
        """Bytes held by the calling thread's buffers."""
        return sum(buf.nbytes for buf in self._local.__dict__.values())

    # Pickling (and so deep-copying) drops the buffers: scratch is never state.
    def __getstate__(self) -> dict:
        return {}

    def __setstate__(self, state: dict) -> None:
        self._local = threading.local()

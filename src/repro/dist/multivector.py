"""Distributed vectors and multivectors.

A :class:`DistMultiVector` is an ``n x m`` dense multivector split block-row
across the context's devices; each device holds a ``(local_n, m)`` panel
stored column-major (Fortran order), the way cuBLAS and MAGMA store the
basis ``V_{1:m+1}``.  Column and panel accessors return *views* (no
copies), and because of that layout every column ``V[:, j]`` and every
sub-panel ``V[:, j0:j1]`` is one contiguous block of memory: the SpMV and
the BLAS-1/2 kernels stream it with unit stride, and the BLAS-3 updates in
:mod:`repro.gpu.blas` write it in place.
"""

from __future__ import annotations

import numpy as np

from ..gpu.context import MultiGpuContext
from ..gpu.device import DeviceArray
from ..order.partition import Partition

__all__ = ["DistMultiVector", "DistVector"]


class DistMultiVector:
    """Block-row distributed ``n x n_cols`` multivector.

    Each device's ``(local_n, n_cols)`` panel is allocated column-major, so
    :meth:`column` and :meth:`panel` return F-contiguous views.

    Parameters
    ----------
    ctx
        The execution context (one panel per device).
    partition
        Row ownership; part ``d`` maps to ``ctx.devices[d]``.
    n_cols
        Number of columns (``m + 1`` for the GMRES basis).
    """

    def __init__(self, ctx: MultiGpuContext, partition: Partition, n_cols: int):
        if partition.n_parts != ctx.n_gpus:
            raise ValueError(
                f"partition has {partition.n_parts} parts but context has "
                f"{ctx.n_gpus} devices"
            )
        if n_cols < 1:
            raise ValueError("n_cols must be >= 1")
        self.ctx = ctx
        self.partition = partition
        self.n_cols = int(n_cols)
        self.local = [
            dev.zeros((partition.rows_of(d).size, n_cols))
            for d, dev in enumerate(ctx.devices)
        ]

    @property
    def n_rows(self) -> int:
        return self.partition.n_rows

    # -- views -------------------------------------------------------------
    def column(self, j: int) -> list[DeviceArray]:
        """Per-device contiguous views of column ``j``."""
        if not 0 <= j < self.n_cols:
            raise IndexError(f"column {j} out of range [0, {self.n_cols})")
        return [panel.view((slice(None), j)) for panel in self.local]

    def panel(self, j0: int, j1: int) -> list[DeviceArray]:
        """Per-device F-contiguous views of columns ``[j0, j1)``."""
        if not 0 <= j0 <= j1 <= self.n_cols:
            raise IndexError(f"panel [{j0}, {j1}) out of range")
        return [panel.view((slice(None), slice(j0, j1))) for panel in self.local]

    # -- host movement (costed) ---------------------------------------------
    def set_column_from_host(self, j: int, vector: np.ndarray) -> None:
        """Scatter a global host vector into column ``j`` (one h2d/device)."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.n_rows,):
            raise ValueError(
                f"vector must have shape ({self.n_rows},), got {vector.shape}"
            )
        for d, dev in enumerate(self.ctx.devices):
            rows = self.partition.rows_of(d)
            arrived = self.ctx.h2d(dev, vector[rows])
            self.local[d].data[:, j] = arrived.data

    def gather_column_to_host(self, j: int) -> np.ndarray:
        """Gather column ``j`` into a global host vector (one d2h/device)."""
        out = np.empty(self.n_rows, dtype=np.float64)
        for d in range(self.ctx.n_gpus):
            rows = self.partition.rows_of(d)
            out[rows] = self.ctx.d2h(self.column(j)[d])
        return out


class DistVector(DistMultiVector):
    """A single distributed vector (``n_cols == 1``) with flat accessors."""

    def __init__(self, ctx: MultiGpuContext, partition: Partition):
        super().__init__(ctx, partition, 1)

    def parts(self) -> list[DeviceArray]:
        """Per-device 1-D views of the vector."""
        return self.column(0)

    def set_from_host(self, vector: np.ndarray) -> None:
        """Scatter a global host vector (one h2d per device)."""
        self.set_column_from_host(0, vector)

    def to_host(self) -> np.ndarray:
        """Gather to a global host vector (one d2h per device)."""
        return self.gather_column_to_host(0)

    @classmethod
    def from_host(
        cls, ctx: MultiGpuContext, partition: Partition, vector: np.ndarray
    ) -> "DistVector":
        """Build and fill in one step."""
        out = cls(ctx, partition)
        out.set_from_host(vector)
        return out

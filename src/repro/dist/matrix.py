"""Block-row distributed sparse matrix with host-staged halo exchange.

Implements the paper's SpMV communication pattern (the Setup phase of
Fig. 4, with s = 1):

1. each GPU compresses the elements of its own vector part that *other*
   GPUs need and sends them to the CPU (one d2h message per device);
2. the CPU expands them into a full staging vector;
3. each GPU receives exactly the halo elements it requires (one h2d message
   per device) and expands them, together with its own part, into the
   extended local vector ``z = [own | halo]``;
4. each GPU runs a local ELLPACK SpMV on its remapped rows.

Unlike Fig. 4, step 4 starts before step 3 ends: each device stores its
interior rows (those with no halo column) first, runs them while its halo
is still on the bus, and runs the rest once the halo has landed.  Both runs
keep every row's width, so the padding and the sums are unchanged.

The index sets are precomputed on the CPU before the iteration begins, as
the paper does; the exchange itself is the generic
:class:`~repro.dist.exchange.StagedExchange`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..gpu import blas
from ..gpu.context import MultiGpuContext
from ..gpu.device import DeviceArray
from ..order.partition import Partition
from ..sparse.csr import CsrMatrix
from ..sparse.ellpack import EllpackMatrix
from .exchange import StagedExchange, in_flight
from .multivector import DistMultiVector

__all__ = ["HaloPlan", "DistributedMatrix"]


class HaloPlan(StagedExchange):
    """SpMV halo: each device requests the non-owned columns of its rows."""

    def __init__(self, matrix: CsrMatrix, partition: Partition):
        if matrix.n_rows != matrix.n_cols:
            raise ValueError("HaloPlan requires a square matrix")
        if matrix.n_rows != partition.n_rows:
            raise ValueError("matrix and partition sizes disagree")
        self.owned = [partition.rows_of(d) for d in range(partition.n_parts)]
        halos = []
        for d in range(partition.n_parts):
            local = matrix.extract_rows(self.owned[d])
            needed = np.unique(local.indices)
            halos.append(needed[partition.assignment[needed] != d])
        super().__init__(partition, halos)
        self.halo = self.recv_global


class DistributedMatrix:
    """Square sparse matrix distributed block-row over the context's devices.

    Each device stores ``A(rows_d, :)`` in ELLPACK with column indices
    remapped into the extended local vector ``[own | halo]``, its rows
    interior first: the rows that read no halo column, then the rest, each
    at the width of the whole local matrix.  This is the standard-GMRES
    SpMV operator; the matrix powers kernel
    (:class:`repro.mpk.MatrixPowersKernel`) generalizes it to ``s`` steps.

    Parameters
    ----------
    ctx
        Execution context.
    matrix
        The global CSR matrix (host side).
    partition
        Row ownership (must have ``ctx.n_gpus`` parts).
    """

    def __init__(self, ctx: MultiGpuContext, matrix: CsrMatrix, partition: Partition):
        if partition.n_parts != ctx.n_gpus:
            raise ValueError("partition parts must equal context device count")
        self.ctx = ctx
        self.global_matrix = matrix
        self.partition = partition
        self.plan = HaloPlan(matrix, partition)
        self.local_ell = []
        #: ``_order[d][r]``: the own row stored at ELLPACK row ``r``; ``None``
        #: when the rows keep their order.
        self._order: list[DeviceArray | None] = []
        #: ``_ready[d]``: the leading ELLPACK rows that read no halo value
        #: (every row on a device without a halo).
        self._ready: list[int] = []
        self._z = []
        n = matrix.n_rows
        lookup = np.empty(n, dtype=np.int64)
        for d, dev in enumerate(ctx.devices):
            owned = self.plan.owned[d]
            halo = self.plan.halo[d]
            ext = np.concatenate([owned, halo])
            lookup[ext] = np.arange(ext.size)
            local = matrix.extract_rows(owned)
            remapped = CsrMatrix(
                (owned.size, max(ext.size, 1)),
                local.indptr,
                lookup[local.indices],
                local.data,
            )
            ell = EllpackMatrix.from_csr(remapped)
            values, col_idx = ell.values, ell.col_idx
            # Halo entries of each row, by a prefix count over the entries.
            reads_halo = np.concatenate([[0], np.cumsum(remapped.indices >= owned.size)])
            boundary = reads_halo[remapped.indptr[1:]] > reads_halo[remapped.indptr[:-1]]
            ready = owned.size - int(np.count_nonzero(boundary))
            order = np.argsort(boundary, kind="stable")
            if np.array_equal(order, np.arange(owned.size)):
                order = None
            else:
                values, col_idx = values[order], col_idx[order]
            self._ready.append(ready)
            self._order.append(None if order is None else dev.adopt(order))
            # Matrix distribution is one-time setup: adopt without transfer.
            self.local_ell.append((dev.adopt(values), dev.adopt(col_idx)))
            self._z.append(dev.zeros((max(ext.size, 1), 1)))

    @property
    def n_rows(self) -> int:
        return self.global_matrix.n_rows

    def spmv(
        self,
        x: DistMultiVector | Sequence[DistMultiVector],
        j_in: int,
        y: DistMultiVector | Sequence[DistMultiVector],
        j_out: int,
    ) -> None:
        """Distributed ``y[:, j_out] = A @ x[:, j_in]`` with halo exchange.

        ``x`` and ``y`` may also be sequences of ``k`` multivectors, the
        right-hand sides of a batch: one exchange whose messages carry all
        ``k`` columns, then per device and vector the expand copies and the
        SpMV launches a single product makes.

        While its halo is on the bus, each device expands its own part and,
        if the halo has not landed yet, runs the interior rows; then it
        waits for the halo, places it and runs the rest.
        """
        xs = [x] if isinstance(x, DistMultiVector) else list(x)
        ys = [y] if isinstance(y, DistMultiVector) else list(y)
        columns = [X.column(j_in) for X in xs]
        outputs = [Y.column(j_out) for Y in ys]
        sources = [
            DeviceArray(np.column_stack([col[d].data for col in columns]), dev)
            for d, dev in enumerate(self.ctx.devices)
        ]
        received, arrivals = self.plan.exchange(self.ctx, sources)
        k = len(columns)
        if self._z[0].data.shape[1] < k:
            self._resize_buffers(k)
        with in_flight(self.ctx.devices, arrivals):
            for d, dev in enumerate(self.ctx.devices):
                self._compute(d, dev, columns, outputs, received[d], arrivals[d])

    def _compute(self, d, dev, columns, outputs, halo, arrival) -> None:
        """Device ``d``'s part of :meth:`spmv`, its halo on the bus until
        ``arrival`` (``None``: it has none)."""
        n_own = self.plan.owned[d].size
        values, col_idx = self.local_ell[d]
        order, ready = self._order[d], self._ready[d]
        z = [self._z[d].view((slice(None), c)) for c in range(len(columns))]
        early = []
        for c, (col, out) in enumerate(zip(columns, outputs)):
            # Expand the own part, and run the interior rows if the halo
            # is still on the bus.
            z[c].data[:n_own] = col[d].data
            dev.charge_kernel("copy", "cublas", n=n_own)
            dev.apply_pending_faults(z[c].data[:n_own])
            early.append(bool(ready) and (arrival is None or dev.clock < arrival))
            if early[c]:
                blas.spmv_ell(values, col_idx, z[c], out[d], stop=ready, order=order)
        if arrival is not None:
            dev.wait_until(arrival)
        for c, out in enumerate(outputs):
            if halo.size:
                # Halo placement is a device copy too (same undercounting
                # as the MPK setup phase had: the own-row copy was charged
                # but the halo copy was free).
                placed = z[c].data[n_own : n_own + halo.shape[0]]
                placed[...] = halo[:, c]
                dev.charge_kernel("copy", "cublas", n=halo.shape[0])
                dev.apply_pending_faults(placed)
            if not early[c] or ready < n_own:
                start = ready if early[c] else 0
                blas.spmv_ell(values, col_idx, z[c], out[d], start=start, order=order)

    def release_batch(self) -> None:
        """Shrink the expand buffers back to one column after a batch widened
        them (allocation is uncosted)."""
        if self._z[0].data.shape[1] > 1:
            self._resize_buffers(1)

    def _resize_buffers(self, k: int) -> None:
        self._z = [z.device.zeros((z.data.shape[0], k)) for z in self._z]

    def device_memory_bytes(self) -> list[int]:
        """Per-device bytes of the resident SpMV state (ELLPACK, row order
        and expand buffer)."""
        out = []
        for d in range(self.ctx.n_gpus):
            values, col_idx = self.local_ell[d]
            order = self._order[d]
            out.append(int(
                values.nbytes + col_idx.nbytes + self._z[d].nbytes
                + (0 if order is None else order.nbytes)
            ))
        return out

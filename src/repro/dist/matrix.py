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
from .exchange import StagedExchange
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
    remapped into the extended local vector ``[own | halo]``.  This is the
    standard-GMRES SpMV operator; the matrix powers kernel
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
            # Matrix distribution is one-time setup: adopt without transfer.
            self.local_ell.append((dev.adopt(ell.values), dev.adopt(ell.col_idx)))
            self._z.append(dev.zeros(max(ext.size, 1)))

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
        SpMV launch a single product makes.
        """
        xs = [x] if isinstance(x, DistMultiVector) else list(x)
        ys = [y] if isinstance(y, DistMultiVector) else list(y)
        columns = [X.column(j_in) for X in xs]
        outputs = [Y.column(j_out) for Y in ys]
        sources = [
            DeviceArray(np.column_stack([col[d].data for col in columns]), dev)
            for d, dev in enumerate(self.ctx.devices)
        ]
        received = self.plan.exchange(self.ctx, sources)
        for d, dev in enumerate(self.ctx.devices):
            z = self._z[d]
            n_own = self.plan.owned[d].size
            values, col_idx = self.local_ell[d]
            for c, (col, out) in enumerate(zip(columns, outputs)):
                # Expand own part + received halo into the extended vector.
                z.data[:n_own] = col[d].data
                dev.charge_kernel("copy", "cublas", n=n_own)
                dev.apply_pending_faults(z.data[:n_own])
                halo = received[d][:, c]
                if halo.size:
                    # Halo placement is a device copy too (same undercounting
                    # as the MPK setup phase had: the own-row copy was charged
                    # but the halo copy was free).
                    placed = z.data[n_own : n_own + halo.size]
                    placed[...] = halo
                    dev.charge_kernel("copy", "cublas", n=halo.size)
                    dev.apply_pending_faults(placed)
                blas.spmv_ell(values, col_idx, z, out[d])

    def device_memory_bytes(self) -> list[int]:
        """Per-device bytes of the resident SpMV state (ELLPACK + buffer)."""
        out = []
        for d in range(self.ctx.n_gpus):
            values, col_idx = self.local_ell[d]
            out.append(int(values.nbytes + col_idx.nbytes + self._z[d].nbytes))
        return out

"""The executable matrix powers kernel on the simulated devices.

Follows the Fig. 4 pseudocode:

* **Setup** — one staged exchange moves every boundary element
  (δ^(d,1:s)) to each device; the extended vector ``z`` is laid out
  level-ordered ``[own | δ^(s) | δ^(s-1) | … | δ^(1)]``.
* **Matrix powers** — step ``k`` computes the rows i^(d,k+1) of
  ``v_{k+1}``, which by the level ordering are the leading
  ``active_rows(k)`` rows of the extended local matrix: one fused step
  launch per step and device, no communication.  The launch is the
  prefix-SpMV, the Newton shift on the same prefix and the store of the
  own rows into the basis (:func:`repro.gpu.blas.spmv_step`).

Each device stores the extended local matrix ``A(i^(d,2), :)`` in CSR with
columns remapped into the extended-vector indexing; the memory overhead
relative to ``A^(d)`` is exactly the paper's surface-to-volume ratio.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..dist.exchange import StagedExchange
from ..dist.multivector import DistMultiVector
from ..gpu import blas
from ..gpu.context import MultiGpuContext
from ..gpu.device import DeviceArray
from ..order.partition import Partition
from ..sparse.csr import CsrMatrix
from .dependency import MpkDependency, compute_dependencies
from .shifts import ShiftOp, monomial_shift_ops

__all__ = ["MatrixPowersKernel"]


class MatrixPowersKernel:
    """MPK(s) over a block-row distributed matrix.

    Parameters
    ----------
    ctx
        Execution context (one local matrix per device).
    matrix
        Global CSR matrix (host side; structural setup happens on the CPU
        before the iteration, as in the paper).
    partition
        Row ownership, one part per device.
    s
        Number of powers generated per invocation.
    """

    def __init__(
        self, ctx: MultiGpuContext, matrix: CsrMatrix, partition: Partition, s: int
    ):
        if partition.n_parts != ctx.n_gpus:
            raise ValueError("partition parts must equal context device count")
        if s < 1:
            raise ValueError("s must be >= 1")
        self.ctx = ctx
        self.partition = partition
        self.s = int(s)
        self.deps: list[MpkDependency] = compute_dependencies(matrix, partition, s)
        self.exchange = StagedExchange(
            partition, [dep.boundary for dep in self.deps]
        )
        # Per-device extended local matrices and ping-pong buffers.
        self._local: list[tuple[DeviceArray, DeviceArray, DeviceArray]] = []
        self._buffers: list[list[DeviceArray]] = []
        n = matrix.n_rows
        lookup = np.empty(n, dtype=np.int64)
        for d, dev in enumerate(ctx.devices):
            dep = self.deps[d]
            ext = dep.ext_rows
            # Reset the shared scratch per device: a stale mapping left by
            # device d-1 could otherwise satisfy the closure check for a
            # column that is *not* in this device's extended set and remap
            # it to an arbitrary in-range slot (silently wrong numerics).
            lookup.fill(-1)
            lookup[ext] = np.arange(ext.size)
            # Rows computed anywhere in the kernel: i^(d,2) (prefix of ext).
            compute_rows = ext[: dep.i_size(2)]
            local = matrix.extract_rows(compute_rows)
            remapped_indices = lookup[local.indices]
            if local.nnz and remapped_indices.min() < 0:
                raise AssertionError(
                    f"MPK dependency closure violated on device {dev.name}"
                )
            self._local.append(
                (
                    dev.adopt(local.indptr),
                    dev.adopt(remapped_indices),
                    dev.adopt(local.data),
                )
            )
            # Three buffers: current, next, and previous (for complex pairs),
            # each with one column per right-hand side of the largest batch
            # run so far (see :meth:`run`).
            self._buffers.append([dev.zeros((max(ext.size, 1), 1)) for _ in range(3)])

    # ------------------------------------------------------------------
    def run(
        self,
        V: DistMultiVector | Sequence[DistMultiVector],
        j_start: int,
        shift_ops: list[ShiftOp] | None = None,
    ) -> None:
        """Generate ``V[:, j_start+1 … j_start+s]`` from ``V[:, j_start]``.

        ``shift_ops`` defaults to the monomial basis; pass
        :func:`repro.mpk.shifts.newton_shift_ops` output for the Newton
        basis.  A ``complex_second`` op must directly follow its
        ``complex_first``.

        ``V`` may also be a sequence of ``k`` multivectors, one per
        right-hand side of a batch, that share ``j_start`` and the shift
        operations.  Their block is generated in one pass: one staged
        exchange whose messages carry all ``k`` columns, then per step and
        device one step launch over all ``k`` columns.  The
        arithmetic stays per column and in the single-vector order, so each
        multivector ends up bit-identical to a call of its own.
        """
        Vs = [V] if isinstance(V, DistMultiVector) else list(V)
        if shift_ops is None:
            shift_ops = monomial_shift_ops(self.s)
        if len(shift_ops) != self.s:
            raise ValueError(f"expected {self.s} shift ops, got {len(shift_ops)}")
        _check_pairing(shift_ops)
        terms = [_shift_terms(op) for op in shift_ops]
        if any(j_start + self.s >= W.n_cols for W in Vs):
            raise IndexError("multivector has too few columns for this MPK run")
        k = len(Vs)
        if self._buffers[0][0].data.shape[1] < k:
            self._resize_buffers(k)

        # The input columns go straight into the own rows of the extended
        # vectors, and the exchange gathers from there; the copy is charged
        # below, after the exchange, where the kernel places them.
        sources = []
        for d, buffers in enumerate(self._buffers):
            z_cur = buffers[1]
            n_own = self.deps[d].n_owned
            for c, W in enumerate(Vs):
                z_cur.data[:n_own, c] = W.local[d].data[:, j_start]
            sources.append(z_cur.view((slice(0, n_own), slice(0, k))))
        received = self.exchange.exchange(self.ctx, sources)

        for d, dev in enumerate(self.ctx.devices):
            dep = self.deps[d]
            z_prev, z_cur, z_next = (
                buf.view((slice(None), slice(0, k))) for buf in self._buffers[d]
            )
            n_own = dep.n_owned
            dev.charge_kernel("copy", "cublas", n=n_own * k)
            dev.apply_pending_faults(z_cur.data[:n_own])
            halo = received[d]
            if halo.size:
                # Placing the halo into the extended vector is a device copy
                # of |δ^(d,1:s)| elements — part of the MPK setup phase the
                # paper times, so it is charged like the own-row copy above.
                placed = z_cur.data[n_own : n_own + halo.shape[0]]
                placed[...] = halo
                dev.charge_kernel("copy", "cublas", n=halo.size)
                dev.apply_pending_faults(placed)
            indptr, indices, data = self._local[d]
            for step, shift in enumerate(terms, start=1):
                # The Newton shift and the store of the own rows (the leading
                # n_own entries of the prefix) ride in the step's launch.
                blas.spmv_step(
                    indptr, indices, data, z_prev, z_cur, z_next,
                    dep.active_rows(step),
                    [W.local[d].view((slice(None), j_start + step)) for W in Vs],
                    **shift,
                )
                z_prev, z_cur, z_next = z_cur, z_next, z_prev

    def release_batch(self) -> None:
        """Shrink the ping-pong buffers back to one column after a batch
        widened them (allocation is uncosted)."""
        if self._buffers[0][0].data.shape[1] > 1:
            self._resize_buffers(1)

    def _resize_buffers(self, k: int) -> None:
        self._buffers = [
            [buf.device.zeros((buf.data.shape[0], k)) for buf in buffers]
            for buffers in self._buffers
        ]

    def step_seconds(self) -> list[float]:
        """Modeled time of a monomial single-vector :meth:`run`'s step
        launches, per device (the compute part of MPK: no exchange, no
        setup copies)."""
        perf = self.ctx.perf
        out = []
        for d, dep in enumerate(self.deps):
            ptr = self._local[d][0].data
            out.append(sum(
                perf.kernel_cost(
                    "spmv_step", "ellpack", on="gpu",
                    nnz=int(ptr[dep.active_rows(step)]),
                    n_rows=dep.active_rows(step), k=1, terms=0,
                    stored=dep.n_owned,
                )[0]
                for step in range(1, self.s + 1)
            ))
        return out

    # ------------------------------------------------------------------
    # Structural accessors used by the analysis/benchmarks
    # ------------------------------------------------------------------
    def boundary_sizes(self) -> list[int]:
        """|δ^(d,1:s)| per device (extra vector elements gathered)."""
        return [int(dep.boundary.size) for dep in self.deps]

    def device_memory_bytes(self) -> list[int]:
        """Per-device bytes of the kernel's resident state.

        The extended local matrix (indptr/indices/data) plus the three
        ping-pong buffers — the memory-for-latency trade of Section IV-A.
        Compare against ``ctx.machine.gpu.memory_bytes`` when planning runs.
        """
        out = []
        for d in range(len(self.deps)):
            indptr, indices, data = self._local[d]
            buffers = sum(buf.nbytes for buf in self._buffers[d])
            out.append(
                int(indptr.nbytes + indices.nbytes + data.nbytes + buffers)
            )
        return out

    def extra_nnz(self) -> list[int]:
        """Stored nonzeros of the boundary submatrix A(δ^(d,1:s), :)."""
        out = []
        for d, dep in enumerate(self.deps):
            indptr = self._local[d][0].data
            own_end = int(indptr[dep.n_owned])
            total = int(indptr[-1])
            out.append(total - own_end)
        return out


def _shift_terms(op: ShiftOp) -> dict[str, float]:
    """The shift terms of one step, as :func:`repro.gpu.blas.spmv_step`
    keywords."""
    if op.kind in ("real", "complex_first"):
        return {"re": op.re}
    if op.kind == "complex_second":
        return {"re": op.re, "im2": op.im**2}
    return {}


def _check_pairing(ops: list[ShiftOp]) -> None:
    """Validate that complex pair ops are properly adjacent."""
    expect_second = False
    for op in ops:
        if expect_second:
            if op.kind != "complex_second":
                raise ValueError("complex_first must be followed by complex_second")
            expect_second = False
        elif op.kind == "complex_second":
            raise ValueError("complex_second without preceding complex_first")
        elif op.kind == "complex_first":
            expect_second = True
    if expect_second:
        raise ValueError("dangling complex_first at end of shift sequence")

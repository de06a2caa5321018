"""The executable matrix powers kernel on the simulated devices.

Follows the Fig. 4 pseudocode, with the Setup exchange overlapped:

* **Setup** — one staged exchange moves every boundary element
  (δ^(d,1:s)) to each device; the extended vector ``z`` is laid out
  level-ordered ``[own | δ^(s) | δ^(s-1) | … | δ^(1)]``.
* **Matrix powers** — step ``k`` computes the rows i^(d,k+1) of
  ``v_{k+1}``, which by the level ordering are the leading
  ``active_rows(k)`` rows of the extended local matrix: one fused step
  launch per step and device, no communication.  The launch is the
  prefix-SpMV, the Newton shift on the same prefix and the store of the
  own rows into the basis (:func:`repro.gpu.blas.spmv_step`).

Fig. 4 waits for the whole Setup before the first step.  Here the own rows
are ordered interior first, by descending halo distance
(:func:`~repro.mpk.dependency.halo_levels`), so the own rows whose ``k``-hop
neighbourhood holds no halo row — the ones step ``k`` can compute before
the halo lands — are a leading row range of every step.  Each device ships
its gather and then, *while its halo is on the bus*, launches those rows
of steps 1, 2, … for as long as its clock is below the halo's scheduled
arrival (phase 1).  Then it waits, places the halo, and launches the rest of
every step (phase 2).  Halo distances of neighbours differ by at most one,
so the three ping-pong buffers stay enough for any phase-1 depth.  Every
row keeps its data, storage order and compiled kernel, so each result is
bit-identical to the unsplit steps; the input copy and the basis store go
through the own-row order.  A device without a halo runs each step whole.

Each device stores the extended local matrix ``A(i^(d,2), :)`` in CSR with
columns remapped into the extended-vector indexing; the memory overhead
relative to ``A^(d)`` is exactly the paper's surface-to-volume ratio.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..dist.exchange import StagedExchange, in_flight
from ..dist.multivector import DistMultiVector
from ..gpu import blas
from ..gpu.context import MultiGpuContext
from ..gpu.device import DeviceArray
from ..order.partition import Partition
from ..sparse.csr import CsrMatrix
from .dependency import MpkDependency, compute_dependencies, halo_levels
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
        # Only a device with a halo reorders its rows (one GPU has none).
        levels = (
            halo_levels(matrix, partition, self.s + 1)
            if any(dep.boundary.size for dep in self.deps) else None
        )
        # Per-device extended local matrices and ping-pong buffers.
        self._local: list[tuple[DeviceArray, DeviceArray, DeviceArray]] = []
        self._buffers: list[list[DeviceArray]] = []
        #: ``_order[d][q]``: the own row (its position in the device's part)
        #: at extended row ``q``; ``None`` when the own rows keep their order.
        self._order: list[DeviceArray | None] = []
        #: ``_ready[d][k-1]``: the leading rows of step ``k`` that do not
        #: depend on the halo (every active row on a device without one).
        self._ready: list[list[int]] = []
        #: Steps whose halo-independent rows each device launched before its
        #: halo landed, in the latest :meth:`run`.
        self.phase1_depths = [0] * len(self.deps)
        n = matrix.n_rows
        lookup = np.empty(n, dtype=np.int64)
        for d, dev in enumerate(ctx.devices):
            dep = self.deps[d]
            ext = dep.ext_rows
            order = None
            if dep.boundary.size:
                own_levels = levels[dep.owned]
                # Interior first (descending halo distance), so each phase of
                # a step is one row range.
                order = np.argsort(-own_levels, kind="stable")
                above = np.cumsum(np.bincount(own_levels, minlength=self.s + 2)[::-1])[::-1]
                self._ready.append([int(above[k + 1]) for k in range(1, self.s + 1)])
                if np.array_equal(order, np.arange(order.size)):
                    order = None
                else:
                    ext = np.concatenate([dep.owned[order], dep.boundary])
                    # The exchange gathers from the permuted own rows.
                    position = np.empty_like(order)
                    position[order] = np.arange(order.size)
                    self.exchange.send_local[d] = position[self.exchange.send_local[d]]
            else:
                self._ready.append([dep.active_rows(k) for k in range(1, self.s + 1)])
            self._order.append(None if order is None else dev.adopt(order))
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
        exchange whose messages carry all ``k`` columns, then per step,
        phase and device one step launch over all ``k`` columns.  The
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
            order = self._order[d]
            for c, W in enumerate(Vs):
                column = W.local[d].data[:, j_start]
                if order is None:
                    z_cur.data[:n_own, c] = column
                else:
                    np.take(column, order.data, out=z_cur.data[:n_own, c])
            sources.append(z_cur.view((slice(0, n_own), slice(0, k))))
        received, arrivals = self.exchange.exchange(self.ctx, sources)
        with in_flight(self.ctx.devices, arrivals):
            for d, dev in enumerate(self.ctx.devices):
                self._compute(d, dev, Vs, j_start, terms, received[d], arrivals[d])

    def _compute(self, d, dev, Vs, j_start, terms, halo, arrival) -> None:
        """Device ``d``'s steps of :meth:`run`, its halo on the bus until
        ``arrival`` (``None``: it has none)."""
        dep, ready, order = self.deps[d], self._ready[d], self._order[d]
        panels = [buf.view((slice(None), slice(0, len(Vs)))) for buf in self._buffers[d]]
        n_own = dep.n_owned
        dev.charge_kernel("copy", "cublas", n=n_own * len(Vs))
        dev.apply_pending_faults(panels[1].data[:n_own])
        indptr, indices, data = self._local[d]

        def launch(step: int, start: int, stop: int) -> None:
            # z_j lives in panel (j + 1) % 3: step k reads z_{k-1} (and
            # z_{k-2}) and writes z_k.  The Newton shift and the store of
            # the own rows ride in the step's launch.
            blas.spmv_step(
                indptr, indices, data, panels[(step - 1) % 3],
                panels[step % 3], panels[(step + 1) % 3], stop,
                [W.local[d].view((slice(None), j_start + step)) for W in Vs],
                **terms[step - 1], start=start, order=order,
            )

        # Phase 1: while the halo is on the bus, the rows of the next steps
        # that do not read it.  Halo distances of neighbours differ by at
        # most one, so no row reads a value that a deeper row of this phase
        # has already overwritten in the three buffers.
        depth = 0
        while depth < self.s and ready[depth] and (arrival is None or dev.clock < arrival):
            depth += 1
            launch(depth, 0, ready[depth - 1])
        self.phase1_depths[d] = depth
        # Phase 2: the halo, then the rest of every step.
        if arrival is not None:
            dev.wait_until(arrival)
        if halo.size:
            # Placing the halo into the extended vector is a device copy of
            # |δ^(d,1:s)| elements — part of the MPK setup phase the paper
            # times, so it is charged like the own-row copy above.
            placed = panels[1].data[n_own : n_own + halo.shape[0]]
            placed[...] = halo
            dev.charge_kernel("copy", "cublas", n=halo.size)
            dev.apply_pending_faults(placed)
        for step, start, stop in self._rest(d, depth):
            launch(step, start, stop)

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
        setup copies), with the phase-1 depths of the latest run: its
        phase-1 launches, then the rest of every step."""
        perf = self.ctx.perf
        out = []
        for d, dep in enumerate(self.deps):
            ptr = self._local[d][0].data
            depth = self.phase1_depths[d]
            phase1 = [(0, self._ready[d][step - 1]) for step in range(1, depth + 1)]
            rest = [(start, stop) for _, start, stop in self._rest(d, depth)]
            out.append(sum(
                perf.kernel_cost(
                    "spmv_step", "ellpack", on="gpu",
                    nnz=int(ptr[stop] - ptr[start]), n_rows=stop - start, k=1,
                    terms=0, stored=max(0, min(stop, dep.n_owned) - start),
                )[0]
                for start, stop in phase1 + rest
            ))
        return out

    def _rest(self, d: int, depth: int) -> list[tuple[int, int, int]]:
        """``(step, start, stop)`` of device ``d``'s launches after its halo
        lands, when phase 1 ran ``depth`` steps: the rows each of those
        steps has left, then every later step whole."""
        dep, ready = self.deps[d], self._ready[d]
        out = []
        for step in range(1, self.s + 1):
            start = ready[step - 1] if step <= depth else 0
            if step > depth or start < dep.active_rows(step):
                out.append((step, start, dep.active_rows(step)))
        return out

    # ------------------------------------------------------------------
    # Structural accessors used by the analysis/benchmarks
    # ------------------------------------------------------------------
    def boundary_sizes(self) -> list[int]:
        """|δ^(d,1:s)| per device (extra vector elements gathered)."""
        return [int(dep.boundary.size) for dep in self.deps]

    def device_memory_bytes(self) -> list[int]:
        """Per-device bytes of the kernel's resident state.

        The extended local matrix (indptr/indices/data), the own-row order
        and the three ping-pong buffers — the memory-for-latency trade of
        Section IV-A.  Compare against ``ctx.machine.gpu.memory_bytes`` when
        planning runs.
        """
        out = []
        for d in range(len(self.deps)):
            indptr, indices, data = self._local[d]
            buffers = sum(buf.nbytes for buf in self._buffers[d])
            order = self._order[d]
            out.append(int(
                indptr.nbytes + indices.nbytes + data.nbytes + buffers
                + (0 if order is None else order.nbytes)
            ))
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

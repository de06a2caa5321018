"""Generic host-staged gather/scatter exchange.

Both the per-iteration SpMV halo exchange and the matrix powers kernel's
setup phase move vector elements the same way (Fig. 4 Setup):

* every device compresses the elements of its own part that *any* other
  device needs and ships them to the CPU (<= 1 d2h message per device);
* the CPU assembles them into a staging buffer;
* every device receives exactly the elements it asked for
  (<= 1 h2d message per device).

The paper's Fig. 4 then waits for the halo before any local work.  Here
the exchange only *ships* it: :meth:`StagedExchange.exchange` returns each
device's halo with its scheduled arrival on the bus, and the consumers
(:class:`~repro.dist.matrix.DistributedMatrix` and
:class:`~repro.mpk.MatrixPowersKernel`) launch the rows that do not read
the halo while it is in flight, then wait for it and compute the rest.

:class:`StagedExchange` precomputes the index sets once (on the CPU, before
the iteration starts — as the paper does) and replays the exchange for any
source vector.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..faults.errors import TransferCorruption
from ..gpu.context import MultiGpuContext
from ..gpu.device import DeviceArray
from ..order.partition import Partition

__all__ = ["MAX_TRANSFER_RETRIES", "StagedExchange", "in_flight"]

#: How many times one corrupted transfer is re-issued before
#: :class:`TransferCorruption` escalates to the solver.
MAX_TRANSFER_RETRIES = 2


@contextmanager
def in_flight(devices, arrivals: list[float | None]):
    """Run the consumers' work while the halos are on the bus.

    Should that work raise, every device first waits for its halo
    (``arrivals[d]``, ``None`` for none), so the messages it was sent land
    inside the caller's region all the same.
    """
    try:
        yield
    except BaseException:
        for dev, arrival in zip(devices, arrivals):
            if arrival is not None:
                dev.wait_until(arrival)
        raise


class StagedExchange:
    """Precomputed CPU-staged exchange for a fixed set of requested elements.

    Parameters
    ----------
    partition
        Row ownership.
    recv_global
        ``recv_global[d]`` lists the *global* indices of the non-owned
        elements device ``d`` must receive (sorted, unique, none owned
        by ``d``).

    A transfer that arrives corrupted (the context checks every arrival)
    is re-issued up to :data:`MAX_TRANSFER_RETRIES` times.  Corruption is
    transient — the source buffer is intact — so a retry delivers clean
    bytes at the cost of one extra (costed) bus message.  After the budget
    is exhausted :class:`TransferCorruption` propagates to the solver's
    panel/cycle retry machinery.
    """

    def __init__(self, partition: Partition, recv_global: list[np.ndarray]):
        if len(recv_global) != partition.n_parts:
            raise ValueError("recv_global must have one entry per part")
        self.partition = partition
        self.recv_global = [
            np.ascontiguousarray(r, dtype=np.int64) for r in recv_global
        ]
        for d, req in enumerate(self.recv_global):
            if req.size and np.any(partition.assignment[req] == d):
                raise ValueError(f"device {d} requested elements it already owns")
        owned = [partition.rows_of(d) for d in range(partition.n_parts)]
        nonempty = [r for r in self.recv_global if r.size]
        self.union_requested = (
            np.unique(np.concatenate(nonempty))
            if nonempty
            else np.empty(0, dtype=np.int64)
        )
        # send_local[d]: positions within device d's own part to compress.
        # _stage_mask[d]: which staging slots device d's gather fills — like
        # send_local this is invariant across exchanges, so it is computed
        # once here instead of on the per-iteration halo-exchange hot path.
        self.send_local = []
        self._stage_mask = []
        for d in range(partition.n_parts):
            mask = partition.assignment[self.union_requested] == d
            mine = self.union_requested[mask]
            self.send_local.append(np.searchsorted(owned[d], mine))
            self._stage_mask.append(mask)
        # staging positions of each device's incoming elements
        self._stage_pos = [
            np.searchsorted(self.union_requested, req) for req in self.recv_global
        ]
        # The staging buffer is exchange-invariant in size and every slot is
        # rewritten by the gather phase of each call, so it is allocated
        # once here instead of on every (hot-path) exchange; so is the
        # ``(k, elements)`` one of each panel width, at its first use.
        self._stage = np.empty(self.union_requested.size, dtype=np.float64)
        self._panel_stages: dict[int, np.ndarray] = {}

    # -- volumes (paper Section IV-B accounting) ---------------------------
    def gather_volume(self) -> int:
        """Elements moved GPU->CPU per exchange: ``|union_d requested_d|``."""
        return int(self.union_requested.size)

    def scatter_volume(self) -> int:
        """Elements moved CPU->GPU per exchange: ``sum_d |requested_d|``."""
        return int(sum(r.size for r in self.recv_global))

    def total_volume(self) -> int:
        """Gather + scatter element count per exchange."""
        return self.gather_volume() + self.scatter_volume()

    # -- execution ----------------------------------------------------------
    def _retried(self, ctx: MultiGpuContext, transfer, what: str):
        """Run ``transfer()``, re-issuing it on transient corruption."""
        last = None
        for attempt in range(MAX_TRANSFER_RETRIES + 1):
            try:
                result = transfer()
            except TransferCorruption as exc:
                last = exc
                continue
            if attempt:
                ctx.faults.note_recovery(
                    "transfer-retry", time=ctx.current_time(), what=what,
                    attempts=attempt,
                )
            return result
        raise last

    def exchange(
        self, ctx: MultiGpuContext, x_parts: list[DeviceArray]
    ) -> tuple[list[np.ndarray], list[float | None]]:
        """Ship one exchange of the current values of ``x_parts``.

        ``x_parts[d]`` is device ``d``'s part: a vector, or a ``(rows, k)``
        panel whose ``k`` columns (the right-hand sides of a batch) travel
        together.  Returns ``(received, arrivals)``: ``received[d]`` holds
        the values of ``recv_global[d]`` (one row per element) on device
        ``d``, and ``arrivals[d]`` is the simulated time they land there
        (``None`` when device ``d`` receives nothing).  The devices do not
        wait for their halo here: each one may launch work that does not
        read it, and must ``wait_until(arrivals[d])`` before it does.  The
        callers run that work under :func:`in_flight`.
        Issues at most one d2h and one h2d message per device whatever
        ``k`` is — plus up to :data:`MAX_TRANSFER_RETRIES` re-issues per
        transfer when the context detects corrupted payloads.
        """
        if len(x_parts) != self.partition.n_parts:
            raise ValueError("x_parts must have one entry per device")
        columns = x_parts[0].data.shape[1:]
        stage = self._stage
        if columns:
            stage = self._panel_stages.get(columns[0])
            if stage is None:
                stage = self._panel_stages[columns[0]] = np.empty(
                    (columns[0], self.union_requested.size)
                )
        # Payloads and stage hold a panel column by column (its transpose),
        # so every gather and scatter runs over 1-D rows: numpy indexes
        # those several times faster than the rows of a 2-D array.
        for d, dev in enumerate(ctx.devices):
            send = self.send_local[d]
            if send.size == 0:
                continue
            compressed = DeviceArray(np.take(x_parts[d].data.T, send, axis=-1), dev)
            dev.charge_kernel("copy", "cublas", n=compressed.data.size)
            dev.apply_pending_faults(compressed)
            arrived = self._retried(
                ctx, lambda: ctx.d2h(compressed), f"gather d2h {dev.name}"
            )
            mask = self._stage_mask[d]
            for row, values in zip(np.atleast_2d(stage), np.atleast_2d(arrived)):
                row[mask] = values
        received: list[np.ndarray] = []
        arrivals: list[float | None] = []
        with in_flight(ctx.devices, arrivals):
            for d, dev in enumerate(ctx.devices):
                pos = self._stage_pos[d]
                if pos.size == 0:
                    received.append(np.empty((0, *columns), dtype=np.float64))
                    arrivals.append(None)
                    continue
                arrived, end = self._retried(
                    ctx, lambda: ctx.h2d_async(dev, np.take(stage, pos, axis=-1)),
                    f"scatter h2d {dev.name}",
                )
                received.append(arrived.data.T)
                arrivals.append(end)
        return received, arrivals

"""PCIe bus model.

The three M2090s in a Keeneland node reach the host over PCIe gen 2; the
paper identifies the gather/scatter of vector elements over this bus as the
SpMV bottleneck that MPK amortizes (Section IV).  The model:

* each message costs ``latency + bytes / bandwidth``;
* when ``shared_bus`` is set (the default, matching the testbed), transfers
  from different devices serialize on the bus: a transfer starts no earlier
  than both its producer's clock and the bus's previous completion;
* a transfer never blocks its *producer* (DMA copy engines run alongside
  compute); it delays its *consumer*, which waits for the data's arrival.
"""

from __future__ import annotations

from ..faults.errors import DeviceLost
from ..perf.machine import PcieSpec
from .trace import PCIE_LANE

__all__ = ["PcieBus"]


class PcieBus:
    """Shared host-device interconnect with latency/bandwidth/serialization."""

    def __init__(self, spec: PcieSpec, trace=None, faults=None):
        self.spec = spec
        self.busy_until = 0.0
        self.trace = trace
        #: Trace lane of this bus (``pcie<k>`` for node ``k`` > 0).
        self.lane = PCIE_LANE
        #: Optional fault injector; consulted once per scheduled message
        #: (transfer corruption is left pending for the context to apply
        #: to the arriving payload copy, stalls extend the occupancy).
        self.faults = faults
        #: Peers whose lanes were torn down by a mid-run device
        #: deactivation; scheduling a message for one raises
        #: :class:`DeviceLost` (see :meth:`deactivate_peer`).
        self.deactivated: set[str] = set()

    def deactivate_peer(self, peer: str) -> None:
        """Tear down ``peer``'s lanes: further messages to/from it raise."""
        self.deactivated.add(peer)

    def message_time(self, nbytes: int) -> float:
        """Cost of one message of ``nbytes`` in isolation."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return self.spec.latency + nbytes / self.spec.bandwidth

    def schedule(
        self, ready_at: float, nbytes: int, kind: str = "xfer", peer: str | None = None
    ) -> float:
        """Schedule a message whose payload is ready at ``ready_at``.

        Returns the completion time.  With a shared bus the transfer also
        queues behind the previous one.  When a trace recorder is attached,
        the bus-occupancy interval is recorded in the :attr:`lane` with the
        transfer direction (``kind``), byte count, and ``peer`` device.
        """
        if peer is not None and peer in self.deactivated:
            raise DeviceLost(peer, f"{kind} message scheduled for lost device {peer}")
        start = max(ready_at, self.busy_until) if self.spec.shared_bus else ready_at
        end = start + self.message_time(nbytes)
        if self.faults is not None and self.faults.active:
            end += self.faults.on_bus_message(kind, peer, nbytes, start, end - start)
        if self.spec.shared_bus:
            self.busy_until = end
        if self.trace is not None:
            name = kind if peer is None else f"{kind} {peer}"
            self.trace.record(
                name, self.lane, kind, start, end - start, bytes=int(nbytes), peer=peer
            )
        return end

    def reset(self) -> None:
        """Clear bus occupancy and lane teardowns (context clock reset)."""
        self.busy_until = 0.0
        self.deactivated.clear()

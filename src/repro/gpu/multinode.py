"""Multi-node execution context (the paper's Section VII outlook).

"We would like to study ... the performance of CA-GMRES on a larger number
of GPUs, in particular, the GPUs distributed over multiple compute nodes,
where the communication is more expensive."

:class:`MultiNodeContext` extends the single-node simulator: devices are
split over ``n_nodes`` nodes, each with its own PCIe bus, and all host
staging is rooted at node 0 — data from a device on node ``k > 0`` crosses
that node's PCIe bus *and* an inter-node network link (higher latency,
lower bandwidth, e.g. InfiniBand QDR of the Keeneland era).  Every
communication pattern of the solvers (reductions, broadcasts, halo
exchanges) automatically pays the extra cost, so the latency-avoiding
value of MPK/CholQR grows exactly as the paper anticipates.

The context only builds per-device transfer routes (node bus, then network
link) that the inherited ``h2d``/``d2h`` walk, so remote transfers are
traced, counted, fault-checked and validated like local ones.  Node ``k``'s
bus and link record one message each on the ``pcie<k>``/``net<k>`` lanes.
Every node's PCIe bus consults the fault injector (all draw from its one
``pcie`` site); network links have no fault model.

The root host plays the MPI-rank-0 role of the staging CPU; remote hosts
act as relays (their relay time is folded into the network message).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..perf.machine import MachineSpec, keeneland_node
from .context import MultiGpuContext
from .device import Device
from .pcie import PcieBus

__all__ = ["NetworkSpec", "MultiNodeContext", "infiniband_qdr"]


@dataclass(frozen=True)
class NetworkSpec:
    """Inter-node interconnect: per-message latency and bandwidth."""

    latency: float  # seconds per message
    bandwidth: float  # bytes/s

    def __post_init__(self):
        if self.latency < 0 or self.bandwidth <= 0:
            raise ValueError("network spec must be positive")


def infiniband_qdr() -> NetworkSpec:
    """Keeneland-era InfiniBand QDR: ~2 us MPI latency, ~3.2 GB/s."""
    return NetworkSpec(latency=2.0e-6, bandwidth=3.2e9)


class _NetworkLink:
    """One remote node's link to the root: serializes that node's messages."""

    def __init__(self, spec: NetworkSpec, trace, lane: str):
        self.spec = spec
        self.trace = trace
        self.lane = lane
        self.busy_until = 0.0

    def schedule(self, ready_at: float, nbytes: int, kind: str, peer: str) -> float:
        """Send one message; records its interval and returns its arrival."""
        start = max(ready_at, self.busy_until)
        end = start + self.spec.latency + nbytes / self.spec.bandwidth
        self.busy_until = end
        self.trace.record(
            f"{kind} {peer}", self.lane, kind, start, end - start,
            bytes=int(nbytes), peer=peer,
        )
        return end

    def reset(self) -> None:
        self.busy_until = 0.0


class MultiNodeContext(MultiGpuContext):
    """Devices spread over several nodes, staged through the root host.

    Parameters
    ----------
    n_nodes
        Number of compute nodes.
    gpus_per_node
        Devices per node (total devices = ``n_nodes * gpus_per_node``).
    machine
        Per-node machine description (defaults to a Keeneland node).
    network
        Inter-node link (defaults to InfiniBand QDR).
    fault_plan
        As for :class:`~repro.gpu.context.MultiGpuContext`; the plan also
        injects on each remote node's PCIe bus.  Transfer arrivals are
        always checked, as on a single node.
    """

    def __init__(
        self,
        n_nodes: int = 2,
        gpus_per_node: int = 3,
        machine: MachineSpec | None = None,
        network: NetworkSpec | None = None,
        fault_plan=None,
    ):
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if gpus_per_node < 1:
            raise ValueError("gpus_per_node must be >= 1")
        if machine is None:
            machine = keeneland_node(min(gpus_per_node, 3))
        super().__init__(
            n_nodes * gpus_per_node, machine=machine, fault_plan=fault_plan,
        )
        self.n_nodes = int(n_nodes)
        self.gpus_per_node = int(gpus_per_node)
        self.network = network if network is not None else infiniband_qdr()
        # Each remote node has its own PCIe bus and network link (the base
        # class bus serves node 0).
        self._buses, self._links = [], []
        for k in range(1, self.n_nodes):
            bus = PcieBus(machine.pcie, trace=self.trace, faults=self.faults)
            bus.lane = f"pcie{k}"
            self._buses.append(bus)
            self._links.append(_NetworkLink(self.network, self.trace, f"net{k}"))
        for dev in self.all_devices:
            k = self.node_of(dev)
            if k > 0:
                self._routes[dev] = (self._buses[k - 1], self._links[k - 1])

    # ------------------------------------------------------------------
    def node_of(self, device: Device) -> int:
        """Node index hosting a device (devices are blocked by node)."""
        return device.device_id // self.gpus_per_node

    def reset_clocks(self) -> None:
        super().reset_clocks()
        for hop in self._buses + self._links:
            hop.reset()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MultiNodeContext(n_nodes={self.n_nodes}, "
            f"gpus_per_node={self.gpus_per_node})"
        )

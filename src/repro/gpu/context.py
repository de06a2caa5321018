"""The multi-GPU execution context.

``MultiGpuContext`` owns the devices, the host, the PCIe bus, the event
trace, and named timing regions.  All host<->device data movement flows
through it: each transfer walks its device's route (here, the shared PCIe
bus) and every hop records an h2d/d2h interval into the trace, which also
tallies :attr:`MultiGpuContext.counters`.  So communication counts, volumes
and the simulated timeline come from one record.

Time semantics
--------------
Each device and the host carry their own clock; transfers are scheduled on
the (shared) bus and delay only their consumer.  ``current_time`` is the max
over all clocks.  A :meth:`region` context-manager records a (properly
nested) span into the structured event trace (:class:`~repro.gpu.trace.
TraceRecorder`) — this is how the solvers attribute time to SpMV / MPK /
BOrth / TSQR exactly as the paper's tables do.  ``ctx.timers`` is the
per-region *exclusive*-time view of the trace, so nested regions never
double-count.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..faults.errors import DeviceLost, TransferCorruption
from ..faults.injector import FaultInjector
from ..perf.machine import MachineSpec, keeneland_node
from ..perf.model import PerformanceModel
from .counters import Counters
from .device import Device, DeviceArray, Host
from .pcie import PcieBus
from .trace import TraceRecorder

__all__ = ["MultiGpuContext"]


class MultiGpuContext:
    """A simulated compute node with ``n_gpus`` GPUs.

    Parameters
    ----------
    n_gpus
        Number of simulated GPUs (>= 1).
    machine
        Machine description; defaults to the paper's Keeneland node (the
        ``n_gpus`` argument overrides the spec's GPU count).
    fault_plan
        Optional :class:`~repro.faults.plan.FaultPlan`; when given, a
        :class:`~repro.faults.injector.FaultInjector` is armed on every
        device, the host, and the bus, and the solvers enable their
        (uncosted) NaN/Inf guards and retry/checkpoint machinery.
    validate_transfers
        Check every h2d/d2h payload with ``np.isfinite`` on arrival and
        raise :class:`~repro.faults.errors.TransferCorruption` on failure
        (the staged halo exchange retries such transfers).  Off by
        default: without it, corrupted payloads propagate silently — the
        historical behavior.  Attaching a ``fault_plan`` arms the same
        check automatically (injected corruption must be detectable for
        recovery to work); the check is uncosted either way.
    """

    def __init__(
        self,
        n_gpus: int = 1,
        machine: MachineSpec | None = None,
        fault_plan=None,
        validate_transfers: bool = False,
    ):
        if n_gpus < 1:
            raise ValueError("n_gpus must be >= 1")
        if machine is None:
            machine = keeneland_node(min(n_gpus, 3))
        self.machine = machine
        self.perf = PerformanceModel(machine)
        self.trace = TraceRecorder()
        self.faults = FaultInjector(fault_plan, self.trace)
        self.validate_transfers = bool(validate_transfers)
        #: The full device roster as built; never shrinks.  ``devices`` is
        #: the *active* subset — identical until a device is deactivated.
        self.all_devices = tuple(
            Device(d, self.perf, self.trace, faults=self.faults)
            for d in range(n_gpus)
        )
        self.devices = list(self.all_devices)
        self._inactive: set[str] = set()
        self.host = Host(self.perf, self.trace, faults=self.faults)
        self.bus = PcieBus(machine.pcie, trace=self.trace, faults=self.faults)
        #: Per-device transfer hops, device side first; each hop's
        #: ``schedule(ready_at, nbytes, kind, peer)`` records its interval.
        self._routes = {dev: (self.bus,) for dev in self.all_devices}

    def arm_fault_plan(self, fault_plan) -> None:
        """Swap in a new fault plan on the existing context.

        Rebuilds the injector (fresh RNG streams and occurrence counters)
        and re-arms every device, the host, and the PCIe bus that is the
        first hop of each device's route with it, so one long-lived context
        — e.g. a serving session's — can run a sequence of fault-campaign
        trials without rebuilding its distributed state.
        Pass ``None`` to disarm.
        """
        self.faults = FaultInjector(fault_plan, self.trace)
        for dev in self.all_devices:
            dev.faults = self.faults
            self._routes[dev][0].faults = self.faults
        self.host.faults = self.faults

    @property
    def resilience_enabled(self) -> bool:
        """True when solvers should run their fault guards/retry paths."""
        return self.faults.active or self.validate_transfers

    @property
    def counters(self) -> Counters:
        """Runtime counts, tallied by the trace from the events it records."""
        return self.trace.counters

    @property
    def timers(self) -> dict[str, float]:
        """Per-region exclusive simulated seconds (derived from the trace)."""
        return self.trace.exclusive_totals()

    @property
    def n_gpus(self) -> int:
        return len(self.devices)

    @property
    def inactive_devices(self) -> list[str]:
        """Names of devices deactivated mid-run (sorted)."""
        return sorted(self._inactive)

    # ------------------------------------------------------------------
    # Device roster management (degraded-mode operation)
    # ------------------------------------------------------------------
    def deactivate_device(self, device) -> Device:
        """Remove a device from the active roster mid-run.

        ``device`` may be a :class:`Device`, its name (``"gpu1"``), or its
        device id.  The device's PCIe lanes are torn down (further
        transfers raise :class:`DeviceLost`), it stops contributing to
        :meth:`current_time`/:meth:`sync`, and collectives/broadcasts
        iterate over the survivors only.  A ``degraded`` event is recorded
        on the fault lane at the current time.  The roster is restored by
        :meth:`reset_clocks`, so reruns on this context replay the same
        degradation deterministically.  Deactivating the last active
        device is refused.
        """
        if isinstance(device, Device):
            dev = device
        elif isinstance(device, str):
            matches = [d for d in self.all_devices if d.name == device]
            if not matches:
                raise ValueError(f"unknown device {device!r}")
            dev = matches[0]
        else:
            dev = self.all_devices[int(device)]
        if dev not in self.devices:
            raise ValueError(f"device {dev.name} is already inactive")
        if len(self.devices) == 1:
            raise ValueError("cannot deactivate the last active device")
        self.faults.note_degradation("degraded", self.current_time(), site=dev.name)
        self.devices.remove(dev)
        self._inactive.add(dev.name)
        self._routes[dev][0].deactivate_peer(dev.name)
        return dev

    def _require_active(self, device: Device) -> None:
        if device.name in self._inactive:
            raise DeviceLost(
                device.name, f"transfer issued for deactivated device {device.name}"
            )

    # ------------------------------------------------------------------
    # Clock management
    # ------------------------------------------------------------------
    def current_time(self) -> float:
        """Latest clock across host and devices (the simulated wall clock)."""
        return max(self.host.clock, max(d.clock for d in self.devices))

    def sync(self) -> float:
        """Barrier: align every clock to the current wall clock."""
        t = self.current_time()
        self.host.wait_until(t)
        for dev in self.devices:
            dev.wait_until(t)
        return t

    def reset_clocks(self) -> None:
        """Zero all clocks, the bus, the event trace — and the fault state.

        Resetting the injector restores its RNG streams and occurrence
        counters, and the device roster is restored to the full set built
        at construction, so every solve started on this context replays
        the same deterministic fault schedule — including any mid-run
        device deactivations a degrade policy performed.
        """
        self.host.clock = 0.0
        self.host._poison_pending = None
        self.devices = list(self.all_devices)
        self._inactive.clear()
        for dev in self.all_devices:
            dev.clock = 0.0
            dev._poison_pending = None
        self.bus.reset()
        self.trace.reset()
        self.faults.reset()

    @contextmanager
    def region(self, name: str):
        """Record a (nestable) named span of simulated time into the trace.

        ``ctx.timers[name]`` accumulates the span's *exclusive* time: for
        non-nested regions that is exactly the historical wall-clock delta;
        a nested child's time is charged to the child only.
        """
        self.trace.region_enter(name, self.current_time())
        try:
            yield
        finally:
            self.trace.region_exit(name, self.current_time())

    def mark_cycle(self) -> None:
        """Mark a restart-cycle boundary in the trace at the current time."""
        self.trace.mark_cycle(self.current_time())

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def h2d(self, device: Device, array: np.ndarray) -> DeviceArray:
        """Copy a host array to ``device`` (one message per route hop).

        The host is not blocked (async copy); the device waits for arrival.
        With ``validate_transfers`` the arriving copy is checked for
        non-finite entries and :class:`TransferCorruption` raised — the
        source array is untouched, so the caller may simply retry.
        """
        array = np.asarray(array)
        self._require_active(device)
        if self.faults.active:
            self.faults.check_alive(device.name)
        end = self.host.clock
        # Host side first; each hop's arrival is the next hop's ready time.
        for hop in reversed(self._routes[device]):
            end = hop.schedule(end, array.nbytes, kind="h2d", peer=device.name)
        device.wait_until(end)
        arrived = DeviceArray(array.copy(), device)
        if self.faults.active:
            self.faults.apply_pending_corrupt(arrived.data)
        if self.resilience_enabled and not np.all(np.isfinite(arrived.data)):
            self.faults.note_detection(
                "h2d payload", time=end, site=device.name,
                nbytes=int(array.nbytes),
            )
            raise TransferCorruption(
                f"non-finite h2d payload arrived on {device.name}"
            )
        return arrived

    def d2h(self, darr: DeviceArray, ready_at: float | None = None) -> np.ndarray:
        """Copy a device array to the host (one message per route hop).

        The device is not blocked (async copy); the host waits for arrival.
        ``ready_at`` overrides the payload-ready time — used by pipelined
        algorithms that issue the copy *before* enqueuing further device
        work (the copy engine ships data produced at ``ready_at`` even
        though the device's compute clock has since moved on).
        """
        end = darr.device.clock if ready_at is None else min(ready_at, darr.device.clock)
        self._require_active(darr.device)
        if self.faults.active:
            self.faults.check_alive(darr.device.name)
        for hop in self._routes[darr.device]:  # device side first
            end = hop.schedule(end, darr.nbytes, kind="d2h", peer=darr.device.name)
        self.host.wait_until(end)
        arrived = np.array(darr.data, copy=True)
        if self.faults.active:
            self.faults.apply_pending_corrupt(arrived)
        if self.resilience_enabled and not np.all(np.isfinite(arrived)):
            self.faults.note_detection(
                "d2h payload", time=end, site=darr.device.name,
                nbytes=int(darr.nbytes),
            )
            raise TransferCorruption(
                f"non-finite d2h payload arrived from {darr.device.name}"
            )
        return arrived

    # ------------------------------------------------------------------
    # Collectives (host-staged, as in the paper)
    # ------------------------------------------------------------------
    def allreduce_sum(
        self,
        partials: list[DeviceArray],
        ready_at: list[float] | None = None,
    ) -> np.ndarray:
        """Sum per-device partial results on the host.

        This is the paper's reduction pattern for dot products / Gram
        matrices: each GPU asynchronously sends its partial to the CPU,
        which accumulates them.  Returns the summed host array; use
        :meth:`broadcast` to push it back to the devices.  ``ready_at``
        optionally gives per-device payload-ready times (see :meth:`d2h`).
        """
        if len(partials) != self.n_gpus:
            raise ValueError(
                f"expected one partial per device ({self.n_gpus}), got {len(partials)}"
            )
        if ready_at is None:
            gathered = [self.d2h(p) for p in partials]
        else:
            if len(ready_at) != self.n_gpus:
                raise ValueError("ready_at must have one entry per device")
            gathered = [self.d2h(p, t) for p, t in zip(partials, ready_at)]
        total = gathered[0]
        for other in gathered[1:]:
            total = total + other
        if self.n_gpus > 1:
            # n-1 vector adds of the partial's size on the host
            self.host.charge_kernel(
                "axpy", "mkl", n=(self.n_gpus - 1) * total.size
            )
        return total

    def broadcast(self, array: np.ndarray) -> list[DeviceArray]:
        """Copy a host array to every device (one message per device)."""
        return [self.h2d(dev, array) for dev in self.devices]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MultiGpuContext(n_gpus={self.n_gpus}, machine={self.machine.name!r})"

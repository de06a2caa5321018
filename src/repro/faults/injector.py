"""The runtime half of fault injection: draws, corruption, and the log.

One :class:`FaultInjector` is owned by each
:class:`~repro.gpu.context.MultiGpuContext` and shared (duck-typed, no
imports from :mod:`repro.gpu` except the trace lane constant) by every
device, the host, and the PCIe bus.  The hook points:

* ``Device/Host.charge_kernel`` -> :meth:`on_kernel` (stall / poison /
  dropout, plus the is-this-device-dead check);
* ``PcieBus.schedule`` -> :meth:`on_bus_message` (stall / corrupt);
* ``MultiGpuContext.h2d/d2h`` -> :meth:`apply_pending_corrupt` (write the
  drawn corruption into the *arriving* copy) and :meth:`check_alive`.
  Only ``ctx.bus`` (node 0's bus on a multi-node context) draws faults.

Every injection, detection, and recovery is appended to the injector's
log **and** recorded as a zero/short-duration event in the ``"faults"``
trace lane, so Chrome/Perfetto exports show faults in timeline context
next to the kernels and transfers they hit; degraded-mode events
(:meth:`note_degradation`) are recorded in the trace only.

Determinism: per-site RNG streams are seeded from ``(plan.seed,
crc32(site))``; occurrence counters advance once per opportunity; RNG
calls happen in a fixed pattern.  ``reset()`` (called by
``ctx.reset_clocks()``, i.e. at the start of every solve) restores the
streams, so each solve on a context replays the same schedule.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import DeviceLost
from .plan import FaultEvent, FaultPlan

__all__ = ["FAULT_LANE", "FaultInjector"]

#: Trace lane carrying injected/detected/recovered fault events.
FAULT_LANE = "faults"


class FaultInjector:
    """Deterministic fault source + fault/detection/recovery log.

    Parameters
    ----------
    plan
        The :class:`~repro.faults.plan.FaultPlan` to execute, or ``None``
        for an inert injector (``active`` is False; every hook is a cheap
        no-op and only the detection log remains usable, e.g. for
        ``validate_transfers`` without any injection).
    trace
        The context's :class:`~repro.gpu.trace.TraceRecorder`; the log is
        mirrored into its fault lane.
    """

    def __init__(self, plan: FaultPlan | None, trace):
        self.plan = plan
        self.trace = trace
        #: True when a plan is attached — the solvers read this (together
        #: with ``ctx.validate_transfers``) to arm their uncosted guards.
        self.active = plan is not None
        self.reset()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Restore the pristine schedule state (streams, counters, logs)."""
        self.injected: list[dict] = []
        self.detections: list[dict] = []
        self.recoveries: list[dict] = []
        self.dead: set[str] = set()
        self._counts: dict[str, int] = {}
        self._rngs: dict[str, np.random.Generator] = {}
        self._pending_corrupt: FaultEvent | None = None
        self._n_drawn = 0

    # ------------------------------------------------------------------
    # Drawing
    # ------------------------------------------------------------------
    def _rng(self, site: str) -> np.random.Generator:
        rng = self._rngs.get(site)
        if rng is None:
            rng = np.random.default_rng(
                (self.plan.seed, zlib.crc32(site.encode("ascii")))
            )
            self._rngs[site] = rng
        return rng

    def _next_event(self, site: str) -> tuple[FaultEvent | None, int]:
        """Consume one opportunity at ``site``; maybe return an event."""
        index = self._counts.get(site, 0)
        self._counts[site] = index + 1
        plan = self.plan
        scripted = plan.scripted_events(site, index)
        if scripted:
            return scripted[0], index
        if plan.rate > 0.0 and (
            plan.max_faults is None or self._n_drawn < plan.max_faults
        ):
            rng = self._rng(site)
            if rng.random() < plan.rate:
                eligible = plan.eligible_kinds(site)
                if eligible:
                    kind = eligible[int(rng.integers(len(eligible)))]
                    position = int(rng.integers(1 << 30))
                    self._n_drawn += 1
                    return (
                        FaultEvent(
                            site=site, kind=kind,
                            factor=plan.stall_factor, position=position,
                        ),
                        index,
                    )
        return None, index

    # ------------------------------------------------------------------
    # Hook points
    # ------------------------------------------------------------------
    def check_alive(self, site: str) -> None:
        """Raise :class:`DeviceLost` if ``site`` has dropped out."""
        if site in self.dead:
            raise DeviceLost(site)

    def on_kernel(self, clocked, op: str, variant: str, start: float, t: float) -> float:
        """Consume one kernel opportunity; returns the (possibly extended)
        duration.  May set a pending poison on ``clocked`` or raise
        :class:`DeviceLost`."""
        site = clocked.name
        if site in self.dead:
            raise DeviceLost(site, f"kernel {op} issued on lost device {site}")
        event, index = self._next_event(site)
        if event is None:
            return t
        if event.kind == "stall":
            extra = t * (event.factor - 1.0)
            self._log_injection(event, site, index, start, extra, op=op)
            return t + extra
        if event.kind == "dropout":
            self.dead.add(site)
            self._log_injection(event, site, index, start, 0.0, op=op)
            raise DeviceLost(site, f"device {site} dropped out during {op}")
        # poison (and a scripted "corrupt" on a kernel site, which behaves
        # identically): delivered into the kernel's output by the BLAS layer.
        clocked._poison_pending = event
        self._log_injection(event, site, index, start, 0.0, op=op)
        return t

    def on_bus_message(
        self, kind: str, peer: str | None, nbytes: int, start: float, duration: float
    ) -> float:
        """Consume one bus-message opportunity; returns extra bus delay.

        A drawn ``"corrupt"`` is left pending for the context to apply to
        the arriving payload copy (:meth:`apply_pending_corrupt`).
        """
        event, index = self._next_event("pcie")
        if event is None:
            return 0.0
        if event.kind == "stall":
            extra = duration * (event.factor - 1.0)
            self._log_injection(
                event, "pcie", index, start, extra, transfer=kind, peer=peer
            )
            return extra
        self._pending_corrupt = event
        self._log_injection(
            event, "pcie", index, start, 0.0, transfer=kind, peer=peer
        )
        return 0.0

    def apply_pending_corrupt(self, data: np.ndarray) -> None:
        """Write the pending transfer corruption (if any) into ``data``."""
        event = self._pending_corrupt
        if event is None:
            return
        self._pending_corrupt = None
        poison_array(data, event)

    # ------------------------------------------------------------------
    # Detection / recovery log (used by solvers and the exchange layer)
    # ------------------------------------------------------------------
    def note_detection(self, what: str, time: float, site: str | None = None, **info) -> None:
        """Log that a guard caught non-finite data (``what`` names it)."""
        record = {"what": what, "site": site, "time": float(time), **info}
        self.detections.append(record)
        self.trace.record(
            f"detect {what}", FAULT_LANE, "detect", time, 0.0, site=site, **info,
        )

    def note_recovery(self, action: str, time: float, **info) -> None:
        """Log a recovery action (``transfer-retry`` | ``panel-retry`` |
        ``cycle-redo``)."""
        record = {"action": action, "time": float(time), **info}
        self.recoveries.append(record)
        self.trace.record(
            f"recover {action}", FAULT_LANE, "recover", time, 0.0, **info
        )

    def note_degradation(self, event: str, time: float, site: str | None = None, **info) -> None:
        """Log a degraded-mode event (``degraded`` | ``repartition`` |
        ``deadline-exceeded``) on the fault trace lane.

        The canonical degradation record lives in
        ``SolveResult.details["degradation"]`` (built by
        :class:`repro.core.degrade.DegradationManager`); this event puts
        it next to the faults/kernels it follows in timeline exports, and
        works even with no plan attached (deadline watchdogs run on
        fault-free contexts too).
        """
        name = event if site is None else f"{event} {site}"
        self.trace.record(name, FAULT_LANE, event, time, 0.0, site=site, **info)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def has_activity(self) -> bool:
        """True when anything was injected, detected, or recovered."""
        return bool(
            self.injected or self.detections or self.recoveries or self.dead
        )

    def schedule(self) -> list[tuple]:
        """The injected schedule as comparable ``(site, kind, index)`` rows."""
        return [(r["site"], r["kind"], r["index"]) for r in self.injected]

    def report(self, unrecovered: list[dict] | None = None) -> dict:
        """The ``SolveResult.details["faults"]`` payload.

        Parameters
        ----------
        unrecovered
            Solver-supplied terminal failures (device loss, retry budgets
            exhausted); an empty/None value means the solve survived
            everything that was thrown at it.
        """
        unrecovered = list(unrecovered or [])
        return {
            "injected": [dict(r) for r in self.injected],
            "detected": [dict(r) for r in self.detections],
            "recovered": [dict(r) for r in self.recoveries],
            "unrecovered": unrecovered,
            "lost_devices": sorted(self.dead),
            "aborted": bool(unrecovered),
            "counts": {
                "injected": len(self.injected),
                "detected": len(self.detections),
                "recovered": len(self.recoveries),
                "unrecovered": len(unrecovered),
            },
        }

    # ------------------------------------------------------------------
    def _log_injection(
        self, event: FaultEvent, site: str, index: int, start: float,
        extra: float, **info,
    ) -> None:
        record = {
            "site": site, "kind": event.kind, "index": index,
            "time": float(start), **info,
        }
        if event.kind == "stall":
            record["extra_time"] = float(extra)
        self.injected.append(record)
        self.trace.record(
            f"{event.kind} {site}", FAULT_LANE, "fault", start, extra,
            site=site, fault_kind=event.kind, index=index, **info,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultInjector(active={self.active}, injected={len(self.injected)}, "
            f"detected={len(self.detections)}, recovered={len(self.recoveries)})"
        )


def poison_array(data: np.ndarray, event: FaultEvent) -> None:
    """Overwrite one deterministic element of ``data`` with NaN/Inf."""
    if data.size == 0:
        return
    idx = np.unravel_index(event.position % data.size, data.shape)
    data[idx] = event.poison_value

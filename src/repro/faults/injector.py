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
  Every PCIe bus draws faults; a multi-node context's network links do
  not.

A plan switches injection only.  Detection does not depend on one: the
context's arrival checks and the solvers' guards are always armed, and
log through the ``note_*`` methods whether or not a plan is attached.

The log is the trace: every injection, detection, recovery, terminal
failure (``unrecovered``) and degraded-mode event is recorded as a
zero/short-duration event in the ``"faults"`` trace lane, so
Chrome/Perfetto exports show faults in timeline context next to the
kernels and transfers they hit.  :func:`fault_report` rebuilds the
``SolveResult.details["faults"]`` payload from that lane; the injector
itself keeps only functional state (RNG streams, occurrence counters, the
pending corruption and the set of dead devices).

Determinism: per-site RNG streams are seeded from ``(plan.seed,
crc32(site))``; occurrence counters advance once per opportunity; RNG
calls happen in a fixed pattern.  ``reset()`` (called by
``ctx.reset_clocks()``, i.e. at the start of every solve, together with
the trace reset) restores the streams, so each solve on a context replays
the same schedule.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import DeviceLost
from .plan import FaultEvent, FaultPlan

__all__ = ["FAULT_LANE", "FaultInjector", "fault_report"]

#: Trace lane carrying injected/detected/recovered fault events.
FAULT_LANE = "faults"


def _injected(e) -> dict:
    args = dict(e.args)
    record = {
        "site": args.pop("site"), "kind": args.pop("fault_kind"),
        "index": args.pop("index"), "time": float(e.start), **args,
    }
    if record["kind"] == "stall":
        record["extra_time"] = float(e.duration)
    return record


def _detected(e) -> dict:
    args = dict(e.args)
    return {"what": args.pop("what"), "site": args.pop("site"),
            "time": float(e.start), **args}


def _recovered(e) -> dict:
    args = dict(e.args)
    return {"action": args.pop("action"), "time": float(e.start), **args}


#: Fault-lane event kind -> (payload list, record builder).
_REPORTED = {
    "fault": ("injected", _injected),
    "detect": ("detected", _detected),
    "recover": ("recovered", _recovered),
    "unrecovered": ("unrecovered", lambda e: dict(e.args)),
}


def fault_report(events=(), dead=()) -> dict:
    """The ``SolveResult.details["faults"]`` payload of fault-lane ``events``.

    ``dead`` is the set of lost device names.  ``unrecovered`` holds the
    terminal failures (device loss, retry budgets exhausted); an empty list
    means the solve survived everything thrown at it.  Degraded-mode
    events on the same lane are not part of this payload (see
    :meth:`repro.core.degrade.DegradationManager.report`).
    """
    lists: dict[str, list] = {key: [] for key, _ in _REPORTED.values()}
    for e in events:
        entry = _REPORTED.get(e.kind)
        if entry is not None:
            lists[entry[0]].append(entry[1](e))
    return {
        **lists,
        "lost_devices": sorted(dead),
        "aborted": bool(lists["unrecovered"]),
        "counts": {key: len(records) for key, records in lists.items()},
    }


class FaultInjector:
    """Deterministic fault source; logs to the trace's fault lane.

    Parameters
    ----------
    plan
        The :class:`~repro.faults.plan.FaultPlan` to execute, or ``None``
        for an inert injector (``active`` is False; every hook is a cheap
        no-op and only the ``note_*`` methods remain in use, by the
        always-armed guards).
    trace
        The context's :class:`~repro.gpu.trace.TraceRecorder`; every
        ``note_*`` call records into its fault lane.
    """

    def __init__(self, plan: FaultPlan | None, trace):
        self.plan = plan
        self.trace = trace
        #: True when a plan is attached, i.e. injection is on.
        self.active = plan is not None
        self.reset()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Restore the pristine schedule state (streams, counters, dead set)."""
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
    # The fault-lane log (used by solvers and the exchange layer)
    # ------------------------------------------------------------------
    def note_detection(self, what: str, time: float, site: str | None = None, **info) -> None:
        """Log that a guard caught non-finite data (``what`` names it)."""
        self.trace.record(
            f"detect {what}", FAULT_LANE, "detect", time, 0.0,
            what=what, site=site, **info,
        )

    def note_recovery(self, action: str, time: float, **info) -> None:
        """Log a recovery action (``transfer-retry`` | ``panel-retry`` |
        ``cycle-redo``)."""
        self.trace.record(
            f"recover {action}", FAULT_LANE, "recover", time, 0.0,
            action=action, **info,
        )

    def note_unrecovered(self, record: dict) -> None:
        """Log a terminal failure; ``record`` (with its ``time``) is the
        ``details["faults"]["unrecovered"]`` entry verbatim."""
        self.trace.record(
            f"unrecovered {record['error']}", FAULT_LANE, "unrecovered",
            record["time"], 0.0, **record,
        )

    def note_degradation(self, event: str, time: float, site: str | None = None, **info) -> None:
        """Log a degraded-mode event (``degraded`` | ``repartition`` |
        ``deadline-exceeded``) on the fault trace lane.

        Works even with no plan attached (deadline watchdogs run on
        fault-free contexts too).  :class:`repro.core.degrade.
        DegradationManager` builds ``details["degradation"]`` from these
        events.
        """
        if site is None:
            name = event
        else:
            name = f"{event} {site}"
            info = {"site": site, **info}
        self.trace.record(name, FAULT_LANE, event, time, 0.0, **info)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> dict:
        """The ``details["faults"]`` payload of the current trace."""
        return fault_report(self.trace.fault_events(), self.dead)

    def has_activity(self) -> bool:
        """True when anything was injected, detected, recovered or lost."""
        return bool(self.dead) or any(
            e.kind in _REPORTED for e in self.trace.fault_events()
        )

    def schedule(self) -> list[tuple]:
        """The injected schedule as comparable ``(site, kind, index)`` rows."""
        return [(r["site"], r["kind"], r["index"]) for r in self.report()["injected"]]

    # ------------------------------------------------------------------
    def _log_injection(
        self, event: FaultEvent, site: str, index: int, start: float,
        extra: float, **info,
    ) -> None:
        self.trace.record(
            f"{event.kind} {site}", FAULT_LANE, "fault", start, extra,
            site=site, fault_kind=event.kind, index=index, **info,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultInjector(active={self.active}, dead={sorted(self.dead)})"


def poison_array(data: np.ndarray, event: FaultEvent) -> None:
    """Overwrite one deterministic element of ``data`` with NaN/Inf."""
    if data.size == 0:
        return
    idx = np.unravel_index(event.position % data.size, data.shape)
    data[idx] = event.poison_value

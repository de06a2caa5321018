"""Structured event trace for the simulated machine — the one runtime record.

The paper's analysis (Figs. 11-15) is a per-kernel breakdown of where
CA-GMRES time goes — SpMV/MPK vs BOrth vs TSQR vs PCIe — and Fig. 10
counts GPU-CPU messages.  :class:`TraceRecorder` is the one record both
come from.  It logs:

* every **kernel** charge (device or host) with its lane, start time,
  modeled duration and flops;
* every **h2d/d2h transfer** hop as a bus-occupancy interval (the
  shared-bus serialization of Section IV is directly visible as back-to-back
  intervals in the ``pcie`` lane; remote nodes use ``pcie<k>``/``net<k>``);
* every **region** enter/exit, properly nested: each region records both its
  *inclusive* wall-clock span and its *exclusive* time (inclusive minus the
  spans of nested child regions), so nested regions never double-count;
* fault-lane events and **cycle marks** at restart-cycle boundaries.

Recording an event also tallies it into :attr:`TraceRecorder.counters`
(``ctx.counters``).  Everything else is derived from the log on demand:

* :meth:`TraceRecorder.exclusive_totals` — the ``ctx.timers`` view;
* :meth:`TraceRecorder.profile` — per-kernel / per-region / per-transfer /
  per-restart-cycle aggregates, attached to ``SolveResult.details["profile"]``;
* :meth:`TraceRecorder.to_chrome_trace` — Chrome ``trace_event``-format JSON
  (one lane per device + host + PCIe bus + a region lane) that opens in
  ``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .counters import Counters

__all__ = ["TraceEvent", "TraceRecorder"]

#: Lane name used for region (phase) span events in exported traces.
REGION_LANE = "regions"

#: Lane name used for PCIe bus-occupancy intervals.
PCIE_LANE = "pcie"

#: Lane name used for injected/detected/recovered fault events (see
#: :mod:`repro.faults`): ``kind`` is ``"fault"`` | ``"detect"`` |
#: ``"recover"`` | ``"unrecovered"``, so Chrome/Perfetto exports show
#: faults in timeline context next to the kernels and transfers they hit.
#: Degraded-mode events (:mod:`repro.core.degrade`) share the lane with
#: ``kind`` ``"degraded"`` | ``"repartition"`` | ``"deadline-exceeded"``.
#: The lane is the only record of all of them: ``details["faults"]`` and
#: ``details["degradation"]`` are built from it.
FAULT_LANE = "faults"


@dataclass
class TraceEvent:
    """One interval on the simulated timeline.

    Attributes
    ----------
    name
        Event label (``"gemm_tn/cublas"``, ``"h2d"``, region name, ...).
    lane
        Timeline lane: ``"gpu0"``..``"gpuN"``, ``"host"``, ``"pcie"``
        (``"pcie<k>"``/``"net<k>"`` on remote nodes), ``"regions"``, or
        ``"faults"``.
    kind
        ``"kernel"`` | ``"h2d"`` | ``"d2h"`` | ``"region"``, or a fault-lane
        kind (``"fault"``, ``"degraded"``, ...).
    start, duration
        Simulated seconds.
    args
        Extra attributes (device id, byte counts, kernel shape, inclusive /
        exclusive region times, nesting depth, ...).
    """

    name: str
    lane: str
    kind: str
    start: float
    duration: float
    args: dict = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration


class TraceRecorder:
    """Append-only event log with region nesting, cycle marks and counters.

    Recording is a dataclass append plus a counter tally; all aggregation
    walks the log on demand.  :meth:`reset` leaves :attr:`counters` alone
    (the solvers reset those themselves at the start of every run).
    """

    def __init__(self):
        self.events: list[TraceEvent] = []
        self.cycle_marks: list[float] = []
        #: Runtime counts; only :meth:`record` writes them.
        self.counters = Counters()
        # Region stack entries: [name, start_time, child_inclusive_time].
        self._region_stack: list[list] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self,
        name: str,
        lane: str,
        kind: str,
        start: float,
        duration: float,
        **args,
    ) -> None:
        """Append one interval event and tally it into :attr:`counters`.

        A kernel counts one launch of ``name`` and its ``flops`` arg; a
        host kernel without ``flops`` is a small dense LAPACK op.  Each
        ``h2d``/``d2h`` event is one message of ``bytes``; ``degraded`` and
        ``repartition`` events count device deactivations and repartitions.
        """
        self.events.append(TraceEvent(name, lane, kind, start, duration, args))
        c = self.counters
        if kind == "kernel":
            c.kernel_counts[name] = c.kernel_counts.get(name, 0) + 1
            flops = args.get("flops")
            if lane != "host":
                c.kernel_launches += 1
                c.device_flops += flops or 0
            elif flops is None:
                c.host_small_ops += 1
            else:
                c.host_flops += flops
        elif kind == "h2d":
            c.h2d_messages += 1
            c.h2d_bytes += args["bytes"]
        elif kind == "d2h":
            c.d2h_messages += 1
            c.d2h_bytes += args["bytes"]
        elif kind == "degraded":
            c.device_deactivations += 1
        elif kind == "repartition":
            c.repartitions += 1

    def region_enter(self, name: str, t: float) -> None:
        """Open a (possibly nested) region at simulated time ``t``."""
        self._region_stack.append([name, t, 0.0])

    def region_exit(self, name: str, t: float) -> float:
        """Close the innermost region; returns its *exclusive* time.

        Raises ``ValueError`` on improperly nested enter/exit pairs.
        """
        if not self._region_stack:
            raise ValueError(f"region_exit({name!r}) with no open region")
        top_name, start, child_time = self._region_stack.pop()
        if top_name != name:
            raise ValueError(
                f"region_exit({name!r}) does not match open region {top_name!r}"
            )
        inclusive = t - start
        exclusive = inclusive - child_time
        if self._region_stack:
            self._region_stack[-1][2] += inclusive
        self.events.append(
            TraceEvent(
                name,
                REGION_LANE,
                "region",
                start,
                inclusive,
                {
                    "inclusive": inclusive,
                    "exclusive": exclusive,
                    "depth": len(self._region_stack),
                    # Nested inside an ancestor of the same name: such a
                    # span's inclusive time is already covered by it.
                    "self_nested": any(
                        fr[0] == name for fr in self._region_stack
                    ),
                },
            )
        )
        return exclusive

    def mark_cycle(self, t: float) -> None:
        """Mark a restart-cycle boundary at simulated time ``t``."""
        self.cycle_marks.append(float(t))

    def reset(self) -> None:
        """Drop all events, marks, and region state (not the counters)."""
        self.events.clear()
        self.cycle_marks.clear()
        self._region_stack.clear()

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def exclusive_totals(self) -> dict[str, float]:
        """Per-region exclusive seconds — the ``ctx.timers`` view.

        Folds the region events in exit order.  For non-nested regions this
        is the wall-clock delta; for nested regions the parent is charged
        only for the time not covered by its children.
        """
        out: dict[str, float] = {}
        for e in self.events:
            if e.kind == "region":
                out[e.name] = out.get(e.name, 0.0) + e.args["exclusive"]
        return out

    def end_time(self) -> float:
        """Latest event end (0.0 on an empty trace)."""
        return max((e.end for e in self.events), default=0.0)

    def lane_busy_totals(self) -> dict[str, float]:
        """Busy seconds per lane: kernel time for device/host lanes, link
        occupancy (h2d/d2h intervals) for the PCIe and network lanes.

        Together with :meth:`end_time` this yields per-device utilization:
        ``busy[lane] / end_time()`` is the fraction of the run the lane had
        work in flight.
        """
        busy: dict[str, float] = {}
        for e in self.events:
            if e.kind in ("kernel", "h2d", "d2h"):
                busy[e.lane] = busy.get(e.lane, 0.0) + e.duration
        return busy

    def kernel_totals(self) -> dict[str, dict]:
        """Per-kernel aggregates: count, total seconds, per-lane seconds."""
        out: dict[str, dict] = {}
        for e in self.events:
            if e.kind != "kernel":
                continue
            entry = out.setdefault(
                e.name, {"count": 0, "time": 0.0, "by_lane": {}}
            )
            entry["count"] += 1
            entry["time"] += e.duration
            entry["by_lane"][e.lane] = entry["by_lane"].get(e.lane, 0.0) + e.duration
        return out

    def region_totals(self) -> dict[str, dict]:
        """Per-region aggregates.

        ``inclusive`` skips spans nested inside a same-named ancestor (their
        time is already covered, so recursive/self-nested regions are not
        counted twice); ``exclusive`` matches :meth:`exclusive_totals`.
        """
        out: dict[str, dict] = {}
        for e in self.events:
            if e.kind != "region":
                continue
            entry = out.setdefault(
                e.name, {"count": 0, "inclusive": 0.0, "exclusive": 0.0}
            )
            entry["count"] += 1
            if not e.args.get("self_nested", False):
                entry["inclusive"] += e.args["inclusive"]
            entry["exclusive"] += e.args["exclusive"]
        return out

    def transfer_totals(self) -> dict[str, dict]:
        """h2d/d2h aggregates: message count, bytes, bus seconds."""
        out = {
            "h2d": {"count": 0, "bytes": 0, "time": 0.0},
            "d2h": {"count": 0, "bytes": 0, "time": 0.0},
        }
        for e in self.events:
            if e.kind not in out:
                continue
            entry = out[e.kind]
            entry["count"] += 1
            entry["bytes"] += e.args.get("bytes", 0)
            entry["time"] += e.duration
        return out

    def cycle_windows(self) -> list[tuple[float, float]]:
        """Restart-cycle windows ``[(start, end), ...]`` from the marks."""
        if not self.cycle_marks:
            return []
        bounds = list(self.cycle_marks) + [max(self.end_time(), self.cycle_marks[-1])]
        return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]

    def profile(self) -> dict:
        """Aggregate metrics for ``SolveResult.details["profile"]``.

        Keys: ``total_time`` (latest event end), ``regions`` (per-region
        inclusive/exclusive/count), ``kernels`` (per-kernel count/time/lane
        split), ``transfers`` (h2d/d2h count/bytes/bus-time), ``bus``
        (occupancy summary), and ``cycles`` (per-restart-cycle duration and
        top-level region breakdown).
        """
        transfers = self.transfer_totals()
        cycles = []
        for start, end in self.cycle_windows():
            regions: dict[str, float] = {}
            for e in self.events:
                if (
                    e.kind == "region"
                    and e.args.get("depth", 0) == 0
                    and start <= e.start < end
                ):
                    regions[e.name] = regions.get(e.name, 0.0) + e.args["inclusive"]
            cycles.append(
                {"start": start, "end": end, "duration": end - start, "regions": regions}
            )
        return {
            "total_time": self.end_time(),
            "regions": self.region_totals(),
            "kernels": self.kernel_totals(),
            "transfers": transfers,
            "bus": {
                "busy_time": transfers["h2d"]["time"] + transfers["d2h"]["time"],
                "messages": transfers["h2d"]["count"] + transfers["d2h"]["count"],
            },
            "cycles": cycles,
        }

    # ------------------------------------------------------------------
    # Chrome trace_event export
    # ------------------------------------------------------------------
    def lanes(self) -> list[str]:
        """Stable lane ordering: host, gpu0..gpuN, pcie, regions[, faults].

        The fault lane only appears when fault events were recorded, so
        fault-free traces are unchanged.
        """
        seen = {e.lane for e in self.events}
        gpus = sorted(lane for lane in seen if lane.startswith("gpu"))
        ordered = ["host"] + gpus + [PCIE_LANE, REGION_LANE]
        if FAULT_LANE in seen:
            ordered.append(FAULT_LANE)
        # Keep any other lanes (remote-node pcie<k>/net<k>) at the end.
        ordered += sorted(seen - set(ordered))
        return ordered

    def fault_events(self) -> list[TraceEvent]:
        """All events in the fault lane (faults, recoveries, degradations)."""
        return [e for e in self.events if e.lane == FAULT_LANE]

    def to_chrome_trace(self) -> dict:
        """The trace as a Chrome ``trace_event`` JSON object.

        Durations are exported in microseconds (the format's unit).  Every
        lane becomes one ``tid`` under a single ``pid`` so Perfetto shows
        one track per device, the host, the PCIe bus, and the region stack.
        """
        lane_ids = {lane: i for i, lane in enumerate(self.lanes())}
        trace_events: list[dict] = [
            {
                "ph": "M",
                "pid": 0,
                "name": "process_name",
                "args": {"name": "simulated node"},
            }
        ]
        for lane, tid in lane_ids.items():
            trace_events.append(
                {
                    "ph": "M",
                    "pid": 0,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": lane},
                }
            )
            trace_events.append(
                {
                    "ph": "M",
                    "pid": 0,
                    "tid": tid,
                    "name": "thread_sort_index",
                    "args": {"sort_index": tid},
                }
            )
        for e in self.events:
            trace_events.append(
                {
                    "ph": "X",
                    "pid": 0,
                    "tid": lane_ids[e.lane],
                    "name": e.name,
                    "cat": e.kind,
                    "ts": e.start * 1e6,
                    "dur": e.duration * 1e6,
                    "args": dict(e.args),
                }
            )
        for i, t in enumerate(self.cycle_marks):
            trace_events.append(
                {
                    "ph": "i",
                    "pid": 0,
                    "tid": lane_ids[REGION_LANE],
                    "name": f"cycle {i}",
                    "cat": "cycle",
                    "ts": t * 1e6,
                    "s": "p",
                }
            )
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        """Serialize :meth:`to_chrome_trace` to ``path`` as JSON."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(), fh)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TraceRecorder(events={len(self.events)}, "
            f"cycles={len(self.cycle_marks)})"
        )

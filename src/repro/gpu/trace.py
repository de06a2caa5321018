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

Recording only appends.  Every aggregate is folded from the log by one
walker, :meth:`TraceRecorder.fold`, into a :class:`TraceFold`:

* ``counters`` — the runtime counts, the ``ctx.counters`` view;
* ``timers`` — per-region exclusive seconds, the ``ctx.timers`` view;
* per-kernel / per-region / per-transfer / per-lane / per-restart-cycle
  aggregates; :meth:`TraceFold.profile` is ``SolveResult.details["profile"]``.

So a count and a time always come from the same record, and
:meth:`TraceRecorder.reset` (run by ``ctx.reset_clocks()``) is the only
reset.  :meth:`TraceRecorder.to_chrome_trace` exports the log as Chrome
``trace_event``-format JSON (one lane per device + host + PCIe bus + a
region lane) that opens in ``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field

from .counters import Counters

__all__ = ["TraceEvent", "TraceFold", "TraceRecorder"]

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
    request
        The recorder's :attr:`~TraceRecorder.request` tag when recorded.
    """

    name: str
    lane: str
    kind: str
    start: float
    duration: float
    args: dict = field(default_factory=dict)
    request: int = 0

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass
class TraceFold:
    """Every aggregate of one trace, from one walk over its events.

    Attributes
    ----------
    counters
        Runtime counts: one message of ``bytes`` per ``h2d``/``d2h`` event,
        one launch (and its ``flops``) per device kernel, host flops or one
        small dense LAPACK op (no ``flops``) per host kernel, and one device
        deactivation / repartition per ``degraded`` / ``repartition`` event.
    timers
        Per-region *exclusive* seconds — the ``ctx.timers`` view.  For
        nested regions the parent is charged only for the time not covered
        by its children.
    regions
        Per-region ``count``, ``inclusive`` and ``exclusive`` seconds.
        ``inclusive`` skips spans nested inside a same-named ancestor
        (their time is already covered, so recursive regions are not
        counted twice).
    kernels
        Per-kernel ``count``, total ``time`` and per-lane seconds ``by_lane``.
    transfers
        ``h2d``/``d2h`` message ``count``, ``bytes`` and bus ``time``.
    lane_busy
        Busy seconds per lane: kernel time on device/host lanes, link
        occupancy on the PCIe and network lanes.  ``lane_busy[lane] /
        end_time`` is the lane's utilization.
    end_time
        Latest event end (0.0 on an empty trace).
    cycles
        One entry per restart-cycle window: ``start``, ``end``,
        ``duration`` and ``regions``, the inclusive seconds of each
        top-level region starting in the window.
    """

    counters: Counters
    timers: dict[str, float]
    regions: dict[str, dict]
    kernels: dict[str, dict]
    transfers: dict[str, dict]
    lane_busy: dict[str, float]
    end_time: float
    cycles: list[dict]

    def profile(self) -> dict:
        """Aggregate metrics for ``SolveResult.details["profile"]``.

        Keys: ``total_time`` (latest event end), ``regions``, ``kernels``,
        ``transfers``, ``bus`` (occupancy summary) and ``cycles``.
        """
        h2d, d2h = self.transfers["h2d"], self.transfers["d2h"]
        return {
            "total_time": self.end_time,
            "regions": self.regions,
            "kernels": self.kernels,
            "transfers": self.transfers,
            "bus": {
                "busy_time": h2d["time"] + d2h["time"],
                "messages": h2d["count"] + d2h["count"],
            },
            "cycles": self.cycles,
        }


class TraceRecorder:
    """Append-only event log with region nesting and cycle marks.

    Recording is a dataclass append; every aggregate is folded from the
    log on demand by :meth:`fold`.  Each event and cycle mark carries the
    current :attr:`request` tag, which a restart loop sets to its run's
    index in a batch of interleaved solves.
    """

    def __init__(self):
        self.events: list[TraceEvent] = []
        self.cycle_marks: list[float] = []
        self.cycle_requests: list[int] = []  # request tag of each mark
        self.request = 0
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
        """Append one interval event."""
        self.events.append(
            TraceEvent(name, lane, kind, start, duration, args, self.request)
        )

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
                self.request,
            )
        )
        return exclusive

    def mark_cycle(self, t: float) -> None:
        """Mark a restart-cycle boundary at simulated time ``t``."""
        self.cycle_marks.append(float(t))
        self.cycle_requests.append(self.request)

    def reset(self) -> None:
        """Drop all events, marks, region state and the request tag — and
        with them every aggregate, the counters included."""
        self.events.clear()
        self.cycle_marks.clear()
        self.cycle_requests.clear()
        self._region_stack.clear()
        self.request = 0

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def fold(self) -> TraceFold:
        """Every aggregate of the trace, folded from the events in one walk.

        Events are folded in recording order, so sums and dict key orders
        are those of the timeline.  Cycle windows run from each mark to the
        next (marks are stamped in time order), the last one to the latest
        event end.
        """
        kernel_launches = host_small_ops = deactivations = repartitions = 0
        device_flops = host_flops = 0.0
        end_time = 0.0
        kernels: dict[str, dict] = {}
        regions: dict[str, dict] = {}
        lane_busy: dict[str, float] = {}
        transfers = {
            "h2d": {"count": 0, "bytes": 0, "time": 0.0},
            "d2h": {"count": 0, "bytes": 0, "time": 0.0},
        }
        tops: list[tuple[float, str, float]] = []  # top-level region spans
        for e in self.events:
            kind, lane, duration, args = e.kind, e.lane, e.duration, e.args
            end_time = max(end_time, e.start + duration)
            if kind == "kernel":
                entry = kernels.get(e.name)
                if entry is None:
                    entry = kernels[e.name] = {"count": 0, "time": 0.0, "by_lane": {}}
                entry["count"] += 1
                entry["time"] += duration
                by_lane = entry["by_lane"]
                by_lane[lane] = by_lane.get(lane, 0.0) + duration
                lane_busy[lane] = lane_busy.get(lane, 0.0) + duration
                flops = args.get("flops")
                if lane != "host":
                    kernel_launches += 1
                    device_flops += flops or 0
                elif flops is None:
                    host_small_ops += 1
                else:
                    host_flops += flops
            elif kind == "region":
                entry = regions.get(e.name)
                if entry is None:
                    entry = regions[e.name] = {"count": 0, "inclusive": 0.0, "exclusive": 0.0}
                entry["count"] += 1
                if not args.get("self_nested", False):
                    entry["inclusive"] += args["inclusive"]
                entry["exclusive"] += args["exclusive"]
                if args.get("depth", 0) == 0:
                    tops.append((e.start, e.name, args["inclusive"]))
            elif kind in transfers:
                entry = transfers[kind]
                entry["count"] += 1
                entry["bytes"] += args.get("bytes", 0)
                entry["time"] += duration
                lane_busy[lane] = lane_busy.get(lane, 0.0) + duration
            elif kind == "degraded":
                deactivations += 1
            elif kind == "repartition":
                repartitions += 1

        marks = self.cycle_marks
        bounds = marks + [max(end_time, marks[-1])] if marks else []
        cycles = [
            {"start": start, "end": end, "duration": end - start, "regions": {}}
            for start, end in zip(bounds, bounds[1:])
        ]
        for start, name, inclusive in tops:
            i = bisect_right(marks, start) - 1
            if i >= 0 and start < bounds[i + 1]:
                spans = cycles[i]["regions"]
                spans[name] = spans.get(name, 0.0) + inclusive

        h2d, d2h = transfers["h2d"], transfers["d2h"]
        counters = Counters(
            h2d_messages=h2d["count"],
            h2d_bytes=h2d["bytes"],
            d2h_messages=d2h["count"],
            d2h_bytes=d2h["bytes"],
            kernel_launches=kernel_launches,
            device_flops=device_flops,
            host_flops=host_flops,
            host_small_ops=host_small_ops,
            device_deactivations=deactivations,
            repartitions=repartitions,
            kernel_counts={name: k["count"] for name, k in kernels.items()},
        )
        return TraceFold(
            counters=counters,
            timers={name: r["exclusive"] for name, r in regions.items()},
            regions=regions,
            kernels=kernels,
            transfers=transfers,
            lane_busy=lane_busy,
            end_time=end_time,
            cycles=cycles,
        )

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

    def fault_events(self, request: int | None = None) -> list[TraceEvent]:
        """The events in the fault lane (faults, recoveries, degradations),
        only those tagged ``request`` when given."""
        return [
            e for e in self.events
            if e.lane == FAULT_LANE and (request is None or e.request == request)
        ]

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
        for i, (t, request) in enumerate(zip(self.cycle_marks, self.cycle_requests)):
            trace_events.append(
                {
                    "ph": "i",
                    "pid": 0,
                    "tid": lane_ids[REGION_LANE],
                    "name": f"cycle {i}",
                    "cat": "cycle",
                    "ts": t * 1e6,
                    "s": "p",
                    "args": {"request": request},
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

"""Observers: bridge runtime, solver, serving, and fault state into metrics.

Every metric family the repo emits is declared here, once, with its
canonical label schema — callers (the serving session, the fault
campaign, ``python -m repro metrics``) all go through
these constructors, so a name can never be registered twice with different
labels.

Label conventions, following the paper's vocabulary:

* ``solver`` — ``"gmres"`` / ``"ca_gmres"`` / ``"pipelined"``;
* ``matrix`` — workload label (``"cant"``, ``"g3_circuit"``, ...);
* ``device`` — trace lane (``"gpu0"``.., ``"host"``);
* ``kernel`` — ``"op/variant"`` exactly as in ``Counters.kernel_counts``
  (``"gemm_tn/cublas"``, ``"spmv_ell/cusparse"``, ...);
* ``phase``  — solver region (``"mpk"``, ``"borth"``, ``"tsqr"``, ...).

All observers aggregate *into* the registry (counters add, histograms
observe); gauges describe the most recent observation.  Everything here is
derived from simulated time and deterministic counters — wall-clock
metrics live with their emitters (:mod:`repro.serve`) and are flagged
``wall_clock=True`` there.
"""

from __future__ import annotations

from bisect import bisect_right

from .registry import (
    BLOCK_LENGTH_BUCKETS,
    MetricsRegistry,
    SIM_TIME_BUCKETS,
    WALL_TIME_BUCKETS,
)

__all__ = [
    "observe_context",
    "observe_result",
    "observe_faults",
    "observe_solve",
]

_SM = ("solver", "matrix")  # the common label pair


# ---------------------------------------------------------------------------
# Canonical family constructors (get-or-create on the given registry)
# ---------------------------------------------------------------------------
def solver_cycle_seconds(reg: MetricsRegistry):
    """Per-restart-cycle simulated duration (fed from the trace's cycle
    windows by :func:`observe_context`)."""
    return reg.histogram(
        "repro_solver_cycle_seconds",
        "Simulated duration of one restart cycle",
        labelnames=_SM, buckets=SIM_TIME_BUCKETS,
    )


def serve_request_seconds(reg: MetricsRegistry):
    """Host wall-clock latency of one serving request (nondeterministic)."""
    return reg.histogram(
        "repro_serve_request_seconds",
        "Host wall-clock latency of one serving request "
        "(cold = the request built the structural plan)",
        labelnames=_SM + ("plan",), wall_clock=True, buckets=WALL_TIME_BUCKETS,
    )


def serve_requests_total(reg: MetricsRegistry):
    return reg.counter(
        "repro_serve_requests_total",
        "Solve requests answered by a SolverSession",
        labelnames=_SM + ("mode",),
    )


def serve_batch_occupancy(reg: MetricsRegistry):
    return reg.gauge(
        "repro_serve_batch_occupancy",
        "Mean fraction of the batch's right-hand sides one MPK call "
        "carried in the last solve_many batch",
        labelnames=_SM,
    )


def serve_batch_rhs_total(reg: MetricsRegistry):
    return reg.counter(
        "repro_serve_batch_rhs_total",
        "Right-hand sides answered through solve_many",
        labelnames=_SM,
    )


def plan_cache_requests_total(reg: MetricsRegistry):
    return reg.counter(
        "repro_plan_cache_requests_total",
        "Plan-cache lookups by level (host/structural) and outcome",
        labelnames=("level", "outcome"),
    )


def plan_cache_invalidations_total(reg: MetricsRegistry):
    return reg.counter(
        "repro_plan_cache_invalidations_total",
        "Structural plans dropped (roster change or stale partition)",
    )


def plan_build_seconds(reg: MetricsRegistry):
    """Host wall-clock cost of a plan-cache miss (nondeterministic)."""
    return reg.histogram(
        "repro_plan_build_seconds",
        "Host wall-clock time to build a missed plan",
        labelnames=("level",), wall_clock=True, buckets=WALL_TIME_BUCKETS,
    )


# ---------------------------------------------------------------------------
# Context: utilization, kernels, transfers (derived from the trace)
# ---------------------------------------------------------------------------
def observe_context(
    reg: MetricsRegistry, ctx, solver: str = "", matrix: str = "", fold=None
) -> None:
    """Record one finished run's runtime telemetry from ``ctx``.

    Everything is read from one fold of the structured event trace
    (:meth:`~repro.gpu.trace.TraceRecorder.fold`): ``fold``, the one a
    finished run's result already holds (:attr:`~repro.core.convergence.
    SolveResult.fold`), or a fresh one when omitted.  A device is *busy*
    while a kernel interval occupies its lane, the PCIe bus while a
    transfer occupies the ``pcie`` lane; *elapsed* is the latest event end;
    kernel-launch / transfer / flop counts are the fold's counters.  Each
    completed restart cycle — a trace cycle window holding no
    ``unrecovered`` fault event — is one sample of the cycle-duration
    histogram.
    """
    labels = {"solver": solver, "matrix": matrix}
    trace = ctx.trace
    if fold is None:
        fold = trace.fold()
    elapsed = fold.end_time
    busy = fold.lane_busy

    busy_total = reg.counter(
        "repro_lane_busy_seconds_total",
        "Simulated busy seconds per lane (kernel time for devices/host, "
        "transfer time for the PCIe bus)",
        labelnames=_SM + ("device",),
    )
    util = reg.gauge(
        "repro_lane_utilization",
        "Busy fraction of the last observed run per lane",
        labelnames=_SM + ("device",),
    )
    active = reg.gauge(
        "repro_device_active",
        "1 when the device finished the run on the active roster",
        labelnames=_SM + ("device",),
    )
    lanes = [dev.name for dev in ctx.all_devices] + ["host", "pcie"]
    for lane in lanes:
        lane_busy = busy.get(lane, 0.0)
        busy_total.inc(lane_busy, device=lane, **labels)
        util.set(lane_busy / elapsed if elapsed > 0 else 0.0, device=lane, **labels)
    for dev in ctx.all_devices:
        active.set(0.0 if dev.name in ctx.inactive_devices else 1.0,
                   device=dev.name, **labels)

    reg.counter(
        "repro_sim_seconds_total", "Simulated elapsed seconds across runs",
        labelnames=_SM,
    ).inc(elapsed, **labels)

    counters = fold.counters
    launches = reg.counter(
        "repro_kernel_launches_total", "Kernel launches by op/variant",
        labelnames=_SM + ("kernel",),
    )
    for kernel, count in sorted(counters.kernel_counts.items()):
        launches.inc(count, kernel=kernel, **labels)
    kernel_seconds = reg.counter(
        "repro_kernel_seconds_total",
        "Simulated kernel seconds by op/variant and lane",
        labelnames=_SM + ("kernel", "device"),
    )
    for kernel, entry in sorted(fold.kernels.items()):
        for lane, seconds in sorted(entry["by_lane"].items()):
            kernel_seconds.inc(seconds, kernel=kernel, device=lane, **labels)

    messages = reg.counter(
        "repro_transfer_messages_total", "PCIe messages by direction",
        labelnames=_SM + ("direction",),
    )
    volume = reg.counter(
        "repro_transfer_bytes_total", "PCIe bytes by direction",
        labelnames=_SM + ("direction",),
    )
    messages.inc(counters.h2d_messages, direction="h2d", **labels)
    messages.inc(counters.d2h_messages, direction="d2h", **labels)
    volume.inc(counters.h2d_bytes, direction="h2d", **labels)
    volume.inc(counters.d2h_bytes, direction="d2h", **labels)

    flops = reg.counter(
        "repro_flops_total", "Modeled floating-point operations by resource",
        labelnames=_SM + ("resource",),
    )
    flops.inc(counters.device_flops, resource="device", **labels)
    flops.inc(counters.host_flops, resource="host", **labels)

    reg.counter(
        "repro_device_deactivations_total",
        "Devices deactivated mid-run (degraded-mode operation)",
        labelnames=_SM,
    ).inc(counters.device_deactivations, **labels)
    reg.counter(
        "repro_repartitions_total",
        "Live repartitions performed by the runtime",
        labelnames=_SM,
    ).inc(counters.repartitions, **labels)

    # A window runs from its cycle mark to the next (the last is open
    # above), so a terminal failure logged exactly at a mark belongs to the
    # cycle that mark starts; that aborted cycle is no sample.
    aborted = {
        bisect_right(trace.cycle_marks, e.start) - 1
        for e in trace.fault_events() if e.kind == "unrecovered"
    }
    cycle_seconds = solver_cycle_seconds(reg)
    for i, cycle in enumerate(fold.cycles):
        if i not in aborted:
            cycle_seconds.observe(cycle["duration"], **labels)


# ---------------------------------------------------------------------------
# Solve results: convergence telemetry
# ---------------------------------------------------------------------------
def observe_result(reg: MetricsRegistry, result, solver: str = "", matrix: str = "") -> None:
    """Record one :class:`~repro.core.convergence.SolveResult`."""
    labels = {"solver": solver, "matrix": matrix}
    reg.counter(
        "repro_solves_total", "Completed solves by convergence outcome",
        labelnames=_SM + ("converged",),
    ).inc(1, converged="yes" if result.converged else "no", **labels)
    reg.counter(
        "repro_restart_cycles_total", "Restart cycles executed",
        labelnames=_SM,
    ).inc(result.n_restarts, **labels)
    reg.counter(
        "repro_iterations_total", "Inner iterations (basis vectors generated)",
        labelnames=_SM,
    ).inc(result.n_iterations, **labels)
    reg.counter(
        "repro_tsqr_fallbacks_total",
        "CholQR breakdowns absorbed by the CAQR fallback",
        labelnames=_SM,
    ).inc(result.breakdowns, **labels)

    phase_seconds = reg.counter(
        "repro_phase_seconds_total",
        "Simulated exclusive seconds per solver phase (region)",
        labelnames=_SM + ("phase",),
    )
    for phase, seconds in sorted(result.timers.items()):
        phase_seconds.inc(seconds, phase=phase, **labels)

    history = result.history
    if history.true_residuals:
        reg.gauge(
            "repro_residual_relative",
            "Final true residual relative to ||b|| (last observed solve)",
            labelnames=_SM,
        ).set(history.relative()[-1], **labels)
    reg.counter(
        "repro_residual_estimates_total",
        "Givens residual estimates recorded along the trajectory",
        labelnames=_SM,
    ).inc(len(history.estimates), **labels)

    s_history = result.details.get("s_history")
    if s_history:
        block_lengths = reg.histogram(
            "repro_adaptive_block_length",
            "Block lengths chosen by the adaptive-s scheme",
            labelnames=_SM, buckets=BLOCK_LENGTH_BUCKETS,
        )
        for record in s_history:
            block_lengths.observe(record["s_used"], **labels)

    if "faults" in result.details or "degradation" in result.details:
        observe_faults(reg, result, solver=solver, matrix=matrix)


def observe_faults(reg: MetricsRegistry, result, solver: str = "", matrix: str = "") -> None:
    """Record fault-injection and degraded-mode telemetry from a result."""
    labels = {"solver": solver, "matrix": matrix}
    faults = result.details.get("faults")
    if faults is not None:
        injected = reg.counter(
            "repro_faults_injected_total", "Faults injected by kind",
            labelnames=_SM + ("kind",),
        )
        kinds: dict[str, int] = {}
        for record in faults["injected"]:
            kinds[record["kind"]] = kinds.get(record["kind"], 0) + 1
        for kind, count in sorted(kinds.items()):
            injected.inc(count, kind=kind, **labels)
        reg.counter(
            "repro_faults_detected_total", "Faults detected by the guards",
            labelnames=_SM,
        ).inc(faults["counts"]["detected"], **labels)
        recovered = reg.counter(
            "repro_faults_recovered_total", "Recoveries by action",
            labelnames=_SM + ("action",),
        )
        actions: dict[str, int] = {}
        for record in faults["recovered"]:
            actions[record["action"]] = actions.get(record["action"], 0) + 1
        for action, count in sorted(actions.items()):
            recovered.inc(count, action=action, **labels)
        reg.counter(
            "repro_panel_retries_total",
            "Poisoned panels regenerated without a cycle redo",
            labelnames=_SM,
        ).inc(actions.get("panel-retry", 0), **labels)
        reg.counter(
            "repro_faults_unrecovered_total", "Faults that defeated recovery",
            labelnames=_SM,
        ).inc(faults["counts"]["unrecovered"], **labels)
        reg.counter(
            "repro_solver_aborts_total",
            "Solves stopped early by an unrecoverable fault",
            labelnames=_SM,
        ).inc(1 if faults["aborted"] else 0, **labels)
        reg.counter(
            "repro_devices_lost_total", "Devices lost to dropout faults",
            labelnames=_SM,
        ).inc(len(faults["lost_devices"]), **labels)
    degradation = result.details.get("degradation")
    if degradation is not None:
        reg.counter(
            "repro_degrade_repartitions_total",
            "Repartitions performed by a degrade policy",
            labelnames=_SM,
        ).inc(degradation["n_repartitions"], **labels)
        reg.counter(
            "repro_deadline_overruns_total",
            "Solves stopped by the simulated-time deadline",
            labelnames=_SM,
        ).inc(1 if degradation["deadline_exceeded"] else 0, **labels)


def observe_solve(reg: MetricsRegistry, ctx, result, solver: str = "", matrix: str = "") -> None:
    """Record one solve end-to-end: runtime telemetry + convergence.

    The runtime telemetry reads the result's own trace fold."""
    observe_context(reg, ctx, solver=solver, matrix=matrix, fold=result.fold)
    observe_result(reg, result, solver=solver, matrix=matrix)


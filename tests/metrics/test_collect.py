"""Observers against real solves: coverage, cycle samples, non-interference."""

import numpy as np
import pytest

from repro.core.ca_gmres import ca_gmres
from repro.core.gmres import gmres
from repro.faults import FaultEvent, FaultPlan
from repro.gpu.context import MultiGpuContext
from repro.matrices.stencil import poisson2d
from repro.metrics import (
    MetricsRegistry,
    observe_context,
    observe_result,
    observe_solve,
)
from repro.serve import SolverSession


@pytest.fixture
def problem():
    A = poisson2d(12)
    rng = np.random.default_rng(7)
    b = rng.standard_normal(A.n_rows)
    return A, b


def _counter_total(reg, name):
    fam = reg.get(name)
    return sum(v for _, v in fam.samples())


def test_observe_solve_covers_runtime_and_convergence(problem):
    A, b = problem
    reg = MetricsRegistry()
    ctx = MultiGpuContext(n_gpus=2)
    result = ca_gmres(A, b, ctx=ctx, m=12, s=4, tol=1e-8, max_restarts=40)
    observe_solve(reg, ctx, result, solver="ca_gmres", matrix="poisson2d")

    # Runtime side: one busy-seconds sample per GPU lane plus host + pcie.
    sm = ("ca_gmres", "poisson2d")
    busy = dict(reg.get("repro_lane_busy_seconds_total").samples())
    assert sm + ("gpu0",) in busy and sm + ("gpu1",) in busy
    assert busy[sm + ("gpu0",)] > 0 and busy[sm + ("pcie",)] > 0
    util = dict(reg.get("repro_lane_utilization").samples())
    assert all(0.0 <= v <= 1.0 for v in util.values())
    active = dict(reg.get("repro_device_active").samples())
    assert active[sm + ("gpu0",)] == 1.0 and active[sm + ("gpu1",)] == 1.0
    # kernel_counts also tallies host-side ops (lapack), so compare
    # against its own sum rather than the device-launch counter.
    assert _counter_total(reg, "repro_kernel_launches_total") == float(
        sum(ctx.counters.kernel_counts.values())
    )
    launches = dict(reg.get("repro_kernel_launches_total").samples())
    for kernel, count in ctx.counters.kernel_counts.items():
        assert launches[sm + (kernel,)] == float(count)
    assert _counter_total(reg, "repro_transfer_bytes_total") == float(
        ctx.counters.h2d_bytes + ctx.counters.d2h_bytes
    )

    # Convergence side.
    solves = dict(reg.get("repro_solves_total").samples())
    key = sm + ("yes" if result.converged else "no",)
    assert solves[key] == 1.0
    assert _counter_total(reg, "repro_restart_cycles_total") == float(
        result.n_restarts
    )
    assert _counter_total(reg, "repro_iterations_total") == float(
        result.n_iterations
    )
    assert _counter_total(reg, "repro_residual_estimates_total") == float(
        len(result.history.estimates)
    )
    if result.history.true_residuals:
        ((_, res),) = reg.get("repro_residual_relative").samples()
        assert res == result.history.relative()[-1]


def _cycle_samples(reg):
    ((_, entry),) = reg.get("repro_solver_cycle_seconds").samples()
    return entry


def test_cycle_histogram_counts_completed_cycles(problem):
    A, b = problem
    # One solve: a sample per restart cycle, summing the profile's windows.
    reg = MetricsRegistry()
    ctx = MultiGpuContext(n_gpus=2)
    result = gmres(A, b, ctx=ctx, m=10, tol=1e-8, max_restarts=40)
    observe_context(reg, ctx, solver="gmres", matrix="poisson2d")
    entry = _cycle_samples(reg)
    cycles = result.details["profile"]["cycles"]
    assert result.n_restarts > 1
    assert entry["count"] == result.n_restarts == len(cycles)
    assert entry["sum"] == sum(c["end"] - c["start"] for c in cycles)

    # A solve_many batch: the interleaved trace holds every request's cycles.
    reg = MetricsRegistry()
    sess = SolverSession(
        A, solver="ca", n_gpus=2, m=12, s=4, tol=1e-8, max_restarts=40,
        metrics=reg,
    )
    batch = sess.solve_many([b, 2.0 * b, b[::-1].copy()])
    assert _cycle_samples(reg)["count"] == sum(r.n_restarts for r in batch)

    # An aborted solve: the cycle a device loss cut short is no sample.
    reg = MetricsRegistry()
    plan = FaultPlan.scripted([FaultEvent("gpu1", "dropout", trigger=200)])
    ctx = MultiGpuContext(n_gpus=2, fault_plan=plan)
    result = ca_gmres(
        A, b, ctx=ctx, m=12, s=4, basis="monomial", tol=1e-8, max_restarts=40
    )
    observe_context(reg, ctx, solver="ca_gmres", matrix="poisson2d")
    assert result.details["faults"]["aborted"] and result.n_restarts > 0
    assert len(ctx.trace.fold().cycles) == result.n_restarts + 1
    assert _cycle_samples(reg)["count"] == result.n_restarts


def test_session_metrics_do_not_change_results(problem):
    A, b = problem
    kw = dict(solver="ca", n_gpus=2, m=12, s=4, tol=1e-8, max_restarts=40)
    plain = SolverSession(A, **kw).solve(b)
    observed = SolverSession(A, metrics=MetricsRegistry(), **kw).solve(b)
    assert np.array_equal(plain.x, observed.x)
    assert plain.timers == observed.timers
    assert plain.counters == observed.counters


def test_observe_result_records_adaptive_and_faults():
    from repro.core.convergence import ConvergenceHistory

    reg = MetricsRegistry()

    class FakeResult:
        converged = True
        n_restarts = 2
        n_iterations = 20
        history = ConvergenceHistory(
            rhs_norm=1.0,
            estimates=[(0, 1.0), (10, 0.5), (20, 1e-9)],
            true_residuals=[(20, 1e-9)],
        )
        timers = {"spmv": 0.5}
        breakdowns = 3
        details = {
            "s_history": [{"s_used": 4}, {"s_used": 8}],
            "faults": {
                "injected": [{"kind": "device_loss"}],
                "detected": [{}],
                "recovered": [{"action": "repartition"}],
                "unrecovered": [],
                "lost_devices": ["gpu1"],
                "aborted": False,
                "counts": {
                    "injected": 1,
                    "detected": 1,
                    "recovered": 1,
                    "unrecovered": 0,
                },
            },
            "degradation": {"n_repartitions": 1, "deadline_exceeded": False},
        }

    observe_result(reg, FakeResult(), solver="ca_gmres", matrix="synthetic")
    sm = ("ca_gmres", "synthetic")
    assert _counter_total(reg, "repro_tsqr_fallbacks_total") == 3.0
    ((_, hist),) = reg.get("repro_adaptive_block_length").samples()
    assert hist["count"] == 2 and hist["sum"] == 12.0
    injected = dict(reg.get("repro_faults_injected_total").samples())
    assert injected[sm + ("device_loss",)] == 1.0
    recovered = dict(reg.get("repro_faults_recovered_total").samples())
    assert recovered[sm + ("repartition",)] == 1.0
    assert _counter_total(reg, "repro_devices_lost_total") == 1.0
    assert _counter_total(reg, "repro_degrade_repartitions_total") == 1.0
    assert _counter_total(reg, "repro_deadline_overruns_total") == 0.0
    phases = dict(reg.get("repro_phase_seconds_total").samples())
    assert phases[sm + ("spmv",)] == 0.5
    ((_, rel),) = reg.get("repro_residual_relative").samples()
    assert rel == 1e-9


def test_session_metrics_cold_warm_batched(problem):
    A, b = problem
    reg = MetricsRegistry()
    sess = SolverSession(
        A,
        solver="ca",
        n_gpus=2,
        m=12,
        s=4,
        tol=1e-8,
        max_restarts=40,
        metrics=reg,
        metrics_label="poisson2d",
    )
    sess.solve(b)
    sess.solve(b)
    sess.solve_many([b, 2.0 * b])

    # Cold/warm split shows up in the wall-clock latency histogram labels.
    latency = dict(reg.get("repro_serve_request_seconds").samples())
    assert {lv[-1] for lv in latency} == {"cold", "warm"}
    requests = dict(reg.get("repro_serve_requests_total").samples())
    assert requests[("ca_gmres", "poisson2d", "single")] == 2.0
    assert requests[("ca_gmres", "poisson2d", "batched")] == 2.0
    ((_, occ),) = reg.get("repro_serve_batch_occupancy").samples()
    assert 0.0 < occ <= 1.0
    # Plan cache: first solve misses, everything after hits.
    cache = dict(reg.get("repro_plan_cache_requests_total").samples())
    assert cache[("structural", "miss")] == 1.0
    assert cache[("structural", "hit")] >= 1.0
    # Cycle histogram accumulated across all five solves.
    ((_, cyc),) = reg.get("repro_solver_cycle_seconds").samples()
    assert cyc["count"] >= 4


def test_plan_build_span_recorded_on_structural_miss(problem):
    A, b = problem
    sess = SolverSession(A, solver="ca", n_gpus=2, m=12, s=4, max_restarts=5)
    r1 = sess.solve(b)
    spans = [e for e in sess.ctx.trace.events if e.kind == "plan"]
    assert len(spans) == 1
    (span,) = spans
    assert span.name == "plan-build"
    assert span.duration == 0.0  # zero simulated width: annotation only
    assert span.args["level"] == "structural"
    assert span.args["host_seconds"] >= 0.0
    # Warm solve: the run resets the trace, which now describes a run
    # with no plan build — no marker, and the simulated timeline matches
    # the cold run exactly (the marker had zero width).
    r2 = sess.solve(b)
    assert sum(1 for e in sess.ctx.trace.events if e.kind == "plan") == 0
    assert r1.timers == r2.timers
    # The fold must not trip over the plan-kind event.
    assert sess.ctx.trace.fold().regions is not None

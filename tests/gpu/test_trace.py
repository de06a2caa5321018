"""Tests for the structured event trace (repro.gpu.trace)."""

import json

import numpy as np
import pytest

from repro.gpu.context import MultiGpuContext
from repro.gpu.counters import Counters
from repro.gpu.trace import TraceRecorder


class TestTraceRecorder:
    def test_record_appends_event(self):
        tr = TraceRecorder()
        tr.record("dot/cublas", "gpu0", "kernel", 1.0, 0.5, op="dot")
        (e,) = tr.events
        assert e.name == "dot/cublas"
        assert e.lane == "gpu0"
        assert e.kind == "kernel"
        assert e.start == 1.0 and e.duration == 0.5 and e.end == 1.5
        assert e.args["op"] == "dot"

    def test_region_nesting_exclusive_times(self):
        tr = TraceRecorder()
        tr.region_enter("outer", 0.0)
        tr.region_enter("inner", 1.0)
        tr.region_exit("inner", 3.0)
        tr.region_exit("outer", 4.0)
        totals = tr.fold().timers
        assert totals["inner"] == pytest.approx(2.0)
        assert totals["outer"] == pytest.approx(2.0)  # 4 - 2 nested
        # Wall clock is fully attributed exactly once.
        assert sum(totals.values()) == pytest.approx(4.0)

    def test_region_mismatch_raises(self):
        tr = TraceRecorder()
        tr.region_enter("a", 0.0)
        with pytest.raises(ValueError, match="does not match"):
            tr.region_exit("b", 1.0)

    def test_region_exit_without_enter_raises(self):
        with pytest.raises(ValueError, match="no open region"):
            TraceRecorder().region_exit("a", 0.0)

    def test_region_totals_inclusive_and_self_nested(self):
        tr = TraceRecorder()
        tr.region_enter("outer", 0.0)
        tr.region_enter("outer", 1.0)  # recursive same-name span
        tr.region_exit("outer", 2.0)
        tr.region_exit("outer", 3.0)
        totals = tr.fold().regions
        # The nested same-name span must not double its parent's inclusive.
        assert totals["outer"]["inclusive"] == pytest.approx(3.0)
        assert totals["outer"]["exclusive"] == pytest.approx(3.0)
        assert totals["outer"]["count"] == 2

    def test_cycle_windows(self):
        tr = TraceRecorder()
        tr.mark_cycle(0.0)
        tr.mark_cycle(2.0)
        tr.record("k", "gpu0", "kernel", 2.0, 1.0)
        cycles = tr.fold().cycles
        assert [(c["start"], c["end"]) for c in cycles] == [(0.0, 2.0), (2.0, 3.0)]

    def test_reset_clears_everything(self):
        tr = TraceRecorder()
        tr.record("k", "gpu0", "kernel", 0.0, 1.0)
        tr.region_enter("r", 0.0)
        tr.region_exit("r", 1.0)
        tr.mark_cycle(0.5)
        tr.reset()
        assert tr.events == []
        assert tr.cycle_marks == []
        assert tr.fold().timers == {}


class TestContextIntegration:
    def test_kernel_charges_are_traced(self):
        ctx = MultiGpuContext(2)
        ctx.devices[1].charge_kernel("dot", "cublas", n=1000)
        kernels = [e for e in ctx.trace.events if e.kind == "kernel"]
        (e,) = kernels
        assert e.lane == "gpu1"
        assert e.name == "dot/cublas"
        assert e.duration == pytest.approx(ctx.devices[1].clock)

    def test_transfers_record_bus_intervals(self):
        ctx = MultiGpuContext(2)
        ctx.h2d(ctx.devices[0], np.zeros(100))
        ctx.d2h(ctx.devices[1].zeros(50))
        h2d = [e for e in ctx.trace.events if e.kind == "h2d"]
        d2h = [e for e in ctx.trace.events if e.kind == "d2h"]
        assert len(h2d) == 1 and len(d2h) == 1
        assert h2d[0].lane == "pcie" and d2h[0].lane == "pcie"
        assert h2d[0].args["bytes"] == 800
        assert d2h[0].args["bytes"] == 400
        assert h2d[0].duration == pytest.approx(ctx.bus.message_time(800))

    def test_shared_bus_intervals_serialize(self):
        ctx = MultiGpuContext(2)
        ctx.h2d(ctx.devices[0], np.zeros(1000))
        ctx.h2d(ctx.devices[1], np.zeros(1000))
        e1, e2 = [e for e in ctx.trace.events if e.kind == "h2d"]
        assert e2.start >= e1.end  # bus occupancy intervals do not overlap

    def test_nested_regions_do_not_double_count(self):
        ctx = MultiGpuContext(1)
        with ctx.region("outer"):
            ctx.devices[0].advance(1.0)
            with ctx.region("inner"):
                ctx.devices[0].advance(2.0)
            ctx.devices[0].advance(0.5)
        assert ctx.timers["inner"] == pytest.approx(2.0)
        assert ctx.timers["outer"] == pytest.approx(1.5)
        assert sum(ctx.timers.values()) == pytest.approx(3.5)

    def test_non_nested_region_matches_legacy_accumulation(self):
        ctx = MultiGpuContext(1)
        with ctx.region("phase"):
            ctx.devices[0].advance(1.5)
        with ctx.region("phase"):
            ctx.devices[0].advance(0.5)
        assert ctx.timers["phase"] == pytest.approx(2.0)
        inclusive = ctx.trace.fold().regions["phase"]["inclusive"]
        assert inclusive == pytest.approx(ctx.timers["phase"])

    def test_reset_clocks_clears_trace(self):
        ctx = MultiGpuContext(1)
        with ctx.region("work"):
            ctx.devices[0].charge_kernel("dot", "cublas", n=100)
        ctx.mark_cycle()
        ctx.reset_clocks()
        assert ctx.trace.events == []
        assert ctx.trace.cycle_marks == []
        assert ctx.timers == {}

    def test_kernel_counts_counter(self):
        ctx = MultiGpuContext(1)
        ctx.devices[0].charge_kernel("dot", "cublas", n=10)
        ctx.devices[0].charge_kernel("dot", "cublas", n=10)
        ctx.host.charge_small_dense("chol", 4)
        assert ctx.counters.kernel_counts["dot/cublas"] == 2
        assert ctx.counters.kernel_counts["chol/lapack"] == 1
        snap = ctx.counters.snapshot()
        assert snap["kernel_counts"]["dot/cublas"] == 2

    def test_reset_clocks_alone_zeroes_counters(self):
        ctx = MultiGpuContext(2)
        ctx.devices[0].charge_kernel("dot", "cublas", n=10)
        ctx.host.charge_small_dense("chol", 4)
        ctx.d2h(ctx.devices[1].zeros(4))
        assert ctx.counters.kernel_launches == 1
        ctx.reset_clocks()
        assert ctx.counters.snapshot() == Counters().snapshot()


class TestProfileAndExport:
    def _tiny_trace(self):
        ctx = MultiGpuContext(2)
        ctx.mark_cycle()
        with ctx.region("spmv"):
            ctx.h2d(ctx.devices[0], np.zeros(64))
            ctx.devices[0].charge_kernel("spmv", "ellpack", nnz=256, n_rows=64)
        with ctx.region("orth"):
            ctx.devices[1].charge_kernel("dot", "cublas", n=64)
            ctx.d2h(ctx.devices[1].zeros(1))
        return ctx

    def test_profile_regions_match_timers(self):
        ctx = self._tiny_trace()
        profile = ctx.trace.fold().profile()
        for name, total in ctx.timers.items():
            assert profile["regions"][name]["inclusive"] == pytest.approx(total)

    def test_profile_kernels_and_transfers(self):
        ctx = self._tiny_trace()
        profile = ctx.trace.fold().profile()
        assert profile["kernels"]["spmv/ellpack"]["count"] == 1
        assert "gpu0" in profile["kernels"]["spmv/ellpack"]["by_lane"]
        assert profile["transfers"]["h2d"]["count"] == 1
        assert profile["transfers"]["h2d"]["bytes"] == 64 * 8
        assert profile["transfers"]["d2h"]["count"] == 1
        assert profile["bus"]["messages"] == 2

    def test_profile_cycles(self):
        ctx = self._tiny_trace()
        profile = ctx.trace.fold().profile()
        assert len(profile["cycles"]) == 1
        cycle = profile["cycles"][0]
        assert set(cycle["regions"]) == {"spmv", "orth"}
        assert cycle["duration"] == pytest.approx(profile["total_time"])

    def test_chrome_trace_structure(self):
        ctx = self._tiny_trace()
        doc = ctx.trace.to_chrome_trace()
        events = doc["traceEvents"]
        names = {
            e["args"]["name"] for e in events if e.get("name") == "thread_name"
        }
        assert {"host", "gpu0", "gpu1", "pcie", "regions"} <= names
        spans = [e for e in events if e["ph"] == "X"]
        assert spans, "expected complete (X) events"
        for e in spans:
            assert e["dur"] >= 0.0
            assert isinstance(e["tid"], int)

    def test_chrome_trace_roundtrips_through_json(self, tmp_path):
        ctx = self._tiny_trace()
        path = tmp_path / "trace.json"
        ctx.trace.write_chrome_trace(path)
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list)
        cats = {e.get("cat") for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"kernel", "h2d", "d2h", "region"} <= cats


class TestSolverProfiles:
    def test_gmres_and_ca_gmres_attach_profile(self):
        from repro.core.ca_gmres import ca_gmres
        from repro.core.gmres import gmres
        from repro.matrices.stencil import poisson2d

        A = poisson2d(12)
        b = np.ones(A.n_rows)
        for result in (
            gmres(A, b, m=10, max_restarts=2),
            ca_gmres(A, b, s=3, m=9, max_restarts=2),
        ):
            profile = result.profile
            assert profile is not None
            assert len(profile["cycles"]) == result.n_restarts
            # Trace-derived region totals agree with the legacy timers view.
            for name, total in result.timers.items():
                assert profile["regions"][name]["inclusive"] == pytest.approx(
                    total
                )

    def test_pipelined_attaches_profile(self):
        from repro.core.pipelined import pipelined_gmres
        from repro.matrices.stencil import poisson2d

        A = poisson2d(10)
        b = np.ones(A.n_rows)
        result = pipelined_gmres(A, b, m=8, max_restarts=2)
        assert result.profile is not None
        assert len(result.profile["cycles"]) == result.n_restarts


def _single_node_run():
    from repro.core.ca_gmres import ca_gmres
    from repro.matrices.stencil import poisson2d

    A = poisson2d(12)
    ctx = MultiGpuContext(3)
    return ctx, [ca_gmres(A, np.ones(A.n_rows), ctx=ctx, s=4, m=12, max_restarts=3)]


def _multinode_run():
    from repro.core.gmres import gmres
    from repro.gpu.multinode import MultiNodeContext
    from repro.matrices.stencil import poisson2d

    A = poisson2d(12)
    ctx = MultiNodeContext(2, 2)
    return ctx, [gmres(A, np.ones(A.n_rows), ctx=ctx, m=10, max_restarts=3)]


def _rate_faulted_run():
    from repro.core.ca_gmres import ca_gmres
    from repro.faults import FaultPlan
    from repro.matrices.stencil import poisson2d

    A = poisson2d(16)
    ctx = MultiGpuContext(3, fault_plan=FaultPlan(seed=3, rate=2e-3))
    b = np.random.default_rng(0).random(A.n_rows)
    result = ca_gmres(A, b, ctx=ctx, s=4, m=12, max_restarts=20)
    assert result.details["faults"]["counts"]["injected"] > 0
    return ctx, [result]


def _degraded_run():
    from repro.core import DegradePolicy
    from repro.core.ca_gmres import ca_gmres
    from repro.faults import FaultEvent, FaultPlan
    from repro.matrices.stencil import poisson2d

    A = poisson2d(16)
    plan = FaultPlan(events=(
        FaultEvent("gpu1", "dropout", trigger=40),
        FaultEvent("gpu2", "dropout", trigger=90),
    ))
    ctx = MultiGpuContext(3, fault_plan=plan)
    result = ca_gmres(
        A, np.ones(A.n_rows), ctx=ctx, s=4, m=12, max_restarts=10,
        degrade=DegradePolicy(),
    )
    assert result.counters["device_deactivations"] == 2
    return ctx, [result]


def _solve_many_run():
    from repro.matrices.stencil import poisson2d
    from repro.serve import SolverSession

    A = poisson2d(12)
    session = SolverSession(A, solver="ca", n_gpus=2, s=4, m=12, max_restarts=3)
    b = np.ones(A.n_rows)
    return session.ctx, session.solve_many([b, 2 * b, b + 1])


class TestOneRecord:
    """Counters are folded from the trace, so they equal its aggregates."""

    @pytest.mark.parametrize(
        "run",
        [_single_node_run, _multinode_run, _rate_faulted_run, _degraded_run,
         _solve_many_run],
        ids=["single-node", "multinode", "rate-faulted", "degraded", "solve-many"],
    )
    def test_counters_equal_trace_aggregates(self, run):
        ctx, results = run()
        for result in results:
            counters, profile = result.counters, result.profile
            assert counters["kernel_counts"] == {
                k: v["count"] for k, v in profile["kernels"].items()
            }
            for kind in ("h2d", "d2h"):
                assert counters[f"{kind}_messages"] == profile["transfers"][kind]["count"]
                assert counters[f"{kind}_bytes"] == profile["transfers"][kind]["bytes"]
        kinds = [e.kind for e in ctx.trace.fault_events()]
        assert ctx.counters.device_deactivations == kinds.count("degraded")
        assert ctx.counters.repartitions == kinds.count("repartition")

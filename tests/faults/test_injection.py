"""Tests for the injection mechanics: kernels, transfers, determinism."""

import numpy as np
import pytest

from repro.faults import DeviceLost, FaultEvent, FaultPlan, TransferCorruption
from repro.gpu import blas
from repro.gpu.context import MultiGpuContext


def faulted_ctx(events=(), n_gpus=1, **plan_kw):
    plan = (
        FaultPlan.scripted(events) if events else FaultPlan.from_rate(**plan_kw)
    )
    return MultiGpuContext(n_gpus, fault_plan=plan)


class TestKernelFaults:
    def test_scripted_poison_lands_in_kernel_output(self):
        # Third kernel charge on gpu0 (trigger index 2) writes one NaN.
        ctx = faulted_ctx([FaultEvent("gpu0", "poison", trigger=2, position=4)])
        dev = ctx.devices[0]
        x = dev.adopt(np.ones(8))
        y = dev.adopt(np.ones(8))
        blas.axpy(1.0, x, y)  # trigger 0, clean
        blas.axpy(1.0, x, y)  # trigger 1, clean
        assert np.all(np.isfinite(y.data))
        blas.axpy(1.0, x, y)  # trigger 2, poisoned
        assert np.isnan(y.data[4])
        assert np.isfinite(np.delete(y.data, 4)).all()
        assert ctx.faults.schedule() == [("gpu0", "poison", 2)]

    def test_poison_position_wraps_and_parity_selects_inf(self):
        ctx = faulted_ctx([FaultEvent("gpu0", "poison", trigger=0, position=11)])
        dev = ctx.devices[0]
        x = dev.adopt(np.ones(8))
        blas.scal(2.0, x)
        assert np.isinf(x.data[11 % 8])  # odd position -> +Inf

    def test_scripted_stall_extends_clock_only(self):
        clean = MultiGpuContext(1)
        stalled = faulted_ctx(
            [FaultEvent("gpu0", "stall", trigger=0, factor=8.0)]
        )
        for c in (clean, stalled):
            dev = c.devices[0]
            x = dev.adopt(np.ones(1000))
            blas.scal(2.0, x)
        assert stalled.devices[0].clock == pytest.approx(
            8.0 * clean.devices[0].clock
        )
        # Numerics untouched.
        assert np.all(stalled.devices[0].adopt(np.ones(1)).data == 1.0)
        [rec] = stalled.faults.report()["injected"]
        assert rec["kind"] == "stall" and rec["extra_time"] > 0

    def test_stall_on_repeated_shape_leaves_cost_memo_clean(self):
        ctx = faulted_ctx([FaultEvent("gpu0", "stall", trigger=1, factor=4.0)])
        dev = ctx.devices[0]
        shape = dict(n=5000, k=8, j=8)
        charged = [dev.charge_kernel("gemm_tn", "batched", **shape) for _ in range(3)]
        model_t, _ = ctx.perf.kernel_cost("gemm_tn", "batched", on="gpu", **shape)
        assert charged[0] == model_t
        assert charged[1] == pytest.approx(4.0 * model_t)
        assert charged[2] == model_t  # the stall did not leak into the memo
        kernels = [e.duration for e in ctx.trace.events if e.kind == "kernel"]
        assert kernels == charged

    def test_dropout_raises_and_marks_device_dead(self):
        ctx = faulted_ctx([FaultEvent("gpu0", "dropout", trigger=1)])
        dev = ctx.devices[0]
        x = dev.adopt(np.ones(4))
        blas.scal(2.0, x)
        with pytest.raises(DeviceLost):
            blas.scal(2.0, x)
        assert "gpu0" in ctx.faults.dead
        # Every subsequent operation touching the device fails too.
        with pytest.raises(DeviceLost):
            blas.scal(2.0, x)
        with pytest.raises(DeviceLost):
            ctx.h2d(dev, np.ones(4))

    def test_host_kernels_can_stall(self):
        ctx = faulted_ctx([FaultEvent("host", "stall", trigger=0, factor=4.0)])
        clean = MultiGpuContext(1)
        for c in (clean, ctx):
            c.host.charge_kernel("axpy", "mkl", n=5000)
        assert ctx.host.clock == pytest.approx(4.0 * clean.host.clock)


class TestTransferFaults:
    def test_scripted_corrupt_hits_arriving_copy_not_source(self):
        ctx = faulted_ctx([FaultEvent("pcie", "corrupt", trigger=0, position=2)])
        src = np.ones(6)
        with pytest.raises(TransferCorruption):
            ctx.h2d(ctx.devices[0], src)
        assert np.all(np.isfinite(src))  # transient: source intact
        assert ctx.faults.report()["detected"]  # the arrival guard logged it
        # The next transfer (trigger 1) is clean: a retry succeeds.
        arr = ctx.h2d(ctx.devices[0], src)
        assert np.all(arr.data == 1.0)

    def test_d2h_corruption_detected(self):
        ctx = faulted_ctx([FaultEvent("pcie", "corrupt", trigger=1, position=0)])
        dev = ctx.devices[0]
        darr = dev.adopt(np.ones(5))
        ctx.d2h(darr)  # trigger 0: clean
        with pytest.raises(TransferCorruption):
            ctx.d2h(darr)
        assert np.all(np.isfinite(darr.data))

    def test_bus_stall_delays_consumer(self):
        clean = MultiGpuContext(1)
        ctx = faulted_ctx([FaultEvent("pcie", "stall", trigger=0, factor=8.0)])
        for c in (clean, ctx):
            c.h2d(c.devices[0], np.ones(100_000))
        assert ctx.devices[0].clock > clean.devices[0].clock

    def test_arrival_guard_without_plan(self):
        """The isfinite arrival guard is armed on a plain context."""
        ctx = MultiGpuContext(1)
        with pytest.raises(TransferCorruption):
            ctx.h2d(ctx.devices[0], np.array([1.0, np.nan]))
        darr = ctx.devices[0].adopt(np.array([np.inf, 0.0]))
        with pytest.raises(TransferCorruption):
            ctx.d2h(darr)


class TestDeterminism:
    def _exercise(self, ctx):
        dev = ctx.devices[0]
        x = dev.adopt(np.ones(64))
        for _ in range(200):
            try:
                blas.scal(1.0, x)
            except DeviceLost:
                break
        for _ in range(20):
            try:
                ctx.h2d(dev, np.ones(16))
            except (TransferCorruption, DeviceLost):
                pass
        ctx.host.charge_kernel("axpy", "mkl", n=100)
        return ctx.faults.schedule()

    def test_same_seed_same_schedule(self):
        a = self._exercise(faulted_ctx(seed=42, rate=0.05))
        b = self._exercise(faulted_ctx(seed=42, rate=0.05))
        assert a == b and len(a) > 0

    def test_different_seed_different_schedule(self):
        a = self._exercise(faulted_ctx(seed=1, rate=0.05))
        b = self._exercise(faulted_ctx(seed=2, rate=0.05))
        assert a != b

    def test_reset_clocks_replays_schedule(self):
        ctx = faulted_ctx(seed=7, rate=0.05)
        first = self._exercise(ctx)
        ctx.reset_clocks()
        second = self._exercise(ctx)
        assert first == second and len(first) > 0

    def test_max_faults_caps_rate_draws(self):
        ctx = faulted_ctx(seed=3, rate=0.5, max_faults=2)
        self._exercise(ctx)
        assert len(ctx.faults.schedule()) <= 2

    def test_zero_rate_plan_is_inert(self):
        clean = MultiGpuContext(2)
        guarded = MultiGpuContext(2, fault_plan=FaultPlan.from_rate(0, 0.0))
        for c in (clean, guarded):
            dev = c.devices[1]
            x = dev.adopt(np.ones(128))
            blas.scal(3.0, x)
            c.h2d(c.devices[0], np.ones(32))
        assert clean.devices[1].clock == guarded.devices[1].clock
        assert clean.devices[0].clock == guarded.devices[0].clock
        assert not guarded.faults.has_activity()


class TestTraceIntegration:
    def test_fault_events_recorded_in_fault_lane(self):
        from repro.gpu.trace import FAULT_LANE

        ctx = faulted_ctx([FaultEvent("gpu0", "poison", trigger=0)])
        dev = ctx.devices[0]
        blas.scal(2.0, dev.adopt(np.ones(4)))
        faults = ctx.trace.fault_events()
        assert len(faults) == 1
        assert faults[0].kind == "fault"
        assert FAULT_LANE in ctx.trace.lanes()

    def test_fault_lane_absent_without_events(self):
        ctx = MultiGpuContext(1, fault_plan=FaultPlan.from_rate(0, 0.0))
        blas.scal(2.0, ctx.devices[0].adopt(np.ones(4)))
        assert "faults" not in ctx.trace.lanes()
        assert ctx.trace.fault_events() == []

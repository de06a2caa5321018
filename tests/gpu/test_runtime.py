"""Tests for the simulated GPU runtime: devices, PCIe, context, counters."""

import numpy as np
import pytest

from repro.gpu.context import MultiGpuContext
from repro.gpu.counters import Counters
from repro.gpu.device import DeviceArray
from repro.gpu.pcie import PcieBus
from repro.perf.machine import PcieSpec, keeneland_node


class TestCounters:
    def test_totals(self):
        c = Counters()
        c.h2d_messages = 2
        c.d2h_messages = 3
        c.h2d_bytes = 10
        c.d2h_bytes = 20
        assert c.total_messages == 5
        assert c.total_bytes == 30


class TestPcieBus:
    def test_message_time(self):
        bus = PcieBus(PcieSpec(latency=1e-5, bandwidth=1e9))
        assert bus.message_time(0) == pytest.approx(1e-5)
        assert bus.message_time(1e9) == pytest.approx(1.0 + 1e-5)

    def test_keeneland_message_time(self):
        bus = PcieBus(keeneland_node().pcie)
        assert bus.message_time(0) == pytest.approx(12e-6)
        assert bus.message_time(5.8e9) == pytest.approx(1.0 + 12e-6)

    def test_shared_bus_serializes(self):
        bus = PcieBus(PcieSpec(latency=0.0, bandwidth=1e9, shared_bus=True))
        end1 = bus.schedule(0.0, int(1e9))  # 1 second
        end2 = bus.schedule(0.0, int(1e9))  # queues behind
        assert end1 == pytest.approx(1.0)
        assert end2 == pytest.approx(2.0)

    def test_unshared_bus_overlaps(self):
        bus = PcieBus(PcieSpec(latency=0.0, bandwidth=1e9, shared_bus=False))
        end1 = bus.schedule(0.0, int(1e9))
        end2 = bus.schedule(0.0, int(1e9))
        assert end1 == end2 == pytest.approx(1.0)

    def test_negative_bytes_rejected(self):
        bus = PcieBus(PcieSpec(latency=0.0, bandwidth=1.0))
        with pytest.raises(ValueError):
            bus.message_time(-1)


class TestDevice:
    def test_adopt_and_views(self):
        ctx = MultiGpuContext(1)
        dev = ctx.devices[0]
        arr = dev.adopt(np.arange(6.0).reshape(2, 3))
        view = arr.view((slice(None), 1))
        assert view.shape == (2,)
        view.data[0] = 99.0
        assert arr.data[0, 1] == 99.0  # views share memory

    def test_kernel_advances_clock(self):
        ctx = MultiGpuContext(1)
        dev = ctx.devices[0]
        before = dev.clock
        dev.charge_kernel("dot", "cublas", n=1_000_000)
        assert dev.clock > before

    def test_kernel_counts(self):
        ctx = MultiGpuContext(1)
        dev = ctx.devices[0]
        dev.charge_kernel("dot", "cublas", n=100)
        assert ctx.counters.kernel_launches == 1
        assert ctx.counters.device_flops == pytest.approx(200.0)

    def test_residency_enforced(self):
        ctx = MultiGpuContext(2)
        a = ctx.devices[0].zeros(4)
        with pytest.raises(ValueError, match="gpu1"):
            ctx.devices[1].require_resident(a)

    def test_non_device_array_rejected(self):
        ctx = MultiGpuContext(1)
        with pytest.raises(TypeError):
            ctx.devices[0].require_resident(np.zeros(3))

    def test_clock_cannot_go_backwards(self):
        ctx = MultiGpuContext(1)
        with pytest.raises(ValueError):
            ctx.devices[0].advance(-1.0)


class TestContextTransfers:
    def test_h2d_copies_data(self):
        ctx = MultiGpuContext(1)
        src = np.arange(5.0)
        darr = ctx.h2d(ctx.devices[0], src)
        src[0] = -1.0  # mutation must not leak into the device copy
        np.testing.assert_array_equal(darr.data, [0, 1, 2, 3, 4])

    def test_d2h_copies_data(self):
        ctx = MultiGpuContext(1)
        darr = ctx.devices[0].adopt(np.arange(3.0))
        host = ctx.d2h(darr)
        host[0] = -1.0
        assert darr.data[0] == 0.0

    def test_transfer_counts_and_bytes(self):
        ctx = MultiGpuContext(2)
        ctx.h2d(ctx.devices[0], np.zeros(10))
        ctx.h2d(ctx.devices[1], np.zeros(4))
        ctx.d2h(ctx.devices[0].zeros(2))
        assert ctx.counters.h2d_messages == 2
        assert ctx.counters.h2d_bytes == 14 * 8
        assert ctx.counters.d2h_messages == 1
        assert ctx.counters.d2h_bytes == 16

    def test_h2d_advances_device_not_host(self):
        ctx = MultiGpuContext(1)
        h0 = ctx.host.clock
        ctx.h2d(ctx.devices[0], np.zeros(1000))
        assert ctx.host.clock == h0  # async: producer not blocked
        assert ctx.devices[0].clock > 0.0

    def test_d2h_advances_host_not_device(self):
        ctx = MultiGpuContext(1)
        darr = ctx.devices[0].zeros(1000)
        d0 = ctx.devices[0].clock
        ctx.d2h(darr)
        assert ctx.devices[0].clock == d0
        assert ctx.host.clock > 0.0

    def test_sync_aligns_clocks(self):
        ctx = MultiGpuContext(3)
        ctx.devices[1].advance(5.0)
        t = ctx.sync()
        assert t == pytest.approx(5.0)
        assert all(d.clock == t for d in ctx.devices)
        assert ctx.host.clock == t

    def test_wall_clock_survives_deactivating_the_latest_device(self):
        ctx = MultiGpuContext(2)
        with ctx.region("work"):
            ctx.devices[0].advance(1.0)
            ctx.devices[1].advance(3.0)
        before = ctx.current_time()
        ctx.deactivate_device("gpu1")
        assert ctx.current_time() >= before
        with ctx.region("next"):
            ctx.devices[0].advance(3.0)
        # The next region starts where the last one ended, so none overlap.
        fold = ctx.trace.fold()
        assert sum(fold.timers.values()) == fold.end_time == pytest.approx(4.0)

    def test_reset_clocks(self):
        ctx = MultiGpuContext(2)
        ctx.devices[0].advance(1.0)
        with ctx.region("work"):
            ctx.devices[1].advance(2.0)
        ctx.reset_clocks()
        assert ctx.current_time() == 0.0
        assert ctx.timers == {}


class TestRegions:
    def test_region_accumulates(self):
        ctx = MultiGpuContext(1)
        with ctx.region("phase"):
            ctx.devices[0].advance(1.5)
        with ctx.region("phase"):
            ctx.devices[0].advance(0.5)
        assert ctx.timers["phase"] == pytest.approx(2.0)

    def test_region_uses_global_clock(self):
        ctx = MultiGpuContext(2)
        with ctx.region("phase"):
            ctx.devices[0].advance(1.0)
            ctx.devices[1].advance(3.0)  # slower device dominates
        assert ctx.timers["phase"] == pytest.approx(3.0)


class TestAllreduce:
    def test_sums_partials(self):
        ctx = MultiGpuContext(3)
        partials = [
            DeviceArray(np.full(4, float(d + 1)), dev)
            for d, dev in enumerate(ctx.devices)
        ]
        total = ctx.allreduce_sum(partials)
        np.testing.assert_array_equal(total, np.full(4, 6.0))

    def test_wrong_count_rejected(self):
        ctx = MultiGpuContext(2)
        with pytest.raises(ValueError, match="one partial per device"):
            ctx.allreduce_sum([ctx.devices[0].zeros(1)])

    def test_broadcast_reaches_all_devices(self):
        ctx = MultiGpuContext(3)
        out = ctx.broadcast(np.array([7.0]))
        assert len(out) == 3
        for d, arr in enumerate(out):
            assert arr.device is ctx.devices[d]
            assert arr.data[0] == 7.0

    def test_allreduce_message_count(self):
        ctx = MultiGpuContext(3)
        ctx.reset_clocks()
        partials = [dev.zeros(2) for dev in ctx.devices]
        ctx.allreduce_sum(partials)
        assert ctx.counters.d2h_messages == 3

    def test_invalid_n_gpus(self):
        with pytest.raises(ValueError):
            MultiGpuContext(0)

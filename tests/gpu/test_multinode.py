"""Tests for the multi-node execution context."""

import numpy as np
import pytest

from repro.core.ca_gmres import ca_gmres
from repro.core.gmres import gmres
from repro.faults import FaultEvent, FaultPlan
from repro.faults.errors import DeviceLost
from repro.gpu.multinode import MultiNodeContext, NetworkSpec, infiniband_qdr
from repro.matrices import poisson2d


class TestConstruction:
    def test_device_count(self):
        ctx = MultiNodeContext(2, 3)
        assert ctx.n_gpus == 6
        assert ctx.n_nodes == 2

    def test_node_assignment_blocked(self):
        ctx = MultiNodeContext(2, 3)
        nodes = [ctx.node_of(d) for d in ctx.devices]
        assert nodes == [0, 0, 0, 1, 1, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiNodeContext(0, 3)
        with pytest.raises(ValueError):
            MultiNodeContext(2, 0)
        with pytest.raises(ValueError):
            NetworkSpec(latency=-1.0, bandwidth=1.0)

    def test_default_network(self):
        assert infiniband_qdr().bandwidth == pytest.approx(3.2e9)


class TestTransferSemantics:
    def test_remote_transfer_slower_than_local(self):
        net = NetworkSpec(latency=50e-6, bandwidth=1e9)
        ctx = MultiNodeContext(2, 1, network=net)
        local, remote = ctx.devices
        ctx.h2d(local, np.zeros(1000))
        t_local = local.clock
        ctx.reset_clocks()
        ctx.h2d(remote, np.zeros(1000))
        t_remote = remote.clock
        assert t_remote > t_local + 40e-6  # pays the network latency

    def test_remote_d2h_counts_network_message(self):
        ctx = MultiNodeContext(2, 1)
        ctx.reset_clocks()
        ctx.d2h(ctx.devices[1].zeros(10))  # remote device
        assert ctx.counters.d2h_messages == 2  # PCIe + network hop
        ctx.reset_clocks()
        ctx.d2h(ctx.devices[0].zeros(10))  # local device
        assert ctx.counters.d2h_messages == 1

    def test_data_integrity(self):
        ctx = MultiNodeContext(2, 2)
        src = np.arange(7.0)
        darr = ctx.h2d(ctx.devices[3], src)
        np.testing.assert_array_equal(ctx.d2h(darr), src)

    def test_reset_clears_links(self):
        ctx = MultiNodeContext(2, 1)
        ctx.d2h(ctx.devices[1].zeros(100))
        ctx.reset_clocks()
        assert ctx.current_time() == 0.0
        assert all(link.busy_until == 0.0 for link in ctx._links)

    def test_remote_transfer_records_one_event_per_hop(self):
        ctx = MultiNodeContext(2, 1)
        ctx.h2d(ctx.devices[1], np.zeros(10))
        ctx.d2h(ctx.devices[1].zeros(10))
        hops = [(e.kind, e.lane) for e in ctx.trace.events]
        assert hops == [("h2d", "net1"), ("h2d", "pcie1"), ("d2h", "pcie1"), ("d2h", "net1")]
        assert ctx.counters.h2d_messages == ctx.counters.d2h_messages == 2
        assert ctx.trace.lanes() == ["host", "pcie", "regions", "net1", "pcie1"]

    def test_deactivated_remote_device_transfer_raises(self):
        ctx = MultiNodeContext(2, 1)
        ctx.deactivate_device(1)
        with pytest.raises(DeviceLost):
            ctx.h2d(ctx.all_devices[1], np.zeros(4))

    def test_per_node_buses_overlap(self):
        """Transfers from different nodes use independent PCIe buses."""
        ctx = MultiNodeContext(2, 1, network=NetworkSpec(1e-9, 1e12))
        nbytes = 10_000_000
        ctx.d2h(ctx.devices[0].zeros(nbytes // 8))
        t_after_one = ctx.host.clock
        ctx.reset_clocks()
        # Same payload from both nodes: buses overlap, only the (fast)
        # network serializes, so total < 2x the single transfer.
        ctx.d2h(ctx.devices[0].zeros(nbytes // 8))
        ctx.d2h(ctx.devices[1].zeros(nbytes // 8))
        assert ctx.host.clock < 1.9 * t_after_one


class TestSolversOnMultiNode:
    def test_gmres_correct(self, rng):
        A = poisson2d(12)
        x_true = rng.standard_normal(A.n_rows)
        b = A.matvec(x_true)
        ctx = MultiNodeContext(2, 2)
        r = gmres(A, b, ctx=ctx, m=20, tol=1e-10, max_restarts=60)
        assert r.converged
        np.testing.assert_allclose(r.x, x_true, atol=1e-6)

    def test_ca_gmres_correct(self, rng):
        A = poisson2d(12)
        x_true = rng.standard_normal(A.n_rows)
        b = A.matvec(x_true)
        ctx = MultiNodeContext(3, 2)
        r = ca_gmres(A, b, ctx=ctx, s=7, m=21, tol=1e-10, max_restarts=60)
        assert r.converged
        np.testing.assert_allclose(r.x, x_true, atol=1e-6)

    def test_numerics_independent_of_topology(self):
        """1 node x 4 GPUs and 2 nodes x 2 GPUs: identical mathematics."""
        A = poisson2d(10)
        b = np.ones(A.n_rows)
        r1 = ca_gmres(
            A, b, ctx=MultiNodeContext(1, 4), s=5, m=10, tol=1e-8,
            max_restarts=30,
        )
        r2 = ca_gmres(
            A, b, ctx=MultiNodeContext(2, 2), s=5, m=10, tol=1e-8,
            max_restarts=30,
        )
        assert r1.n_iterations == r2.n_iterations
        np.testing.assert_allclose(r1.x, r2.x, atol=1e-12)

    def test_slower_network_increases_ca_advantage(self):
        """The paper's outlook: more expensive communication -> CA wins more."""
        A = poisson2d(24)
        b = np.ones(A.n_rows)
        speedups = {}
        for latency in (2e-6, 40e-6):
            net = NetworkSpec(latency=latency, bandwidth=3.2e9)
            r_g = gmres(
                A, b, ctx=MultiNodeContext(2, 2, network=net), m=20,
                tol=1e-14, max_restarts=1,
            )
            r_c = ca_gmres(
                A, b, ctx=MultiNodeContext(2, 2, network=net), s=10, m=20,
                tol=1e-14, max_restarts=2, basis="monomial",
            )
            speedups[latency] = r_g.time_per_restart() / r_c.time_per_restart()
        assert speedups[40e-6] > speedups[2e-6]


class TestOneRecordOnMultiNode:
    def test_profile_transfers_equal_counters(self):
        A = poisson2d(24)
        r = gmres(A, np.ones(A.n_rows), ctx=MultiNodeContext(2, 2), m=20, max_restarts=3)
        transfers = r.profile["transfers"]
        assert r.counters["h2d_messages"] > 1000
        for kind in ("h2d", "d2h"):
            assert transfers[kind]["count"] == r.counters[f"{kind}_messages"]
            assert transfers[kind]["bytes"] == r.counters[f"{kind}_bytes"]
        assert r.profile["bus"]["busy_time"] > 0.0

    def test_scripted_pcie_corrupt_is_detected_and_recovered(self):
        A = poisson2d(16)
        b = np.random.default_rng(0).random(A.n_rows)
        ctx = MultiNodeContext(2, 2)
        ctx.arm_fault_plan(FaultPlan(events=(FaultEvent("pcie", "corrupt", trigger=5),)))
        r = ca_gmres(A, b, ctx=ctx, s=4, m=12, max_restarts=8)
        counts = r.details["faults"]["counts"]
        assert counts == {"injected": 1, "detected": 1, "recovered": 1, "unrecovered": 0}
        assert r.converged

    def test_rate_plan_faults_remote_node_transfers(self):
        A = poisson2d(16)
        ctx = MultiNodeContext(2, 2)
        ctx.arm_fault_plan(FaultPlan(seed=1, rate=0.01, kinds=("corrupt", "stall")))
        r = gmres(A, np.ones(A.n_rows), ctx=ctx, m=10, max_restarts=5)
        peers = {
            rec["peer"] for rec in r.details["faults"]["injected"] if rec["site"] == "pcie"
        }
        assert peers & {"gpu2", "gpu3"}, peers
        assert all(route[0].faults is ctx.faults for route in ctx._routes.values())

    def test_fault_plan_at_construction_equals_arming_after(self):
        A = poisson2d(16)
        plan = FaultPlan(seed=1, rate=0.01, kinds=("corrupt", "stall"))
        armed = MultiNodeContext(2, 2)
        armed.arm_fault_plan(plan)
        built = MultiNodeContext(2, 2, fault_plan=plan)
        r1, r2 = (
            gmres(A, np.ones(A.n_rows), ctx=ctx, m=10, max_restarts=5)
            for ctx in (armed, built)
        )
        assert np.array_equal(r1.x, r2.x)
        assert r1.details["faults"]["injected"]
        assert r1.details["faults"] == r2.details["faults"]

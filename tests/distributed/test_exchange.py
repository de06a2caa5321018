"""Tests for the host-staged exchange."""

import numpy as np
import pytest

from repro.dist.exchange import MAX_TRANSFER_RETRIES, StagedExchange
from repro.faults import FaultEvent, FaultPlan, TransferCorruption
from repro.gpu.context import MultiGpuContext
from repro.order.partition import Partition, block_row_partition


def dist_parts(ctx, partition, vector):
    """Adopt slices of a host vector onto the devices (test helper)."""
    return [
        dev.adopt(vector[partition.rows_of(d)].copy())
        for d, dev in enumerate(ctx.devices)
    ]


class TestStagedExchange:
    def test_delivers_requested_values(self, rng):
        ctx = MultiGpuContext(3)
        n = 12
        part = block_row_partition(n, 3)
        # Each device asks for two elements owned by other devices.
        recv = [
            np.array([4, 8]),   # device 0 asks for elements of dev 1 and 2
            np.array([0, 11]),  # device 1
            np.array([3, 5]),   # device 2
        ]
        ex = StagedExchange(part, recv)
        v = rng.standard_normal(n)
        received, _ = ex.exchange(ctx, dist_parts(ctx, part, v))
        for d in range(3):
            np.testing.assert_array_equal(received[d], v[recv[d]])

    def test_message_counts(self):
        ctx = MultiGpuContext(3)
        part = block_row_partition(9, 3)
        recv = [np.array([3]), np.array([0]), np.array([4])]
        ex = StagedExchange(part, recv)
        ctx.reset_clocks()
        ex.exchange(ctx, dist_parts(ctx, part, np.zeros(9)))
        # Devices 0 and 1 send (dev 2's element {4} is owned by dev 1, and
        # nobody asks for dev 2's rows); all three devices receive.
        assert ctx.counters.d2h_messages == 2
        assert ctx.counters.h2d_messages == 3

    def test_arrivals_are_the_h2d_ends_and_nobody_waits(self, rng):
        # The exchange ships each halo and returns when it lands; the
        # receiving device's clock does not move to that arrival.
        ctx = MultiGpuContext(3)
        part = block_row_partition(12, 3)
        ex = StagedExchange(part, [np.array([4, 8]), np.array([0, 11]), np.array([3, 5])])
        ctx.reset_clocks()
        _, arrivals = ex.exchange(ctx, dist_parts(ctx, part, rng.standard_normal(12)))
        h2d = {e.args["peer"]: e for e in ctx.trace.events if e.kind == "h2d"}
        for dev, arrival in zip(ctx.devices, arrivals):
            assert arrival == h2d[dev.name].start + h2d[dev.name].duration
            assert dev.clock < arrival

    def test_empty_requests_no_messages(self):
        ctx = MultiGpuContext(2)
        part = block_row_partition(4, 2)
        ex = StagedExchange(part, [np.empty(0, np.int64), np.empty(0, np.int64)])
        ctx.reset_clocks()
        received, _ = ex.exchange(ctx, dist_parts(ctx, part, np.zeros(4)))
        assert ctx.counters.total_messages == 0
        assert all(r.size == 0 for r in received)

    def test_volumes(self):
        part = block_row_partition(10, 2)
        # dev0 asks for {5, 6}, dev1 asks for {0}; union = 3 elements
        ex = StagedExchange(part, [np.array([5, 6]), np.array([0])])
        assert ex.gather_volume() == 3
        assert ex.scatter_volume() == 3
        assert ex.total_volume() == 6

    def test_shared_request_gathered_once(self):
        # Two devices asking for the same element: gather counts it once.
        part = Partition(np.array([0, 1, 2]), 3)
        ex = StagedExchange(
            part, [np.array([2]), np.array([2]), np.empty(0, np.int64)]
        )
        assert ex.gather_volume() == 1
        assert ex.scatter_volume() == 2

    def test_rejects_owned_requests(self):
        part = block_row_partition(4, 2)
        with pytest.raises(ValueError, match="already owns"):
            StagedExchange(part, [np.array([0]), np.empty(0, np.int64)])

    def test_rejects_wrong_list_length(self):
        part = block_row_partition(4, 2)
        with pytest.raises(ValueError, match="one entry per part"):
            StagedExchange(part, [np.empty(0, np.int64)])

    def test_repeated_exchange_reuses_plan(self, rng):
        ctx = MultiGpuContext(2)
        part = block_row_partition(6, 2)
        ex = StagedExchange(part, [np.array([4]), np.array([1])])
        for _ in range(3):
            v = rng.standard_normal(6)
            rec, _ = ex.exchange(ctx, dist_parts(ctx, part, v))
            assert rec[0][0] == v[4]
            assert rec[1][0] == v[1]

    def test_corrupted_transfer_retried_transparently(self, rng):
        # A scripted corruption on the first bus message: the exchange must
        # retry the transfer and still deliver the exact requested values.
        plan = FaultPlan.scripted(
            [FaultEvent("pcie", "corrupt", trigger=0, position=0)]
        )
        ctx = MultiGpuContext(2, fault_plan=plan)
        part = block_row_partition(6, 2)
        ex = StagedExchange(part, [np.array([4]), np.array([1])])
        v = rng.standard_normal(6)
        rec, _ = ex.exchange(ctx, dist_parts(ctx, part, v))
        assert rec[0][0] == v[4]
        assert rec[1][0] == v[1]
        [recovery] = ctx.faults.report()["recovered"]
        assert recovery["action"] == "transfer-retry"

    def test_retry_budget_exhausted_raises(self):
        # Three consecutive corruptions exceed MAX_TRANSFER_RETRIES = 2.
        plan = FaultPlan.scripted(
            [FaultEvent("pcie", "corrupt", trigger=t) for t in range(3)]
        )
        ctx = MultiGpuContext(2, fault_plan=plan)
        part = block_row_partition(6, 2)
        ex = StagedExchange(part, [np.array([4]), np.array([1])])
        with pytest.raises(TransferCorruption):
            ex.exchange(ctx, dist_parts(ctx, part, np.zeros(6)))

    def test_poisoned_gather_copy_lands_in_its_payload(self, rng):
        # A poison armed on gpu0's gather-compress copy is delivered into the
        # compressed payload it wrote: the d2h arrival check sees it on
        # every re-issue (the source stays poisoned), so the exchange raises
        # and nothing is left pending for gpu0's next kernel.
        plan = FaultPlan.scripted([FaultEvent("gpu0", "poison", trigger=0)])
        ctx = MultiGpuContext(2, fault_plan=plan)
        part = block_row_partition(6, 2)
        ex = StagedExchange(part, [np.array([4]), np.array([1])])
        v = rng.standard_normal(6)
        parts = dist_parts(ctx, part, v)
        with pytest.raises(TransferCorruption):
            ex.exchange(ctx, parts)
        assert ctx.counters.d2h_messages == 1 + MAX_TRANSFER_RETRIES
        assert ctx.devices[0]._poison_pending is None
        np.testing.assert_array_equal(parts[0].data, v[:3])  # source intact

    def test_stage_masks_precomputed_and_consistent(self):
        # The per-device staging mask is exchange-invariant; it must be built
        # once in __init__ (hot path: one mask per device per halo exchange).
        part = block_row_partition(9, 3)
        recv = [np.array([3, 6]), np.array([0, 8]), np.array([1, 4])]
        ex = StagedExchange(part, recv)
        assert len(ex._stage_mask) == 3
        for d, mask in enumerate(ex._stage_mask):
            np.testing.assert_array_equal(
                mask, part.assignment[ex.union_requested] == d
            )
            assert mask.sum() == ex.send_local[d].size

    def test_staging_buffer_preallocated_and_reused(self, rng):
        # The staging buffer is exchange-invariant: allocated once in
        # __init__, never per call (hot path), and its reuse across
        # exchanges must be invisible — results bit-identical to a fresh
        # exchange object evaluating the same vector.
        ctx = MultiGpuContext(3)
        n = 12
        part = block_row_partition(n, 3)
        recv = [np.array([4, 8]), np.array([0, 11]), np.array([3, 5])]
        ex = StagedExchange(part, recv)
        assert ex._stage.size == ex.union_requested.size
        stage = ex._stage
        v1 = rng.standard_normal(n)
        v2 = rng.standard_normal(n)
        ex.exchange(ctx, dist_parts(ctx, part, v1))  # dirties the buffer
        got, _ = ex.exchange(ctx, dist_parts(ctx, part, v2))
        assert ex._stage is stage  # no per-call reallocation
        fresh = StagedExchange(part, recv)
        ref, _ = fresh.exchange(MultiGpuContext(3), dist_parts(ctx, part, v2))
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)


class TestPanelExchange:
    """A ``(rows, k)`` panel's columns travel in one message per device."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_columns_share_each_message(self, k, rng):
        n = 12
        part = block_row_partition(n, 3)
        recv = [np.array([4, 8]), np.array([0, 11]), np.array([3, 5])]
        panel = rng.standard_normal((n, k))
        ctx = MultiGpuContext(3)
        received, _ = StagedExchange(part, recv).exchange(ctx, dist_parts(ctx, part, panel))
        counters = ctx.counters
        assert (counters.d2h_messages, counters.h2d_messages) == (3, 3)
        assert counters.h2d_bytes == 8 * k * sum(r.size for r in recv)
        for c in range(k):
            one = MultiGpuContext(3)
            want, _ = StagedExchange(part, recv).exchange(
                one, dist_parts(one, part, panel[:, c].copy())
            )
            for got, ref in zip(received, want):
                assert got.shape == (ref.size, k)
                np.testing.assert_array_equal(got[:, c], ref)

    def test_device_with_nothing_to_receive_gets_an_empty_panel(self):
        part = block_row_partition(6, 2)
        ex = StagedExchange(part, [np.array([3]), np.array([], dtype=np.int64)])
        ctx = MultiGpuContext(2)
        received, arrivals = ex.exchange(ctx, dist_parts(ctx, part, np.ones((6, 3))))
        assert received[1].shape == (0, 3)
        assert arrivals[1] is None
        np.testing.assert_array_equal(received[0], np.ones((1, 3)))

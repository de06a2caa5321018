"""Tests for distributed multivectors."""

import numpy as np
import pytest

from repro.dist.multivector import DistMultiVector, DistVector
from repro.order.partition import Partition, block_row_partition

from ..conftest import gather_multivector, make_dist_multivector


class TestDistMultiVector:
    def test_scatter_gather_roundtrip(self, ctx, rng):
        n = 20
        part = block_row_partition(n, ctx.n_gpus)
        mv = DistMultiVector(ctx, part, 3)
        v = rng.standard_normal(n)
        mv.set_column_from_host(1, v)
        np.testing.assert_array_equal(mv.gather_column_to_host(1), v)

    def test_noncontiguous_partition(self, ctx3, rng):
        n = 12
        part = Partition(np.array([0, 1, 2] * 4), 3)
        mv = DistMultiVector(ctx3, part, 2)
        v = rng.standard_normal(n)
        mv.set_column_from_host(0, v)
        np.testing.assert_array_equal(mv.gather_column_to_host(0), v)

    def test_column_views_share_storage(self, ctx1):
        part = block_row_partition(5, 1)
        mv = DistMultiVector(ctx1, part, 2)
        col = mv.column(0)[0]
        col.data[:] = 7.0
        np.testing.assert_array_equal(mv.local[0].data[:, 0], np.full(5, 7.0))

    def test_panel_views(self, ctx1, rng):
        dense = rng.standard_normal((8, 4))
        mv, _ = make_dist_multivector(ctx1, dense)
        panel = mv.panel(1, 3)[0]
        np.testing.assert_array_equal(panel.data, dense[:, 1:3])

    def test_column_out_of_range(self, ctx1):
        mv = DistMultiVector(ctx1, block_row_partition(4, 1), 2)
        with pytest.raises(IndexError):
            mv.column(2)

    def test_panel_out_of_range(self, ctx1):
        mv = DistMultiVector(ctx1, block_row_partition(4, 1), 2)
        with pytest.raises(IndexError):
            mv.panel(0, 3)

    def test_partition_context_mismatch(self, ctx2):
        with pytest.raises(ValueError, match="devices"):
            DistMultiVector(ctx2, block_row_partition(4, 3), 2)

    def test_set_column_wrong_shape(self, ctx1):
        mv = DistMultiVector(ctx1, block_row_partition(4, 1), 1)
        with pytest.raises(ValueError):
            mv.set_column_from_host(0, np.zeros(5))

    def test_transfers_are_counted(self, ctx3):
        mv = DistMultiVector(ctx3, block_row_partition(9, 3), 1)
        ctx3.reset_clocks()
        mv.set_column_from_host(0, np.zeros(9))
        assert ctx3.counters.h2d_messages == 3
        mv.gather_column_to_host(0)
        assert ctx3.counters.d2h_messages == 3


class TestDistVector:
    def test_from_host_roundtrip(self, ctx, rng):
        n = 15
        part = block_row_partition(n, ctx.n_gpus)
        v = rng.standard_normal(n)
        dv = DistVector.from_host(ctx, part, v)
        np.testing.assert_array_equal(dv.to_host(), v)

    def test_parts_are_1d(self, ctx2):
        dv = DistVector(ctx2, block_row_partition(6, 2))
        for p in dv.parts():
            assert p.data.ndim == 1


class TestGatherHelper:
    def test_gather_matches_dense(self, ctx3, rng):
        dense = rng.standard_normal((10, 3))
        mv, _ = make_dist_multivector(ctx3, dense)
        np.testing.assert_array_equal(gather_multivector(mv), dense)

"""Tests for model-level kernel autotuning (``PerformanceModel.best_variant``)."""

import pytest

from repro.perf.kernels import KERNEL_TABLE
from repro.perf.model import PerformanceModel


class TestBestVariant:
    @pytest.fixture
    def model(self):
        return PerformanceModel()

    def test_candidates_are_device_variants(self, model):
        # Priced at GPU rates, the fp32 batched_sp Gram product and the host
        # "mkl" entry would both beat "batched"; neither is eligible.
        shape = dict(n=500_000, k=30, j=30)
        t_sp, _ = model.kernel_cost("gemm_tn", "batched_sp", on="gpu", **shape)
        t_batched, _ = model.kernel_cost("gemm_tn", "batched", on="gpu", **shape)
        assert t_sp < t_batched
        assert model.best_variant("gemm_tn", **shape) == "batched"

    def test_wide_gram_prefers_batched(self, model):
        assert model.best_variant("gemm_tn", n=500_000, k=30, j=30) == "batched"

    def test_gemv_prefers_magma(self, model):
        assert model.best_variant("gemv_t", n=500_000, k=30) == "magma"

    def test_best_is_actually_fastest(self, model):
        shape = dict(n=300_000, k=8, j=8)
        best = model.best_variant("gemm_tn", **shape)
        times = {
            v: model.kernel_cost("gemm_tn", v, on="gpu", **shape)[0]
            for (op, v) in KERNEL_TABLE
            if op == "gemm_tn" and v not in ("mkl", "batched_sp")
        }
        assert times[best] == min(times.values())

    def test_ties_go_to_table_order(self, model):
        # An empty GEMM costs one launch overhead for cublas and magma alike;
        # cublas is listed first.
        assert model.best_variant("gemm_tn", n=0, k=0, j=0) == "cublas"

    def test_costs_memoized(self, model):
        a = model.best_variant("gemv_t", n=1000, k=4)
        assert ("gpu", "gemv_t", a, ("n", 1000), ("k", 4)) in model._costs
        assert model.best_variant("gemv_t", n=1000, k=4) == a

    def test_unknown_op(self, model):
        with pytest.raises(KeyError):
            model.best_variant("warp_drive", n=10)


class TestMemoryAccounting:
    def test_mpk_memory_grows_with_s(self):
        import numpy as np
        from repro.gpu.context import MultiGpuContext
        from repro.matrices import poisson2d
        from repro.mpk import MatrixPowersKernel
        from repro.order.partition import block_row_partition

        A = poisson2d(12)
        ctx = MultiGpuContext(2)
        part = block_row_partition(A.n_rows, 2)
        mem = [
            sum(MatrixPowersKernel(ctx, A, part, s).device_memory_bytes())
            for s in (1, 4, 8)
        ]
        assert mem[0] < mem[1] < mem[2]

    def test_mpk_fits_on_m2090(self):
        from repro.gpu.context import MultiGpuContext
        from repro.matrices import poisson2d
        from repro.mpk import MatrixPowersKernel
        from repro.order.partition import block_row_partition

        A = poisson2d(12)
        ctx = MultiGpuContext(2)
        part = block_row_partition(A.n_rows, 2)
        mpk = MatrixPowersKernel(ctx, A, part, 5)
        for per_device in mpk.device_memory_bytes():
            assert per_device < ctx.machine.gpu.memory_bytes

    def test_dist_matrix_memory_reported(self):
        from repro.dist.matrix import DistributedMatrix
        from repro.gpu.context import MultiGpuContext
        from repro.matrices import poisson2d
        from repro.order.partition import block_row_partition

        A = poisson2d(10)
        ctx = MultiGpuContext(2)
        dmat = DistributedMatrix(ctx, A, block_row_partition(A.n_rows, 2))
        mem = dmat.device_memory_bytes()
        assert len(mem) == 2
        assert all(m > 0 for m in mem)

"""Tests for the performance model: machine spec, kernel models, calibration.

The calibration targets come straight from the paper's Fig. 11: the model
must place each kernel implementation in the right performance band so the
orthogonalization-time comparisons (Figs. 13-15) follow the paper's logic.
"""

import pytest

from repro.perf.kernels import KERNEL_TABLE, kernel_flops_bytes, kernel_time
from repro.perf.machine import CpuSpec, GpuSpec, PcieSpec, keeneland_node
from repro.perf.model import PerformanceModel


def gflops(op, variant, model, **shape):
    """Effective Gflop/s of one kernel under the model."""
    flops, _ = kernel_flops_bytes(op, variant, **shape)
    t = model.gpu_time(op, variant, **shape)
    return flops / t / 1e9


class TestMachineSpec:
    def test_keeneland_defaults(self):
        m = keeneland_node()
        assert m.n_gpus == 3
        assert m.cpu.cores == 16
        assert m.gpu.peak_gflops == pytest.approx(665.0)

    def test_gpu_count_capped(self):
        with pytest.raises(ValueError):
            keeneland_node(4)

    def test_invalid_gpu_spec(self):
        with pytest.raises(ValueError):
            GpuSpec("bad", -1.0, 1.0, 0.0, 1)

    def test_invalid_cpu_spec(self):
        with pytest.raises(ValueError):
            CpuSpec("bad", 0, 1.0, 1.0, 0.0)

    def test_invalid_pcie(self):
        with pytest.raises(ValueError):
            PcieSpec(latency=-1.0, bandwidth=1.0)


class TestKernelModels:
    def test_all_entries_have_positive_cost(self):
        for (op, variant), model in KERNEL_TABLE.items():
            shape = {}
            if op in ("dot", "axpy", "scal", "copy"):
                shape = {"n": 1000}
            elif op in ("gemv_t", "gemv_n", "trsm", "qr_panel"):
                shape = {"n": 1000, "k": 10}
            elif op in ("gemm_tn", "gemm_nn"):
                shape = {"n": 1000, "k": 10, "j": 10}
            elif op == "spmv":
                shape = {"nnz": 5000, "n_rows": 1000}
            t = kernel_time(op, variant, 665e9, 120e9, 7e-6, **shape)
            assert t > 0, f"{op}/{variant}"

    def test_unknown_kernel(self):
        with pytest.raises(KeyError):
            kernel_time("nonsense", "cublas", 1e9, 1e9, 0.0, n=1)

    def test_time_scales_with_size(self):
        t1 = kernel_time("dot", "cublas", 665e9, 120e9, 0.0, n=1_000)
        t2 = kernel_time("dot", "cublas", 665e9, 120e9, 0.0, n=1_000_000)
        assert t2 > 100 * t1

    def test_overhead_dominates_small(self):
        t = kernel_time("dot", "cublas", 665e9, 120e9, 7e-6, n=10)
        assert t == pytest.approx(7e-6, rel=0.01)


class TestFig11Calibration:
    """Rates at n = 500k, s+1 = 30, the paper's steady-state regime."""

    @pytest.fixture
    def model(self):
        return PerformanceModel(keeneland_node())

    def test_cublas_dgemv_slow(self, model):
        rate = gflops("gemv_t", "cublas", model, n=500_000, k=30)
        assert 2.0 < rate < 10.0  # paper: ~5 Gflop/s

    def test_magma_dgemv_about_5x(self, model):
        cublas = gflops("gemv_t", "cublas", model, n=500_000, k=30)
        magma = gflops("gemv_t", "magma", model, n=500_000, k=30)
        assert 3.0 < magma / cublas < 8.0

    def test_cublas_dgemm_band(self, model):
        rate = gflops("gemm_tn", "cublas", model, n=500_000, k=30, j=30)
        assert 10.0 < rate < 30.0  # paper: ~20 Gflop/s

    def test_batched_dgemm_band(self, model):
        rate = gflops("gemm_tn", "batched", model, n=500_000, k=30, j=30)
        assert 45.0 < rate < 75.0  # paper: ~58 Gflop/s

    def test_ddot_band(self, model):
        rate = gflops("dot", "cublas", model, n=500_000)
        assert 8.0 < rate < 20.0  # BLAS-1 streaming

    def test_kernel_ordering_matches_paper(self, model):
        """batched DGEMM > MAGMA DGEMV > DDOT > CUBLAS DGEMV."""
        shape2 = dict(n=500_000, k=30)
        shape3 = dict(n=500_000, k=30, j=30)
        batched = gflops("gemm_tn", "batched", model, **shape3)
        magma = gflops("gemv_t", "magma", model, **shape2)
        ddot = gflops("dot", "cublas", model, n=500_000)
        cublas_gemv = gflops("gemv_t", "cublas", model, **shape2)
        assert batched > magma > ddot > cublas_gemv


class TestPerformanceModelFacade:
    def test_transfer_time(self):
        model = PerformanceModel(keeneland_node())
        t0 = model.transfer_time(0)
        assert t0 == pytest.approx(12e-6)
        t = model.transfer_time(5.8e9)
        assert t == pytest.approx(1.0 + 12e-6)

    def test_transfer_negative_rejected(self):
        with pytest.raises(ValueError):
            PerformanceModel().transfer_time(-5)

    def test_host_small_dense_ops(self):
        model = PerformanceModel()
        for op in ("chol", "qr", "svd", "eig", "lstsq_hessenberg", "trsv"):
            assert model.host_small_dense(op, 30) > 0

    def test_host_small_dense_unknown(self):
        with pytest.raises(KeyError):
            PerformanceModel().host_small_dense("nope", 4)

    def test_svd_costlier_than_chol(self):
        model = PerformanceModel()
        assert model.host_small_dense("svd", 60) > model.host_small_dense("chol", 60)

    def test_cpu_time_uses_cpu_rates(self):
        model = PerformanceModel()
        t_gpu = model.gpu_time("gemm_tn", "batched", n=500_000, k=30, j=30)
        t_cpu = model.cpu_time("gemm_tn", "mkl", n=500_000, k=30, j=30)
        assert t_cpu > t_gpu  # GPU wins on the big tall-skinny product

"""Tests for the performance model: machine spec, kernel models, calibration.

The calibration targets come straight from the paper's Fig. 11: the model
must place each kernel implementation in the right performance band so the
orthogonalization-time comparisons (Figs. 13-15) follow the paper's logic.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.pcie import PcieBus
from repro.perf.kernels import KERNEL_TABLE, KernelModel
from repro.perf.machine import CpuSpec, GpuSpec, PcieSpec, keeneland_node
from repro.perf.model import PerformanceModel


def gflops(op, variant, model, **shape):
    """Effective Gflop/s of one kernel under the model."""
    t, flops = model.kernel_cost(op, variant, on="gpu", **shape)
    return flops / t / 1e9


def shape_of(op, n=1000, k=10, j=10, nnz=5000):
    """Shape keywords of one ``op`` (long dimension ``n``)."""
    if op in ("dot", "axpy", "scal", "copy"):
        return {"n": n}
    if op in ("gemv_t", "gemv_n", "trsm", "qr_panel"):
        return {"n": n, "k": k}
    if op in ("gemm_tn", "gemm_nn"):
        return {"n": n, "k": k, "j": j}
    if op == "spmv_step":  # MPK's fused step: both shift terms, own rows stored
        return {"nnz": nnz, "n_rows": n, "k": 1, "terms": 2, "stored": n}
    assert op == "spmv", op
    return {"nnz": nnz, "n_rows": n}


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
        model = PerformanceModel()
        for op, variant in KERNEL_TABLE:
            for on in ("gpu", "cpu"):
                t, _ = model.kernel_cost(op, variant, on=on, **shape_of(op))
                assert t > 0, f"{op}/{variant} on {on}"

    def test_unknown_kernel(self):
        with pytest.raises(KeyError, match="no kernel model for op='nonsense'"):
            PerformanceModel().kernel_cost("nonsense", "cublas", on="gpu", n=1)

    def test_time_scales_with_size(self):
        dot = KERNEL_TABLE[("dot", "cublas")]
        t1 = dot.time(665e9, 120e9, 0.0, n=1_000)
        t2 = dot.time(665e9, 120e9, 0.0, n=1_000_000)
        assert t2 > 100 * t1

    def test_overhead_dominates_small(self):
        t, _ = PerformanceModel().kernel_cost("dot", "cublas", on="gpu", n=10)
        assert t == pytest.approx(7e-6, rel=0.01)


_SHAPES = st.builds(
    dict,
    n=st.integers(0, 10**7),
    k=st.integers(0, 64),
    j=st.integers(0, 64),
    nnz=st.integers(0, 10**8),
)


class TestKernelCost:
    @settings(max_examples=40, deadline=None)
    @given(dims=_SHAPES)
    def test_matches_fresh_kernel_model_before_and_after_caching(self, dims):
        """Every table entry, priced on either side, equals its KernelModel."""
        machine = keeneland_node()
        rates = {
            "gpu": (machine.gpu.peak_gflops * 1e9, machine.gpu.mem_bandwidth,
                    machine.gpu.kernel_overhead),
            "cpu": (machine.cpu.peak_gflops * 1e9, machine.cpu.mem_bandwidth,
                    machine.cpu.small_op_overhead),
        }
        model = PerformanceModel(machine)
        for (op, variant), kernel in KERNEL_TABLE.items():
            shape = shape_of(op, **dims)
            for on in ("gpu", "cpu"):
                fresh = (kernel.time(*rates[on], **shape), float(kernel.flops(**shape)))
                assert model.kernel_cost(op, variant, on=on, **shape) == fresh  # miss
                assert model.kernel_cost(op, variant, on=on, **shape) == fresh  # hit

    def test_kernel_model_evaluated_only_on_a_miss(self, monkeypatch):
        calls = []
        base = KERNEL_TABLE[("gemm_tn", "batched")]

        class Counting:
            def time(self, *args, **shape):
                calls.append(shape)
                return base.time(*args, **shape)

            def flops(self, **shape):
                return base.flops(**shape)

        monkeypatch.setitem(KERNEL_TABLE, ("gemm_tn", "batched"), Counting())
        model = PerformanceModel()
        for _ in range(3):
            model.kernel_cost("gemm_tn", "batched", on="gpu", n=500, k=8, j=8)
        model.kernel_cost("gemm_tn", "batched", on="cpu", n=500, k=8, j=8)
        model.kernel_cost("gemm_tn", "batched", on="gpu", n=501, k=8, j=8)
        assert len(calls) == 3

    def test_unknown_kernel_not_memoized(self):
        model = PerformanceModel()
        for _ in range(2):
            with pytest.raises(KeyError):
                model.kernel_cost("dot", "nonsense", on="gpu", n=1)
        assert model._costs == {}

    def test_unknown_side_rejected(self):
        with pytest.raises(ValueError, match="on must be"):
            PerformanceModel().kernel_cost("dot", "cublas", on="fpga", n=1)

    def test_machine_read_only(self):
        model = PerformanceModel()
        with pytest.raises(AttributeError):
            model.machine = keeneland_node(1)


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

    def test_transfer_negative_rejected(self):
        # The model's transfer cost is the PCIe bus of its machine.
        bus = PcieBus(PerformanceModel().machine.pcie)
        with pytest.raises(ValueError):
            bus.message_time(-5)

    def test_cpu_rates_price_host_kernels(self):
        model = PerformanceModel()
        t_gpu, _ = model.kernel_cost("gemm_tn", "batched", on="gpu", n=500_000, k=30, j=30)
        t_cpu, _ = model.kernel_cost("gemm_tn", "mkl", on="cpu", n=500_000, k=30, j=30)
        assert t_cpu > t_gpu  # GPU wins on the big tall-skinny product


class TestSpmmCostModel:
    """``("spmv", variant)`` takes a column count ``k``: the matrix is read
    once and the vectors ``k`` times, at the SpMV's efficiencies."""

    VARIANTS = ("ellpack", "csr", "mkl")

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("nnz, n_rows", [(0, 0), (37, 11), (322_418, 65_318)])
    def test_one_column_is_the_spmv_charge(self, variant, nnz, n_rows):
        model = PerformanceModel(keeneland_node())
        entry = KERNEL_TABLE[("spmv", variant)]
        # The SpMV charge before the column count existed.
        spmv = KernelModel(
            lambda nnz, n_rows: 2.0 * nnz,
            lambda nnz, n_rows: 16 * nnz + 8 * nnz + 16.0 * n_rows,
            entry.eff_compute, entry.eff_bandwidth,
        )
        gpu = model.machine.gpu
        want = (
            spmv.time(gpu.peak_gflops * 1e9, gpu.mem_bandwidth, gpu.kernel_overhead,
                      nnz=nnz, n_rows=n_rows),
            2.0 * nnz,
        )
        shape = dict(nnz=nnz, n_rows=n_rows)
        assert model.kernel_cost("spmv", variant, on="gpu", **shape, k=1) == want
        assert model.kernel_cost("spmv", variant, on="gpu", **shape) == want

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_time_per_column_falls_with_k(self, variant):
        model = PerformanceModel(keeneland_node())
        per_column = [
            model.kernel_cost("spmv", variant, on="gpu", nnz=322_418,
                              n_rows=65_318, k=k)[0] / k
            for k in range(1, 7)
        ]
        assert all(b < a for a, b in zip(per_column, per_column[1:]))

    def test_flops_scale_with_k(self):
        model = PerformanceModel(keeneland_node())
        _, flops = model.kernel_cost("spmv", "ellpack", on="gpu", nnz=100, n_rows=10, k=3)
        assert flops == 600.0


class TestSpmvStepCostModel:
    """``("spmv_step", "ellpack")`` prices MPK's fused step: the prefix
    SpMV, one read of the active prefix and a multiply-add per shift term,
    and the store of the own rows, at the ELLPACK SpMV's efficiencies."""

    SHAPE = dict(nnz=322_418, n_rows=65_318, k=3)

    def test_bare_step_is_the_spmv(self):
        model = PerformanceModel(keeneland_node())
        step = model.kernel_cost("spmv_step", "ellpack", on="gpu", **self.SHAPE)
        assert step == model.kernel_cost("spmv", "ellpack", on="gpu", **self.SHAPE)
        entry, spmv = KERNEL_TABLE[("spmv_step", "ellpack")], KERNEL_TABLE[("spmv", "ellpack")]
        assert (entry.eff_compute, entry.eff_bandwidth) == (spmv.eff_compute, spmv.eff_bandwidth)

    @pytest.mark.parametrize("terms", [0, 1, 2])
    def test_flops_and_bytes_per_term_and_store(self, terms):
        entry = KERNEL_TABLE[("spmv_step", "ellpack")]
        spmv = KERNEL_TABLE[("spmv", "ellpack")]
        nnz, n_rows, k = self.SHAPE.values()
        shape = dict(self.SHAPE, terms=terms, stored=21_000 * k)
        assert entry.flops(**shape) == spmv.flops(**self.SHAPE) + 2.0 * terms * n_rows * k
        assert entry.bytes_moved(**shape) == (
            spmv.bytes_moved(**self.SHAPE) + 8.0 * terms * n_rows * k + 8.0 * 21_000 * k
        )

    def test_one_launch_is_cheaper_than_spmv_axpys_and_copy(self):
        """The fusion saves the launch overheads and the re-streamed prefix."""
        model = PerformanceModel(keeneland_node())
        nnz, n_rows, k = self.SHAPE.values()
        own = 21_000
        fused = model.kernel_cost(
            "spmv_step", "ellpack", on="gpu", **self.SHAPE, terms=2, stored=own * k
        )[0]
        separate = (
            model.kernel_cost("spmv", "ellpack", on="gpu", **self.SHAPE)[0]
            + 2 * model.kernel_cost("axpy", "cublas", on="gpu", n=n_rows * k)[0]
            + model.kernel_cost("copy", "cublas", on="gpu", n=own * k)[0]
        )
        assert fused < separate

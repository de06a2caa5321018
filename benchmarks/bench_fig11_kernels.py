"""Fig. 11 — tall-skinny kernel performance: DGEMM, DGEMV, and TSQR.

(a) DGEMM (the CholQR/SVQR Gram product) for CUBLAS / MKL / batched;
(b) DGEMV (the CGS projection) for CUBLAS / MKL / MAGMA;
(c) TSQR effective Gflop/s for the five methods on 1-3 GPUs.

(a) and (b) evaluate the calibrated cost models across the paper's n range
(10^5 .. 10^6 rows, s + 1 = 30 columns); (c) runs the real distributed
factorizations on the simulator and reports effective Gflop/s computed the
paper's way (DGEQRF+DORGQR flops over measured time).

Expected shape: batched DGEMM ~3x CUBLAS DGEMM and above MKL; MAGMA DGEMV
~5x CUBLAS DGEMV; in (c) CholQR/SVQR on top, CGS in the middle, MGS and
CAQR at the bottom, all scaling with GPU count.
"""

import numpy as np

from repro.dist.multivector import DistMultiVector
from repro.gpu.context import MultiGpuContext
from repro.harness import format_series, format_table
from repro.order.partition import block_row_partition
from repro.orth import tsqr
from repro.perf.model import PerformanceModel

K = 30  # s + 1 = 30, the paper's panel width
N_VALUES = [100_000, 200_000, 400_000, 700_000, 1_000_000]


def model_gflops(model, op, variant, cpu=False, **shape):
    t, flops = model.kernel_cost(op, variant, on="cpu" if cpu else "gpu", **shape)
    return flops / t / 1e9


def test_fig11a_dgemm(benchmark, record_output):
    model = PerformanceModel()

    def sweep():
        return {
            "cublas": [model_gflops(model, "gemm_tn", "cublas", n=n, k=K, j=K) for n in N_VALUES],
            "mkl (16 cores)": [model_gflops(model, "gemm_tn", "mkl", cpu=True, n=n, k=K, j=K) for n in N_VALUES],
            "batched": [model_gflops(model, "gemm_tn", "batched", n=n, k=K, j=K) for n in N_VALUES],
        }

    series = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_output(
        "fig11a_dgemm",
        format_series("n", N_VALUES, series,
                      title=f"Fig. 11(a) — tall-skinny DGEMM Gflop/s (k = j = {K})"),
    )
    tail = -1
    assert series["batched"][tail] > 2.0 * series["cublas"][tail]
    assert series["batched"][tail] > series["mkl (16 cores)"][tail]
    assert 45 < series["batched"][tail] < 75  # paper: ~58 Gflop/s


def test_fig11b_dgemv(benchmark, record_output):
    model = PerformanceModel()

    def sweep():
        return {
            "cublas": [model_gflops(model, "gemv_t", "cublas", n=n, k=K) for n in N_VALUES],
            "mkl (16 cores)": [model_gflops(model, "gemv_t", "mkl", cpu=True, n=n, k=K) for n in N_VALUES],
            "magma": [model_gflops(model, "gemv_t", "magma", n=n, k=K) for n in N_VALUES],
        }

    series = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_output(
        "fig11b_dgemv",
        format_series("n", N_VALUES, series,
                      title=f"Fig. 11(b) — tall-skinny DGEMV Gflop/s (k = {K})"),
    )
    tail = -1
    assert 3.0 < series["magma"][tail] / series["cublas"][tail] < 8.0
    assert series["cublas"][tail] < series["mkl (16 cores)"][tail]


def tsqr_effective_gflops(method: str, n_gpus: int, n: int = 300_000) -> float:
    """The paper's metric: DGEQRF+DORGQR flops over orthogonalization time."""
    ctx = MultiGpuContext(n_gpus)
    part = block_row_partition(n, n_gpus)
    mv = DistMultiVector(ctx, part, K)
    rng = np.random.default_rng(1)
    for d in range(n_gpus):
        mv.local[d].data[...] = rng.standard_normal(mv.local[d].data.shape)
    ctx.reset_clocks()
    tsqr(ctx, mv.panel(0, K), method=method)
    elapsed = ctx.current_time()
    lapack_flops = 2.0 * n * K * K + 2.0 * n * K * K  # GEQRF + ORGQR
    return lapack_flops / elapsed / 1e9


def test_fig11c_tsqr(benchmark, record_output):
    methods = ["mgs", "cgs", "cholqr", "svqr", "caqr"]

    def sweep():
        return {
            m: [tsqr_effective_gflops(m, g) for g in (1, 2, 3)] for m in methods
        }

    series = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [[m.upper()] + [series[m][g - 1] for g in (1, 2, 3)] for m in methods]
    record_output(
        "fig11c_tsqr",
        format_table(
            ["method", "1 GPU", "2 GPUs", "3 GPUs"],
            rows,
            title=f"Fig. 11(c) — TSQR effective Gflop/s, 300k x {K} panel",
        ),
    )
    # Paper ordering on 1 GPU: CholQR/SVQR > CGS > MGS ~ CAQR.
    one = {m: series[m][0] for m in methods}
    assert one["cholqr"] > one["cgs"] > one["mgs"]
    assert one["svqr"] > one["cgs"]
    assert abs(np.log(one["caqr"] / one["mgs"])) < np.log(6)  # same band
    # Each method scales with device count.
    for m in ("cholqr", "cgs"):
        assert series[m][2] > series[m][0]

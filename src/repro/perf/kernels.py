"""Per-kernel cost models, calibrated to the paper's Fig. 11.

Every kernel cost is a roofline:

    time = overhead + flops / min(eff_compute * peak, intensity * eff_bw * bw)

where ``intensity = flops / bytes`` is the kernel's arithmetic intensity.
``eff_compute`` and ``eff_bw`` are per-(kernel, implementation-variant)
efficiency factors.  The variants mirror the implementations the paper
compares:

* ``cublas``  — stock CUBLAS 4.2, which Fig. 11 shows performing poorly on
  tall-skinny shapes (DGEMV ~5 Gflop/s, DGEMM ~20 Gflop/s at s+1 = 30);
* ``magma``   — the authors' optimized tall-skinny DGEMV (one thread block
  per column dot-product), ~5x over CUBLAS;
* ``batched`` — their batched DGEMM built from CUBLAS ``gemmBatched`` over
  row panels plus a reduction (~58 Gflop/s at s+1 = 30);
* ``mkl``     — threaded MKL on the 16-core host (the CPU reference).

The calibration targets are the Fig. 11 steady-state rates; the model then
*predicts* every other shape (including the s-dependence of orthogonalization
cost in Figs. 13-15) from the same constants.  Flop counts follow the paper's
Fig. 10 table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = ["KernelModel", "KERNEL_TABLE"]

_F64 = 8  # bytes per double
_I64 = 8  # bytes per index (we store int64 indices)


@dataclass(frozen=True)
class KernelModel:
    """Cost model for one kernel implementation.

    Attributes
    ----------
    flops, bytes_moved
        Callables mapping the kernel's shape keywords to flop / byte counts.
    eff_compute
        Fraction of peak flop rate attainable in the compute-bound limit.
    eff_bandwidth
        Fraction of sustained memory bandwidth attainable in the
        memory-bound limit.
    launches
        Number of kernel launches issued (each pays the launch overhead);
        may be a callable of the shape keywords.
    """

    flops: Callable[..., float]
    bytes_moved: Callable[..., float]
    eff_compute: float
    eff_bandwidth: float
    launches: Callable[..., float] | int = 1
    eff_scale: Callable[..., float] | None = None

    def time(self, peak_flops: float, bandwidth: float, overhead: float, **shape) -> float:
        """Modeled execution time in seconds on a device with given rates."""
        flops = float(self.flops(**shape))
        nbytes = float(self.bytes_moved(**shape))
        launches = self.launches(**shape) if callable(self.launches) else self.launches
        t = launches * overhead
        if flops <= 0 and nbytes <= 0:
            return t
        scale = self.eff_scale(**shape) if self.eff_scale is not None else 1.0
        compute_rate = scale * self.eff_compute * peak_flops
        intensity = flops / nbytes if nbytes > 0 else float("inf")
        mem_rate = intensity * scale * self.eff_bandwidth * bandwidth
        rate = min(compute_rate, mem_rate)
        if flops > 0:
            t += flops / rate
        else:  # pure data movement (copies)
            t += nbytes / (scale * self.eff_bandwidth * bandwidth)
        return t


# ----------------------------------------------------------------------
# Shape -> flops / bytes.  n = long dimension (rows), k/j = short dims,
# nnz = stored nonzeros, batch = number of sub-GEMMs.
# ----------------------------------------------------------------------
def _dot_flops(n):
    return 2.0 * n


def _dot_bytes(n):
    return 2.0 * _F64 * n


def _axpy_flops(n):
    return 2.0 * n


def _axpy_bytes(n):
    return 3.0 * _F64 * n


def _scal_flops(n):
    return 1.0 * n


def _scal_bytes(n):
    return 2.0 * _F64 * n


def _copy_flops(n):
    return 0.0


def _copy_bytes(n):
    return 2.0 * _F64 * n


def _gemv_t_flops(n, k):
    # y(k) = V(n,k)^T x(n)
    return 2.0 * n * k


def _gemv_t_bytes(n, k):
    return _F64 * (n * k + n + k)


def _gemv_n_flops(n, k):
    # x(n) -= V(n,k) y(k)
    return 2.0 * n * k


def _gemv_n_bytes(n, k):
    return _F64 * (n * k + 2.0 * n + k)


def _gemm_tn_flops(n, k, j):
    # B(k,j) = V(n,k)^T W(n,j)
    return 2.0 * n * k * j


def _gemm_tn_bytes(n, k, j):
    return _F64 * (n * k + n * j + k * j)


def _gemm_nn_flops(n, k, j):
    # W(n,j) -= V(n,k) B(k,j)
    return 2.0 * n * k * j


def _gemm_nn_bytes(n, k, j):
    return _F64 * (n * k + 2.0 * n * j + k * j)


def _trsm_flops(n, k):
    # V(n,k) := V(n,k) R(k,k)^{-1}
    return 1.0 * n * k * k


def _trsm_bytes(n, k):
    return _F64 * (2.0 * n * k + k * k / 2.0)


def _qr_panel_flops(n, k):
    # GEQR2 + explicit Q formation (paper Fig. 10: 4 n s^2 for CAQR)
    return 4.0 * n * k * k


def _qr_panel_bytes(n, k):
    # Each of the k reflectors streams the trailing panel: ~ 8 n k^2 / 2
    return _F64 * (n * k * k)


def _spmv_flops(nnz, n_rows):
    return 2.0 * nnz


def _spmv_bytes(nnz, n_rows):
    # matrix values + indices + source gathers + result write
    return (_F64 + _I64) * nnz + _F64 * nnz + 2.0 * _F64 * n_rows


def _batched_launches(n, k, j, batch=None):
    # one batched launch + one reduction launch
    return 2.0


def _gemm_tn_bytes_sp(n, k, j):
    # single-precision operands: half the traffic of _gemm_tn_bytes
    return _F64 / 2.0 * (n * k + n * j + k * j)


def _narrow_panel_penalty(n, k, j):
    """Block (GEMM-class) kernels lose efficiency on very narrow panels.

    A GEMM tuned for blocks cannot amortize its tiling when the panel has
    only a couple of columns — the reason the paper's CA-GMRES(1, m) is
    *slower* than GMRES (Section VI-B: "these kernels are not optimized for
    orthogonalizing one vector at a time").  Full efficiency from ~5
    columns up; a single-column panel runs at ~40%.
    """
    return min(1.0, 0.25 + 0.15 * min(k, j))


KERNEL_TABLE: dict[tuple[str, str], KernelModel] = {
    # ---- BLAS-1 ----
    ("dot", "cublas"): KernelModel(_dot_flops, _dot_bytes, 0.05, 0.90),
    ("axpy", "cublas"): KernelModel(_axpy_flops, _axpy_bytes, 0.05, 0.90),
    ("scal", "cublas"): KernelModel(_scal_flops, _scal_bytes, 0.05, 0.90),
    ("copy", "cublas"): KernelModel(_copy_flops, _copy_bytes, 1.0, 0.90),
    ("dot", "mkl"): KernelModel(_dot_flops, _dot_bytes, 0.10, 0.85),
    ("axpy", "mkl"): KernelModel(_axpy_flops, _axpy_bytes, 0.10, 0.85),
    ("scal", "mkl"): KernelModel(_scal_flops, _scal_bytes, 0.10, 0.85),
    ("copy", "mkl"): KernelModel(_copy_flops, _copy_bytes, 1.0, 0.85),
    # ---- tall-skinny DGEMV (TSQR/CGS, BOrth/MGS) ----
    # CUBLAS 4.2 parallelizes DGEMV over rows of the output; with k ~ 30
    # outputs it cannot fill a Fermi, hence the very low efficiencies
    # (calibration: ~5 Gflop/s at k = 30 in Fig. 11b).
    ("gemv_t", "cublas"): KernelModel(_gemv_t_flops, _gemv_t_bytes, 0.010, 0.18),
    ("gemv_n", "cublas"): KernelModel(_gemv_n_flops, _gemv_n_bytes, 0.012, 0.22),
    # MAGMA tall-skinny DGEMV: one thread block per column dot-product
    # (calibration: ~5x CUBLAS, ~25 Gflop/s at k = 30).
    ("gemv_t", "magma"): KernelModel(_gemv_t_flops, _gemv_t_bytes, 0.06, 0.88),
    ("gemv_n", "magma"): KernelModel(_gemv_n_flops, _gemv_n_bytes, 0.06, 0.88),
    ("gemv_t", "mkl"): KernelModel(_gemv_t_flops, _gemv_t_bytes, 0.05, 0.80),
    ("gemv_n", "mkl"): KernelModel(_gemv_n_flops, _gemv_n_bytes, 0.05, 0.80),
    # ---- tall-skinny DGEMM (CholQR/SVQR Gram, BOrth/CGS) ----
    # CUBLAS 4.2 blocks for large square GEMM; a (30 x n)(n x 30) product
    # runs at ~20 Gflop/s (Fig. 11a).
    ("gemm_tn", "cublas"): KernelModel(
        _gemm_tn_flops, _gemm_tn_bytes, 0.030, 0.35, eff_scale=_narrow_panel_penalty
    ),
    ("gemm_nn", "cublas"): KernelModel(
        _gemm_nn_flops, _gemm_nn_bytes, 0.035, 0.40, eff_scale=_narrow_panel_penalty
    ),
    # The authors' batched DGEMM over row panels + reduction: ~58 Gflop/s.
    ("gemm_tn", "batched"): KernelModel(
        _gemm_tn_flops, _gemm_tn_bytes, 0.087, 0.95, launches=_batched_launches,
        eff_scale=_narrow_panel_penalty,
    ),
    ("gemm_nn", "batched"): KernelModel(
        _gemm_nn_flops, _gemm_nn_bytes, 0.095, 0.95, launches=_batched_launches,
        eff_scale=_narrow_panel_penalty,
    ),
    # Mixed-precision Gram product (the authors' follow-up [23]): operands
    # cast to float32, so half the memory traffic and twice the peak.
    ("gemm_tn", "batched_sp"): KernelModel(
        _gemm_tn_flops, _gemm_tn_bytes_sp, 0.174, 0.95, launches=_batched_launches,
        eff_scale=_narrow_panel_penalty,
    ),
    ("gemm_tn", "mkl"): KernelModel(_gemm_tn_flops, _gemm_tn_bytes, 0.10, 0.85),
    ("gemm_nn", "mkl"): KernelModel(_gemm_nn_flops, _gemm_nn_bytes, 0.10, 0.85),
    # MAGMA-style GEMM on very skinny shapes (rank-1/rank-few updates used
    # by BOrth/MGS): behaves like the optimized tall-skinny GEMV.
    ("gemm_tn", "magma"): KernelModel(
        _gemm_tn_flops, _gemm_tn_bytes, 0.06, 0.88, eff_scale=_narrow_panel_penalty
    ),
    ("gemm_nn", "magma"): KernelModel(
        _gemm_nn_flops, _gemm_nn_bytes, 0.06, 0.88, eff_scale=_narrow_panel_penalty
    ),
    # ---- triangular solve on the tall-skinny panel (CholQR/SVQR apply) ----
    ("trsm", "magma"): KernelModel(_trsm_flops, _trsm_bytes, 0.06, 0.80),
    ("trsm", "cublas"): KernelModel(_trsm_flops, _trsm_bytes, 0.02, 0.30),
    ("trsm", "mkl"): KernelModel(_trsm_flops, _trsm_bytes, 0.08, 0.80),
    # ---- local QR panel factorization (CAQR's per-GPU GEQR2 + Q build) ----
    # BLAS-1/2 bound; Fig. 11c shows CAQR tracking MGS (~10 Gflop/s).
    ("qr_panel", "magma"): KernelModel(_qr_panel_flops, _qr_panel_bytes, 0.016, 0.11),
    ("qr_panel", "mkl"): KernelModel(_qr_panel_flops, _qr_panel_bytes, 0.06, 0.60),
    # ---- sparse matrix-vector product ----
    ("spmv", "ellpack"): KernelModel(_spmv_flops, _spmv_bytes, 0.08, 0.85),
    ("spmv", "csr"): KernelModel(_spmv_flops, _spmv_bytes, 0.05, 0.60),
    ("spmv", "mkl"): KernelModel(_spmv_flops, _spmv_bytes, 0.08, 0.80),
}

"""Device BLAS for the simulated GPUs.

Every routine takes :class:`~repro.gpu.device.DeviceArray` operands, verifies
residency, performs the real float64 arithmetic with NumPy (the SpMVs with
the compiled CSR kernel behind :func:`repro.sparse.csr.csr_matvec`), and
charges the owning device's clock using the per-variant kernel cost models
from :mod:`repro.perf.kernels`.

The basis panels are column-major (see :mod:`repro.dist.multivector`), as
cuBLAS and MAGMA store them.  So the BLAS-3 updates of block
orthogonalization and CholQR/SVQR (:func:`gemm_nn_update`,
:func:`trsm_right`) and the vector update :func:`gemv_n_update` call
``dgemm``/``dtrsm``/``dgemv`` from :mod:`scipy.linalg.blas` to overwrite the
contiguous panel or column in place, with no temporary.  An operand of
another layout still gives the right answer: BLAS then returns a new
buffer, which is copied back.

The ``variant`` arguments mirror the kernel implementations the paper
compares (Section V-F):

* ``"cublas"``  — stock CUBLAS 4.2 behavior (slow on tall-skinny shapes);
* ``"magma"``   — the authors' optimized tall-skinny DGEMV / TRSM;
* ``"batched"`` — their batched DGEMM built from ``gemmBatched`` + reduce.

Numerically all variants are identical (same float64 result); they differ
only in charged time, exactly as the real kernels differ only in speed
(modulo reduction order, which the paper also ignores).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from scipy.linalg import blas as _blas

from ..sparse.csr import csr_matvec
from ..sparse.ellpack import ell_matvec
from .device import Device, DeviceArray

__all__ = [
    "dot",
    "nrm2",
    "axpy",
    "scal",
    "copy_into",
    "gemv_t",
    "gemv_n_update",
    "gemm_tn",
    "gemm_nn",
    "gemm_nn_update",
    "ger_update",
    "trsm_right",
    "qr_panel",
    "spmv_ell",
    "spmv_step",
]


def _device_of(*arrays: DeviceArray) -> Device:
    dev = arrays[0].device
    dev.require_resident(*arrays)
    return dev


def dot(x: DeviceArray, y: DeviceArray, variant: str = "cublas") -> DeviceArray:
    """Local dot product ``x . y`` -> scalar DeviceArray (shape ``(1,)``)."""
    dev = _device_of(x, y)
    if x.data.shape != y.data.shape:
        raise ValueError("dot operands must have equal shapes")
    dev.charge_kernel("dot", variant, n=x.data.size)
    out = DeviceArray(np.array([float(x.data @ y.data)]), dev)
    dev.apply_pending_faults(out)
    return out


def nrm2(x: DeviceArray, variant: str = "cublas") -> DeviceArray:
    """Local squared-norm contribution ``x . x`` (summed across devices
    before the square root, as in the paper's pseudocode)."""
    dev = _device_of(x)
    dev.charge_kernel("dot", variant, n=x.data.size)
    out = DeviceArray(np.array([float(x.data @ x.data)]), dev)
    dev.apply_pending_faults(out)
    return out


def axpy(alpha: float, x: DeviceArray, y: DeviceArray, variant: str = "cublas") -> None:
    """``y += alpha * x`` in place."""
    dev = _device_of(x, y)
    if x.data.shape != y.data.shape:
        raise ValueError("axpy operands must have equal shapes")
    dev.charge_kernel("axpy", variant, n=x.data.size)
    y.data += alpha * x.data
    dev.apply_pending_faults(y)


def scal(alpha: float, x: DeviceArray, variant: str = "cublas") -> None:
    """``x *= alpha`` in place."""
    dev = _device_of(x)
    dev.charge_kernel("scal", variant, n=x.data.size)
    x.data *= alpha
    dev.apply_pending_faults(x)


def copy_into(dst: DeviceArray, src: DeviceArray, variant: str = "cublas") -> None:
    """Device-local copy ``dst[:] = src``."""
    dev = _device_of(dst, src)
    if dst.data.shape != src.data.shape:
        raise ValueError("copy operands must have equal shapes")
    dev.charge_kernel("copy", variant, n=src.data.size)
    dst.data[...] = src.data
    dev.apply_pending_faults(dst)


def gemv_t(V: DeviceArray, x: DeviceArray, variant: str = "magma") -> DeviceArray:
    """Tall-skinny transposed matvec ``r = V.T @ x`` (V is n x k)."""
    dev = _device_of(V, x)
    n, k = V.data.shape
    if x.data.shape != (n,):
        raise ValueError(f"x must have shape ({n},), got {x.data.shape}")
    dev.charge_kernel("gemv_t", variant, n=n, k=k)
    out = DeviceArray(V.data.T @ x.data, dev)
    dev.apply_pending_faults(out)
    return out


def gemv_n_update(
    V: DeviceArray, r: DeviceArray, x: DeviceArray, variant: str = "magma"
) -> None:
    """Rank-k vector update ``x -= V @ r`` (V is n x k)."""
    dev = _device_of(V, r, x)
    n, k = V.data.shape
    if r.data.shape != (k,) or x.data.shape != (n,):
        raise ValueError("shape mismatch in gemv_n_update")
    dev.charge_kernel("gemv_n", variant, n=n, k=k)
    if n and k:
        out = _blas.dgemv(-1.0, V.data, r.data, beta=1.0, y=x.data, overwrite_y=1)
        if out is not x.data:  # x strided: BLAS worked on a copy
            x.data[...] = out
    dev.apply_pending_faults(x)


def gemm_tn(V: DeviceArray, W: DeviceArray, variant: str = "batched") -> DeviceArray:
    """Tall-skinny Gram-type product ``B = V.T @ W`` (V n x k, W n x j).

    The ``"batched_sp"`` variant performs the product in *real* float32
    (the mixed-precision scheme of the authors' follow-up work): roughly
    half the time on the device, at single-precision accuracy — the result
    is cast back to float64.
    """
    dev = _device_of(V, W)
    n, k = V.data.shape
    n2, j = W.data.shape
    if n != n2:
        raise ValueError("gemm_tn operands must share the long dimension")
    dev.charge_kernel("gemm_tn", variant, n=n, k=k, j=j)
    # Stays on numpy's matmul: for ``p.T @ p`` it takes BLAS's symmetric
    # (syrk) path, which returns an exactly symmetric Gram.  The CholQR
    # breakdown test (tests/orth/test_tsqr_properties.py::
    # TestSvqrSurvivesWhereCholqrBreaks) depends on that path's rounding: a
    # ``dgemm(trans_a=1)`` Gram of its kappa ~ 5e11 panel stays numerically
    # positive definite, and CholQR fails to break down where it must.
    if variant == "batched_sp":
        product = (
            V.data.astype(np.float32).T @ W.data.astype(np.float32)
        ).astype(np.float64)
    else:
        product = V.data.T @ W.data
    out = DeviceArray(product, dev)
    dev.apply_pending_faults(out)
    return out


def gemm_nn_update(
    V: DeviceArray, B: DeviceArray, W: DeviceArray, variant: str = "batched"
) -> None:
    """Block update ``W -= V @ B`` (V n x k, B k x j, W n x j)."""
    dev = _device_of(V, B, W)
    n, k = V.data.shape
    k2, j = B.data.shape
    if k != k2 or W.data.shape != (n, j):
        raise ValueError("shape mismatch in gemm_nn_update")
    dev.charge_kernel("gemm_nn", variant, n=n, k=k, j=j)
    if W.data.size:
        out = _blas.dgemm(-1.0, V.data, B.data, beta=1.0, c=W.data, overwrite_c=1)
        if out is not W.data:  # W not F-contiguous: BLAS worked on a copy
            W.data[...] = out
    dev.apply_pending_faults(W)


def gemm_nn(V: DeviceArray, B: DeviceArray, variant: str = "batched") -> DeviceArray:
    """Block product ``W = V @ B`` (V n x k, B k x j) -> new n x j array."""
    dev = _device_of(V, B)
    n, k = V.data.shape
    k2, j = B.data.shape
    if k != k2:
        raise ValueError("gemm_nn inner dimensions disagree")
    dev.charge_kernel("gemm_nn", variant, n=n, k=k, j=j)
    out = DeviceArray(V.data @ B.data, dev)
    dev.apply_pending_faults(out)
    return out


def ger_update(x: DeviceArray, y: DeviceArray, W: DeviceArray, variant: str = "magma") -> None:
    """Rank-1 update ``W -= x y^T`` (x n, y j, W n x j); BOrth/MGS's kernel."""
    dev = _device_of(x, y, W)
    n = x.data.shape[0]
    j = y.data.shape[0]
    if W.data.shape != (n, j):
        raise ValueError("shape mismatch in ger_update")
    dev.charge_kernel("gemm_nn", variant, n=n, k=1, j=j)
    W.data -= np.outer(x.data, y.data)
    dev.apply_pending_faults(W)


def trsm_right(V: DeviceArray, R: np.ndarray, variant: str = "magma") -> None:
    """Triangular solve ``V := V @ R^{-1}`` with upper-triangular R, in place.

    ``R`` is a small host matrix already broadcast to the device by the
    caller (the transfer is costed separately by the context).
    """
    dev = _device_of(V)
    n, k = V.data.shape
    R = np.asarray(R, dtype=np.float64)
    if R.shape != (k, k):
        raise ValueError(f"R must be ({k},{k}), got {R.shape}")
    dev.charge_kernel("trsm", variant, n=n, k=k)
    # Solve X R = V for X with R upper triangular on the right (side=1),
    # overwriting the column-major panel V in place.
    out = _blas.dtrsm(1.0, R, V.data, side=1, lower=0, overwrite_b=1)
    if out is not V.data:  # V not F-contiguous: BLAS worked on a copy
        V.data[...] = out
    dev.apply_pending_faults(V)


def qr_panel(V: DeviceArray, variant: str = "magma") -> tuple[DeviceArray, np.ndarray]:
    """Local Householder QR of the tall-skinny panel (CAQR's per-GPU step).

    Returns ``(Q, R)`` with Q n x k on the device and R k x k returned as a
    host-visible ndarray value (its transfer is costed by the caller).
    """
    dev = _device_of(V)
    n, k = V.data.shape
    dev.charge_kernel("qr_panel", variant, n=n, k=k)
    q, r = np.linalg.qr(V.data, mode="reduced")
    out = DeviceArray(q, dev)
    dev.apply_pending_faults(out)
    return out, r


def spmv_ell(
    values: DeviceArray,
    col_idx: DeviceArray,
    x: DeviceArray,
    out: DeviceArray,
    variant: str = "ellpack",
    start: int = 0,
    stop: int | None = None,
    order: DeviceArray | None = None,
) -> None:
    """ELLPACK SpMV ``out = A @ x`` on the device, over rows ``[start, stop)``.

    ``values``/``col_idx`` are the padded (n_rows, width) ELLPACK arrays,
    whose column indices address the extended vector ``x``.  Padded slots
    cost time too (they are streamed on a real GPU) and are summed like
    stored entries (:func:`~repro.sparse.ellpack.ell_matvec`).  ``stop``
    defaults to ``n_rows``.  When the rows are stored permuted, ``order[r]``
    is the output entry of stored row ``r``, and the launch scatters its
    rows there.  A poison armed on the launch lands in the rows it wrote.
    """
    dev = _device_of(values, col_idx, x, out)
    n_rows, width = values.data.shape
    if out.data.shape != (n_rows,):
        raise ValueError(f"out must have shape ({n_rows},), got {out.data.shape}")
    stop = n_rows if stop is None else stop
    if not 0 <= start <= stop <= n_rows:
        raise ValueError(f"row range [{start}, {stop}) out of range for {n_rows} rows")
    rows = stop - start
    dev.charge_kernel("spmv", variant, nnz=rows * width, n_rows=rows)
    target = out.data[start:stop] if order is None else np.empty(rows)
    ell_matvec(
        values.data[start:stop], col_idx.data[start:stop], x.data, target, x.data.size
    )
    dev.apply_pending_faults(target)
    if order is not None:
        out.data[order.data[start:stop]] = target


def spmv_step(
    indptr: DeviceArray,
    indices: DeviceArray,
    data: DeviceArray,
    z_prev: DeviceArray,
    z_cur: DeviceArray,
    z_next: DeviceArray,
    n_active_rows: int,
    stores: Sequence[DeviceArray],
    re: float | None = None,
    im2: float | None = None,
    variant: str = "ellpack",
    start: int = 0,
    order: DeviceArray | None = None,
) -> None:
    """One matrix powers step, or one row range of it, in one launch.

    Over the rows ``[start, n_active_rows)`` of the level-ordered extended
    local matrix (CSR, column indices addressing the extended vector):

    * ``z_next = A z_cur`` — only the touched nonzeros are costed;
    * the Newton shift on the same rows: ``z_next -= re * z_cur`` when
      ``re`` is given, then ``z_next += im2 * z_prev`` when ``im2`` is
      (the second step of a complex pair);
    * the store of the own rows among them (the extended vector's leading
      ``len(stores[c])`` rows) into the basis column ``stores[c]`` of each
      right-hand side: own row ``r`` goes to ``stores[c][order[r]]``, or to
      ``stores[c][r]`` without an ``order``.

    ``z_*`` are column-major ``(rows, k)`` panels, one column per
    right-hand side of a batch: the step reads the matrix once for all
    ``k`` columns (the ``k`` of its charge), while the compiled kernel
    still runs column by column, so every column is bit-identical to a
    step of its own, and every row to a launch over any other range.  A
    poison armed on the launch lands in the rows of ``z_next`` it
    computed, before the store.
    """
    dev = _device_of(indptr, indices, data, z_prev, z_cur, z_next, *stores)
    ptr = indptr.data
    if not 0 <= start <= n_active_rows < ptr.size:
        raise ValueError(f"row range out of range: [{start}, {n_active_rows})")
    if len(stores) != z_next.data.shape[1]:
        raise ValueError("need one store per column")
    xs, outs = z_cur.data, z_next.data
    k = xs.shape[1]
    terms = (re is not None) + (im2 is not None)
    n_own = stores[0].data.shape[0] if stores else 0
    own_stop = max(start, min(n_active_rows, n_own))
    dev.charge_kernel(
        "spmv_step", variant, nnz=int(ptr[n_active_rows] - ptr[start]),
        n_rows=n_active_rows - start, k=k, terms=terms,
        stored=(own_stop - start) * k,
    )
    rows = slice(start, n_active_rows)
    for c in range(k):
        csr_matvec(
            ptr[start:], indices.data, data.data, xs[:, c], outs[rows, c],
            n_active_rows - start, xs.shape[0],
        )
    cur, nxt = xs[rows], outs[rows]
    if re is not None:
        nxt -= re * cur
    if im2 is not None:
        nxt += im2 * z_prev.data[rows]
    dev.apply_pending_faults(nxt)
    own = slice(start, own_stop)
    targets = own if order is None else order.data[own]
    for c, store in enumerate(stores):
        store.data[targets] = outs[own, c]

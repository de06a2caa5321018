"""Compressed sparse row (CSR) matrix.

CSR is the CPU-side format of the paper (Fig. 3 caption) and the format every
structural operation in this library works on: row extraction for the matrix
powers kernel, symmetric permutation for reordering, row/column scaling for
matrix balancing, and the reference SpMV.

Every sparse matrix-vector product in the library -- the host ``matvec`` of
CSR and ELLPACK matrices, the distributed SpMV and the matrix powers kernel's
step on the simulated devices -- runs through :func:`csr_matvec`, one call
into scipy's compiled CSR kernel.  It sums each row's products in storage
order, so all of them round identically.  The structural operations are
vectorized NumPy, and row extraction is scipy's compiled row gather.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse._sparsetools import csr_matvec as _compiled_csr_matvec
from scipy.sparse._sparsetools import csr_row_index as _compiled_csr_row_index

from .._validation import as_float64_array, as_index_array

__all__ = ["CsrMatrix", "csr_from_dense", "csr_matvec", "eye_csr"]


def _require_contiguous(arr: np.ndarray, dtype, name: str) -> None:
    if arr.dtype != dtype or arr.ndim != 1 or not arr.flags.c_contiguous:
        raise ValueError(
            f"{name} must be a contiguous 1-D {np.dtype(dtype).name} array, "
            f"got {arr.dtype} with shape {arr.shape}"
        )


def csr_matvec(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    x: np.ndarray,
    out: np.ndarray,
    n_rows: int,
    n_cols: int,
) -> np.ndarray:
    """``out[:n_rows] = A[:n_rows, :] @ x`` for the CSR arrays of ``A``.

    Only the leading ``n_rows`` rows are computed (``indptr`` may describe
    more: the matrix powers kernel's shrinking prefix), and only
    ``out[:n_rows]`` is written.  Each row is summed sequentially in storage
    order, starting from zero.

    The compiled kernel checks no bounds and silently copies inputs of the
    wrong type, so every size and type is checked here first, in O(1):
    ``indptr``/``indices`` must be contiguous int64 and ``data``/``x``
    contiguous float64.  ``out`` must be float64 and may be strided; scipy
    then writes it back through a contiguous copy.  A column of a
    distributed multivector is contiguous (its panels are column-major), so
    the SpMVs write it directly.  The caller guarantees that every column
    index of the computed rows is below ``n_cols`` (the :class:`CsrMatrix` and
    ``EllpackMatrix`` constructors validate this), and ``x`` must hold
    ``n_cols`` entries.
    """
    _require_contiguous(indptr, np.int64, "indptr")
    _require_contiguous(indices, np.int64, "indices")
    _require_contiguous(data, np.float64, "data")
    _require_contiguous(x, np.float64, "x")
    if out.dtype != np.float64 or out.ndim != 1:
        raise ValueError(f"out must be a 1-D float64 array, got {out.dtype} with shape {out.shape}")
    if not 0 <= n_rows < indptr.size:
        raise ValueError(f"n_rows out of range: {n_rows} (indptr has {indptr.size} entries)")
    if out.size < n_rows:
        raise ValueError(f"out has {out.size} entries, fewer than n_rows={n_rows}")
    if x.size < n_cols:
        raise ValueError(f"x has {x.size} entries, fewer than n_cols={n_cols}")
    if indices.size != data.size or int(indptr[n_rows]) > data.size:
        raise ValueError("indptr, indices and data describe different nonzero counts")
    out[:n_rows] = 0.0
    _compiled_csr_matvec(n_rows, n_cols, indptr, indices, data, x, out)
    return out


class CsrMatrix:
    """Sparse matrix in compressed sparse row format.

    Parameters
    ----------
    shape
        ``(n_rows, n_cols)``.
    indptr
        Row pointer array of length ``n_rows + 1``; row ``i`` occupies
        ``indices[indptr[i]:indptr[i+1]]``.
    indices
        Column indices, not required to be sorted within a row unless
        stated by the producing routine (``CooMatrix.to_csr`` sorts them).
    data
        Nonzero values, parallel to ``indices``.
    """

    def __init__(self, shape, indptr, indices, data):
        n_rows, n_cols = int(shape[0]), int(shape[1])
        self.shape = (n_rows, n_cols)
        self.indptr = as_index_array(indptr, "indptr")
        self.indices = as_index_array(indices, "indices")
        self.data = as_float64_array(data, "data")
        if self.indptr.shape != (n_rows + 1,):
            raise ValueError(
                f"indptr must have length n_rows+1={n_rows + 1}, got {self.indptr.size}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.shape != self.data.shape:
            raise ValueError("indices and data must have equal length")
        # Negative indices are rejected by as_index_array above; they would
        # otherwise silently wrap around via fancy indexing in
        # matvec/scale_cols, producing wrong results instead of an error.
        if self.indices.size and self.indices.max() >= n_cols:
            raise ValueError("column index out of range")

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indices.size)

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    def row_nnz(self) -> np.ndarray:
        """Number of stored entries in each row (length ``n_rows``)."""
        return np.diff(self.indptr)

    def copy(self) -> "CsrMatrix":
        """Deep copy."""
        return CsrMatrix(
            self.shape, self.indptr.copy(), self.indices.copy(), self.data.copy()
        )

    # ------------------------------------------------------------------
    # Numerical kernels
    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Sparse matrix-vector product ``y = A @ x`` (see :func:`csr_matvec`).

        ``out``, when given, must be a float64 array of shape ``(n_rows,)``.
        """
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 1 or x.shape[0] != self.n_cols:
            raise ValueError(
                f"dimension mismatch: matrix has {self.n_cols} columns, x has shape {x.shape}"
            )
        if out is None:
            out = np.empty(self.n_rows, dtype=np.float64)
        elif out.shape != (self.n_rows,):
            raise ValueError(f"out must have shape ({self.n_rows},), got {out.shape}")
        return csr_matvec(
            self.indptr, self.indices, self.data, x, out, self.n_rows, self.n_cols
        )

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Transpose product ``x = A.T @ y`` (scatter-add formulation)."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape[0] != self.n_rows:
            raise ValueError("dimension mismatch in rmatvec")
        out = np.zeros(self.n_cols, dtype=np.float64)
        if self.nnz == 0:
            return out
        row_ids = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        np.add.at(out, self.indices, self.data * y[row_ids])
        return out

    def to_dense(self) -> np.ndarray:
        """Return the dense equivalent."""
        out = np.zeros(self.shape, dtype=np.float64)
        row_ids = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        out[row_ids, self.indices] = self.data
        return out

    def diagonal(self) -> np.ndarray:
        """Extract the main diagonal (zeros where absent)."""
        n = min(self.shape)
        diag = np.zeros(n, dtype=np.float64)
        row_ids = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        mask = row_ids == self.indices
        diag_rows = row_ids[mask]
        keep = diag_rows < n
        diag[diag_rows[keep]] = self.data[mask][keep]
        return diag

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------
    def extract_rows(self, row_ids) -> "CsrMatrix":
        """Return the submatrix ``A(rows, :)`` in the given row order.

        This is the paper's :math:`A(\\mathbf{i}, :)` operation used to build
        local and boundary submatrices for MPK.
        """
        row_ids = as_index_array(row_ids, "row_ids")
        if row_ids.size and row_ids.max() >= self.n_rows:
            raise ValueError("row index out of range")
        counts = self.indptr[row_ids + 1] - self.indptr[row_ids]
        new_indptr = np.zeros(row_ids.size + 1, dtype=np.int64)
        np.cumsum(counts, out=new_indptr[1:])
        total = int(new_indptr[-1])
        new_indices = np.empty(total, dtype=np.int64)
        new_data = np.empty(total, dtype=np.float64)
        if total:
            # scipy's compiled kernel copies each selected row's slice.
            _compiled_csr_row_index(
                row_ids.size, row_ids, self.indptr, self.indices, self.data,
                new_indices, new_data,
            )
        return CsrMatrix((row_ids.size, self.n_cols), new_indptr, new_indices, new_data)

    def transpose(self) -> "CsrMatrix":
        """Return ``A.T`` as a new CSR matrix (column indices sorted)."""
        n_rows, n_cols = self.shape
        indptr = np.zeros(n_cols + 1, dtype=np.int64)
        np.add.at(indptr, self.indices + 1, 1)
        np.cumsum(indptr, out=indptr)
        row_ids = np.repeat(np.arange(n_rows), np.diff(self.indptr))
        order = np.argsort(self.indices, kind="stable")
        return CsrMatrix(
            (n_cols, n_rows), indptr, row_ids[order], self.data[order]
        )

    def permute(self, perm) -> "CsrMatrix":
        """Symmetric permutation ``A(perm, perm)`` for a square matrix.

        ``perm[k]`` is the original index of the row/column placed at
        position ``k`` (i.e. "new order lists old ids"), matching the output
        convention of :func:`repro.order.rcm`.
        """
        perm = as_index_array(perm, "perm")
        if self.n_rows != self.n_cols:
            raise ValueError("permute requires a square matrix")
        if perm.size != self.n_rows:
            raise ValueError("perm has wrong length")
        if perm.size and perm.max() >= self.n_rows:
            raise ValueError("perm entries must be in [0, n_rows)")
        inv = np.empty_like(perm)
        inv[perm] = np.arange(perm.size)
        rows_perm = self.extract_rows(perm)
        new_indices = inv[rows_perm.indices]
        # Keep column indices sorted within each row for determinism.
        result = CsrMatrix(self.shape, rows_perm.indptr, new_indices, rows_perm.data)
        return result.sort_indices()

    def sort_indices(self) -> "CsrMatrix":
        """Return a copy with column indices sorted within each row."""
        row_ids = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        order = np.lexsort((self.indices, row_ids))
        return CsrMatrix(
            self.shape, self.indptr.copy(), self.indices[order], self.data[order]
        )

    def scale_rows(self, scale: np.ndarray) -> "CsrMatrix":
        """Return ``diag(scale) @ A``."""
        scale = as_float64_array(scale, "scale")
        if scale.shape != (self.n_rows,):
            raise ValueError("scale has wrong length")
        row_ids = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        return CsrMatrix(
            self.shape, self.indptr.copy(), self.indices.copy(), self.data * scale[row_ids]
        )

    def scale_cols(self, scale: np.ndarray) -> "CsrMatrix":
        """Return ``A @ diag(scale)``."""
        scale = as_float64_array(scale, "scale")
        if scale.shape != (self.n_cols,):
            raise ValueError("scale has wrong length")
        return CsrMatrix(
            self.shape, self.indptr.copy(), self.indices.copy(), self.data * scale[self.indices]
        )

    def row_norms(self, ord: float = 2.0) -> np.ndarray:
        """Per-row vector norms of the stored values."""
        out = np.zeros(self.n_rows, dtype=np.float64)
        nonempty = np.flatnonzero(np.diff(self.indptr) > 0)
        if not nonempty.size:
            return out
        if ord == 2.0:
            sums = np.add.reduceat(self.data**2, self.indptr[:-1][nonempty])
            out[nonempty] = np.sqrt(sums)
        elif ord == 1.0:
            out[nonempty] = np.add.reduceat(np.abs(self.data), self.indptr[:-1][nonempty])
        elif ord == np.inf:
            out[nonempty] = np.maximum.reduceat(np.abs(self.data), self.indptr[:-1][nonempty])
        else:
            raise ValueError(f"unsupported norm order {ord!r}")
        return out

    def col_norms(self, ord: float = 2.0) -> np.ndarray:
        """Per-column vector norms of the stored values."""
        out = np.zeros(self.n_cols, dtype=np.float64)
        if self.nnz == 0:
            return out
        if ord == 2.0:
            np.add.at(out, self.indices, self.data**2)
            np.sqrt(out, out=out)
        elif ord == 1.0:
            np.add.at(out, self.indices, np.abs(self.data))
        elif ord == np.inf:
            np.maximum.at(out, self.indices, np.abs(self.data))
        else:
            raise ValueError(f"unsupported norm order {ord!r}")
        return out

    def add_scaled_identity(self, alpha: float) -> "CsrMatrix":
        """Return ``A + alpha * I`` for a square matrix.

        Implemented through COO so that rows lacking a stored diagonal gain
        one; used by shifted generators and the Newton-basis tests.
        """
        from .coo import CooMatrix

        if self.n_rows != self.n_cols:
            raise ValueError("add_scaled_identity requires a square matrix")
        n = self.n_rows
        row_ids = np.repeat(np.arange(n), np.diff(self.indptr))
        rows = np.concatenate([row_ids, np.arange(n)])
        cols = np.concatenate([self.indices, np.arange(n)])
        data = np.concatenate([self.data, np.full(n, float(alpha))])
        return CooMatrix(self.shape, rows, cols, data).to_csr()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CsrMatrix(shape={self.shape}, nnz={self.nnz})"


def csr_from_dense(dense: np.ndarray, tol: float = 0.0) -> CsrMatrix:
    """Build a :class:`CsrMatrix` from a dense array.

    Entries with ``abs(value) <= tol`` are dropped.
    """
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim != 2:
        raise ValueError("dense must be 2-D")
    mask = np.abs(dense) > tol
    rows, cols = np.nonzero(mask)
    indptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CsrMatrix(dense.shape, indptr, cols.astype(np.int64), dense[mask])


def eye_csr(n: int, value: float = 1.0) -> CsrMatrix:
    """Return ``value * I`` of order ``n`` in CSR format."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return CsrMatrix(
        (n, n),
        np.arange(n + 1, dtype=np.int64),
        np.arange(n, dtype=np.int64),
        np.full(n, float(value)),
    )

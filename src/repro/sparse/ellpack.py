"""ELLPACK/ITPACK sparse format.

The paper runs GPU SpMV on the ELLPACK layout (Fig. 3 caption): each row is
padded to the maximum row length so the nonzeros form dense 2-D arrays that
GPUs can stream with coalesced accesses.  The same arrays, read row-major,
are a CSR matrix whose rows all hold ``width`` entries, so the product runs
through the library's one compiled CSR kernel (:func:`ell_matvec`).

ELLPACK wastes memory when row lengths are skewed; :meth:`EllpackMatrix.from_csr`
reports the padding ratio so benchmarks can account for it, mirroring the
format-choice discussion in the paper.
"""

from __future__ import annotations

import numpy as np

from .csr import CsrMatrix, csr_matvec

__all__ = ["EllpackMatrix", "ell_matvec"]


def ell_matvec(
    values: np.ndarray, col_idx: np.ndarray, x: np.ndarray, out: np.ndarray, n_cols: int
) -> np.ndarray:
    """``out[:n_rows] = A @ x`` for the padded ``(n_rows, width)`` ELLPACK arrays.

    The arrays are viewed, without copying, as CSR with the row pointer
    ``arange(n_rows + 1) * width``.  Padded slots take part like stored
    entries: each adds ``0.0 * x[j]``, which is exact for finite ``x[j]``
    and NaN for a NaN ``x[j]``, as the slots a GPU streams would.
    """
    n_rows, width = values.shape
    indptr = np.arange(n_rows + 1, dtype=np.int64) * width
    return csr_matvec(
        indptr, col_idx.reshape(-1), values.reshape(-1), x, out, n_rows, n_cols
    )


class EllpackMatrix:
    """Sparse matrix in ELLPACK layout.

    Attributes
    ----------
    values
        ``(n_rows, width)`` float64 array; padded slots hold 0.0.
    col_idx
        ``(n_rows, width)`` int64 array; padded slots repeat the row's own
        index (a standard trick: the padded product term is ``0.0 * x[i]``,
        which never reads out of bounds).
    """

    def __init__(self, shape, values: np.ndarray, col_idx: np.ndarray):
        n_rows, n_cols = int(shape[0]), int(shape[1])
        values = np.ascontiguousarray(values, dtype=np.float64)
        col_idx = np.ascontiguousarray(col_idx, dtype=np.int64)
        if values.shape != col_idx.shape:
            raise ValueError("values and col_idx must have the same shape")
        if values.ndim != 2 or values.shape[0] != n_rows:
            raise ValueError(
                f"values must be (n_rows, width) with n_rows={n_rows}, got {values.shape}"
            )
        if col_idx.size and (col_idx.min() < 0 or col_idx.max() >= max(n_cols, 1)):
            raise ValueError("column index out of range")
        self.shape = (n_rows, n_cols)
        self.values = values
        self.col_idx = col_idx

    @property
    def width(self) -> int:
        """Padded row width (max nonzeros per row)."""
        return int(self.values.shape[1])

    @property
    def nnz(self) -> int:
        """Number of non-padding entries."""
        return int(np.count_nonzero(self.values))

    @property
    def padded_size(self) -> int:
        """Total stored slots including padding."""
        return int(self.values.size)

    @classmethod
    def from_csr(cls, csr: CsrMatrix) -> "EllpackMatrix":
        """Convert from CSR, padding every row to the maximum row length."""
        n_rows, n_cols = csr.shape
        counts = np.diff(csr.indptr)
        width = int(counts.max()) if n_rows and counts.size else 0
        values = np.zeros((n_rows, max(width, 1) if n_rows else 0), dtype=np.float64)
        # Self-referential padding keeps gathers in range.
        col_idx = np.tile(
            np.arange(n_rows, dtype=np.int64)[:, None],
            (1, max(width, 1) if n_rows else 0),
        )
        if n_rows and n_cols:
            col_idx = np.minimum(col_idx, n_cols - 1)
        if width:
            row_ids = np.repeat(np.arange(n_rows), counts)
            offsets = np.arange(csr.nnz) - np.repeat(csr.indptr[:-1], counts)
            values[row_ids, offsets] = csr.data
            col_idx[row_ids, offsets] = csr.indices
        return cls(csr.shape, values, col_idx)

    def to_csr(self) -> CsrMatrix:
        """Convert back to CSR, dropping padded (zero) slots."""
        mask = self.values != 0.0
        counts = mask.sum(axis=1)
        indptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CsrMatrix(
            self.shape, indptr, self.col_idx[mask], self.values[mask]
        )

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """SpMV ``y = A @ x`` (see :func:`ell_matvec`).

        ``out``, when given, must be a float64 array of shape ``(n_rows,)``.
        """
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 1 or x.shape[0] != self.shape[1]:
            raise ValueError(
                f"dimension mismatch: matrix has {self.shape[1]} columns, x has shape {x.shape}"
            )
        if out is None:
            out = np.empty(self.shape[0], dtype=np.float64)
        elif out.shape != (self.shape[0],):
            raise ValueError(f"out must have shape ({self.shape[0]},), got {out.shape}")
        return ell_matvec(self.values, self.col_idx, x, out, self.shape[1])

    def to_dense(self) -> np.ndarray:
        """Return the dense equivalent (padding contributes nothing)."""
        return self.to_csr().to_dense()

    def padding_ratio(self) -> float:
        """Stored slots divided by true nonzeros (>= 1.0; 1.0 = no waste)."""
        nnz = self.nnz
        return float(self.padded_size) / nnz if nnz else 1.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"EllpackMatrix(shape={self.shape}, width={self.width}, nnz={self.nnz})"
        )

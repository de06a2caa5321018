"""Block-Jacobi right preconditioning with explicit folding.

``M`` is the block diagonal of ``A`` with contiguous dense blocks of size
``block_size``.  Folding computes ``A M^{-1}`` exactly:

    (A M^{-1})[:, block_b] = A[:, block_b] @ M_b^{-1},

so each row of the folded operator fills (at most) the full width of every
block it already touches — fill is bounded by ``touched_blocks x
block_size`` per row, and the folded matrix stays sparse for small blocks.

The fold is implemented as one vectorized pass per block: every stored
entry ``(i, j)`` with ``j`` in block ``b`` contributes the dense row
``a_ij * Minv_b[j_local, :]`` to result row ``i``; duplicate contributions
are summed by the COO builder, which is exactly the row-block product.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from ..sparse.coo import CooBuilder
from ..sparse.csr import CsrMatrix

__all__ = ["BlockJacobiPreconditioner"]


def _robust_inverse(dense: np.ndarray, regularize: float) -> np.ndarray:
    """Invert a small dense block, regularizing the diagonal if singular."""
    k = dense.shape[0]
    bump = 0.0
    scale = max(float(np.abs(dense).max()), 1.0) if dense.size else 1.0
    for _ in range(60):
        try:
            inv = scipy.linalg.inv(dense + bump * np.eye(k), check_finite=False)
            if np.all(np.isfinite(inv)):
                return inv
        except (scipy.linalg.LinAlgError, ValueError):
            pass
        bump = max(regularize * scale, bump * 10.0)
    raise np.linalg.LinAlgError("block could not be regularized")  # pragma: no cover


class BlockJacobiPreconditioner:
    """Right preconditioner ``M = blockdiag(A)`` with dense blocks.

    Parameters
    ----------
    matrix
        Square matrix supplying the diagonal blocks.
    block_size
        Rows per block (the final block may be smaller).  Blocks are
        contiguous index ranges, matching the block-row data distribution.
    regularize
        Added to a block's diagonal if it is numerically singular, so the
        preconditioner always exists (a standard practical safeguard).
    """

    def __init__(self, matrix: CsrMatrix, block_size: int = 8, regularize: float = 1e-12):
        if matrix.n_rows != matrix.n_cols:
            raise ValueError("BlockJacobiPreconditioner requires a square matrix")
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.n = matrix.n_rows
        self.block_size = int(block_size)
        self.block_starts = np.arange(0, self.n, self.block_size, dtype=np.int64)
        self._inverses: list[np.ndarray] = []
        dense_rows = matrix  # CSR row extraction per block
        for start in self.block_starts:
            stop = min(start + self.block_size, self.n)
            block_rows = dense_rows.extract_rows(np.arange(start, stop))
            dense = block_rows.to_dense()[:, start:stop]
            self._inverses.append(_robust_inverse(dense, regularize))

    @property
    def n_blocks(self) -> int:
        return len(self._inverses)

    def fold(self, matrix: CsrMatrix) -> CsrMatrix:
        """Return the folded operator ``A M^{-1}`` as an explicit CSR."""
        if matrix.n_rows != self.n or matrix.n_cols != self.n:
            raise ValueError("matrix size disagrees with the preconditioner")
        row_ids = np.repeat(np.arange(self.n), np.diff(matrix.indptr))
        block_of = matrix.indices // self.block_size
        builder = CooBuilder((self.n, self.n))
        for b, start in enumerate(self.block_starts):
            stop = min(start + self.block_size, self.n)
            width = stop - start
            mask = block_of == b
            if not mask.any():
                continue
            rows = row_ids[mask]
            local = matrix.indices[mask] - start
            vals = matrix.data[mask]
            # Each entry scatters a dense row of Minv_b into its block.
            contrib = vals[:, None] * self._inverses[b][local, :]
            builder.add(
                np.repeat(rows, width),
                np.tile(np.arange(start, stop), rows.size),
                contrib.ravel(),
            )
        folded = builder.build().to_csr()
        return folded

    def recover(self, y: np.ndarray) -> np.ndarray:
        """Map a folded-system solution back: ``x = M^{-1} y``."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.n,):
            raise ValueError(f"y must have shape ({self.n},)")
        x = np.empty_like(y)
        for b, start in enumerate(self.block_starts):
            stop = min(start + self.block_size, self.n)
            x[start:stop] = self._inverses[b] @ y[start:stop]
        return x

"""Boundary-set (dependency) computation for the matrix powers kernel.

Following Section IV-A: for device ``d`` owning rows
:math:`\\mathbf{i}^{(d,s+1)}`, the rows of vector :math:`v_k` required to
complete all ``s`` products are

.. math::

    \\mathbf{i}^{(d,k)} = \\mathbf{i}^{(d,k+1)} \\cup \\boldsymbol\\delta^{(d,k)},
    \\qquad
    \\boldsymbol\\delta^{(d,k)} =
        \\bigcup_{i \\in \\mathbf{i}^{(d,k+1)}} \\mathrm{str}(a_{i,:})
        \\setminus \\mathbf{i}^{(d,k+1)},

computed on the CPU before the iteration begins.  In graph terms
:math:`\\boldsymbol\\delta^{(d,k)}` is the shell of vertices at distance
``s - k + 1`` from the local block.

The extended row set is stored *level-ordered* — own rows first, then
δ^(d,s), δ^(d,s-1), …, δ^(d,1) — so the rows the kernel must compute at
step ``k`` form a prefix, and each MPK step is a single SpMV over a
shrinking row prefix.

:func:`halo_levels` gives every row its *halo distance*: its distance, in
the symmetrized pattern of ``A``, to the nearest row its device does not
own.  At MPK step ``k`` the own rows with a distance above ``k`` read no
halo value, so a device can compute them while its halo is still on the
bus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scipy.sparse._sparsetools import csr_row_index, csr_tocsc

from ..order.partition import Partition
from ..sparse.csr import CsrMatrix

__all__ = ["MpkDependency", "compute_dependencies", "halo_levels"]


@dataclass(frozen=True)
class MpkDependency:
    """Dependency structure of one device for ``MPK(s)``.

    Attributes
    ----------
    owned
        Sorted global row indices of the local block (i^(d,s+1)).
    deltas
        ``deltas[0]`` is δ^(d,s) (distance-1 shell), ``deltas[1]`` is
        δ^(d,s-1), …, ``deltas[s-1]`` is δ^(d,1) (distance-s shell).
    ext_rows
        Level-ordered extended row set: ``[owned, δ^(d,s), …, δ^(d,1)]``
        concatenated (global indices; this is i^(d,1) as an ordered array).
    s
        Number of powers.
    """

    owned: np.ndarray
    deltas: tuple
    ext_rows: np.ndarray
    s: int

    @property
    def n_owned(self) -> int:
        return int(self.owned.size)

    @property
    def boundary(self) -> np.ndarray:
        """All boundary rows δ^(d,1:s) = ext_rows minus the owned prefix."""
        return self.ext_rows[self.n_owned :]

    def i_size(self, k: int) -> int:
        """|i^(d,k)| for 1 <= k <= s+1 (rows of v_k needed)."""
        if not 1 <= k <= self.s + 1:
            raise ValueError(f"k out of range [1, {self.s + 1}]: {k}")
        # i^(d,k) = owned + shells δ^(s), …, δ^(k): the first s-k+1 shells.
        n_shells = self.s - k + 1
        return self.n_owned + int(sum(d.size for d in self.deltas[:n_shells]))

    def active_rows(self, k: int) -> int:
        """Rows computed at MPK step ``k`` (a prefix): |i^(d,k+1)|."""
        if not 1 <= k <= self.s:
            raise ValueError(f"step k out of range [1, {self.s}]: {k}")
        return self.i_size(k + 1)

    def delta_range(self, k: int) -> np.ndarray:
        """δ^(d,k:s) = i^(d,k) \\ i^(d,s+1): boundary shells for steps >= k."""
        if not 1 <= k <= self.s:
            raise ValueError(f"k out of range [1, {self.s}]: {k}")
        end = self.i_size(k)
        return self.ext_rows[self.n_owned : end]


def compute_dependencies(
    matrix: CsrMatrix, partition: Partition, s: int
) -> list[MpkDependency]:
    """Compute every device's MPK dependency structure.

    Uses the *directed* structure of ``A`` (row ``i`` reads column ``j`` iff
    ``a_ij`` is stored), matching the paper's str(a_i,:) recursion rather
    than the symmetrized graph.
    """
    if matrix.n_rows != matrix.n_cols:
        raise ValueError("MPK requires a square matrix")
    if matrix.n_rows != partition.n_rows:
        raise ValueError("matrix and partition sizes disagree")
    if s < 1:
        raise ValueError("s must be >= 1")
    deps = []
    n = matrix.n_rows
    for d in range(partition.n_parts):
        owned = partition.rows_of(d)
        in_set = np.zeros(n, dtype=bool)
        in_set[owned] = True
        frontier = owned
        deltas = []
        for _ in range(s):
            # The new neighbours, sorted: marked in a mask, then listed.
            mark = np.zeros(n, dtype=bool)
            mark[_neighbors(matrix.indptr, matrix.indices, frontier)] = True
            mark &= ~in_set
            fresh = np.flatnonzero(mark)
            in_set[fresh] = True
            deltas.append(fresh)
            frontier = fresh
            if fresh.size == 0:
                # All later shells are empty too; fill them explicitly so
                # deltas always has s entries.
                deltas.extend(
                    np.empty(0, dtype=np.int64) for _ in range(s - len(deltas))
                )
                break
        ext_rows = np.concatenate([owned, *deltas]) if deltas else owned.copy()
        deps.append(MpkDependency(owned, tuple(deltas), ext_rows, s))
    return deps


def halo_levels(matrix: CsrMatrix, partition: Partition, cap: int) -> np.ndarray:
    """Halo distance of every row, capped at ``cap``.

    ``levels[i]`` is the distance, in the symmetrized pattern of ``A``
    (``i ~ j`` iff ``a_ij`` or ``a_ji`` is stored), from row ``i`` to the
    nearest row not owned by ``i``'s part, or ``cap`` if that is ``cap``
    or more.  So the own row ``i`` is halo-independent at MPK step ``k``
    (its ``k``-hop neighbourhood holds only own rows) iff
    ``levels[i] > k``.  Symmetry makes the levels of two neighbours differ
    by at most one; :class:`~repro.mpk.MatrixPowersKernel` relies on that.

    One multi-source breadth-first search from the rows at distance 1
    serves every part at once: a path that leaves its part crosses a cut
    edge, whose end in the part is such a row.  It expands each row once,
    with vectorized passes and scipy's compiled transpose and row gather.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    n = matrix.n_rows
    indptr, indices = matrix.indptr, matrix.indices
    owner = partition.assignment
    t_indptr = np.empty(n + 1, dtype=np.int64)
    t_indices = np.empty(indices.size, dtype=np.int64)
    csr_tocsc(
        n, n, indptr, indices, np.zeros(indices.size, dtype=np.int8),
        t_indptr, t_indices, np.empty(indices.size, dtype=np.int8),
    )
    levels = np.full(n, cap, dtype=np.int64)
    # The rows at distance 1: both ends of every cut entry a_ij.
    cut = np.repeat(owner, np.diff(indptr)) != owner[indices]
    cuts_before = np.concatenate([[0], np.cumsum(cut)])
    fresh = cuts_before[indptr[1:]] != cuts_before[indptr[:-1]]
    fresh[indices[cut]] = True
    frontier = np.flatnonzero(fresh)
    level = 1
    while frontier.size and level < cap:
        levels[frontier] = level
        fresh = np.zeros(n, dtype=bool)
        fresh[_neighbors(indptr, indices, frontier)] = True
        fresh[_neighbors(t_indptr, t_indices, frontier)] = True
        fresh &= levels == cap
        frontier = np.flatnonzero(fresh)
        level += 1
    return levels


def _neighbors(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``indices`` of the given rows of a CSR pattern (with duplicates),
    gathered by scipy's compiled row extraction."""
    counts = indptr[rows + 1] - indptr[rows]
    out = np.empty(int(counts.sum()), dtype=np.int64)
    if out.size:
        # The kernel also gathers values; a zero int8 stand-in costs least.
        csr_row_index(
            rows.size, rows, indptr, indices, np.zeros(indices.size, dtype=np.int8),
            out, np.empty(out.size, dtype=np.int8),
        )
    return out

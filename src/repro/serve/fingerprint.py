"""Plan-cache keys.

Everything the serving layer precomputes — ordering, balancing, partition,
MPK dependency closure, exchange index sets — is a function of the matrix
sparsity pattern, the matrix *values* (balancing and the folded operator
the distributed state and MPK closures hold), and the solver
configuration; never of ``b``.  :class:`HostKey` and :class:`Fingerprint`
list exactly those inputs, so two solves share a plan only when the plan
would be rebuilt identically for both.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..sparse.csr import CsrMatrix

__all__ = ["pattern_hash", "value_hash", "HostKey", "Fingerprint"]


def pattern_hash(matrix: CsrMatrix) -> str:
    """SHA-256 of the sparsity pattern (shape + indptr + indices)."""
    h = hashlib.sha256()
    h.update(np.asarray(matrix.shape, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(matrix.indptr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(matrix.indices, dtype=np.int64).tobytes())
    return h.hexdigest()


def value_hash(matrix: CsrMatrix) -> str:
    """SHA-256 of the nonzero values."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(matrix.data, dtype=np.float64).tobytes())
    return h.hexdigest()


class HostKey(NamedTuple):
    """Roster-independent key of a :class:`~repro.serve.plan.HostPlan`.

    Attributes
    ----------
    pattern
        :func:`pattern_hash` of the (unpermuted) matrix.
    values
        :func:`value_hash` of the (unpermuted) matrix: balancing and the
        folded operator depend on the values, not only on the pattern.
    ordering
        ``"natural"`` / ``"rcm"`` / ``"kway"``.
    balance
        Whether diagonal balancing is folded into the operator.
    preconditioner
        ``repr`` of the folded preconditioner (``None`` for none) — plans
        with different folded operators must not collide.
    """

    pattern: str
    values: str
    ordering: str
    balance: bool
    preconditioner: str | None


@dataclass(frozen=True)
class Fingerprint:
    """Hashable key of a :class:`~repro.serve.plan.StructuralPlan`.

    Attributes
    ----------
    host
        The :class:`HostKey` of the host plan the structural plan is built on.
    m
        Restart length (fixes the basis multivector width ``m + 1``).
    roster
        Names of the active devices the plan's distributed state lives on.
    """

    host: HostKey
    m: int
    roster: tuple

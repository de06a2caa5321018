"""Error metrics and breakdown exceptions for orthogonalization.

Fig. 13 of the paper reports, per TSQR invocation inside CA-GMRES:

* the orthogonality error ``||I - Q^T Q||``,
* the factorization (representation) error ``||A - QR|| / ||A||``,
* the element-wise error ``||(A - QR) ./ A||`` (entry-wise division),

where A here is the tall-skinny panel handed to TSQR.  These are host-side
diagnostics computed on gathered copies; they never participate in timing.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "OrthogonalizationError",
    "CholeskyBreakdown",
    "NonFinitePanelError",
    "orthogonality_error",
    "factorization_error",
    "elementwise_error",
]


class OrthogonalizationError(RuntimeError):
    """An orthogonalization kernel could not complete (e.g. zero column)."""


class CholeskyBreakdown(OrthogonalizationError):
    """CholQR's Gram matrix was not numerically positive definite.

    The paper (Section V-D) notes this happens when the panel is
    ill-conditioned or rank deficient; SVQR exists to survive exactly this.
    """


class NonFinitePanelError(OrthogonalizationError):
    """TSQR produced a NaN/Inf R factor — the input panel was poisoned.

    :func:`~repro.orth.tsqr.tsqr` always checks its host-side R factor;
    the solvers' fault guards use this to trigger a panel retry rather
    than silently propagating non-finite basis vectors.
    """


def orthogonality_error(Q: np.ndarray) -> float:
    """Spectral-norm departure from orthonormality, ``||I - Q^T Q||_2``."""
    Q = np.asarray(Q, dtype=np.float64)
    k = Q.shape[1]
    gram = Q.T @ Q
    return float(np.linalg.norm(np.eye(k) - gram, ord=2))


def factorization_error(V: np.ndarray, Q: np.ndarray, R: np.ndarray) -> float:
    """Relative representation error ``||V - QR||_F / ||V||_F``."""
    V = np.asarray(V, dtype=np.float64)
    residual = V - np.asarray(Q) @ np.asarray(R)
    denom = np.linalg.norm(V, ord="fro")
    return float(np.linalg.norm(residual, ord="fro") / denom) if denom else 0.0


def elementwise_error(V: np.ndarray, Q: np.ndarray, R: np.ndarray) -> float:
    """Element-wise error ``max |(V - QR)_ij / V_ij|`` over nonzero entries.

    Entries where ``V_ij == 0`` are excluded from the division (they would
    be 0/0 for an exact factorization and infinity otherwise; the paper's
    plot uses the same convention implicitly).
    """
    V = np.asarray(V, dtype=np.float64)
    E = V - np.asarray(Q) @ np.asarray(R)
    mask = V != 0.0
    if not mask.any():
        return 0.0
    return float(np.abs(E[mask] / V[mask]).max())

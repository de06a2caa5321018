"""Krylov basis bookkeeping: change-of-basis matrices and Ritz values.

A block of MPK output satisfies the *Krylov relation*

.. math:: A\\,[\\,q_j, w_1, \\ldots, w_{s-1}\\,] = [\\,q_j, w_1, \\ldots, w_s\\,]\\,B

with ``B`` the ``(s+1) x s`` change-of-basis matrix determined by the shift
operations:

* monomial (``none``): ``B`` has ones on the subdiagonal only;
* real shift θ:         ``B[k, k] = θ``, ``B[k+1, k] = 1``;
* complex pair (θ, θ̄) in real arithmetic (Hoemmen §7.3.2):
  step 1 like a real shift with Re θ; step 2 additionally has
  ``B[k-1, k] = -(Im θ)^2`` since
  ``A v_k = v_{k+1} + Re θ · v_k - (Im θ)^2 · v_{k-1}``.

CA-GMRES recovers the true Hessenberg matrix from these blocks plus the
orthogonalization coefficients (see :mod:`repro.core.ca_gmres`).
"""

from __future__ import annotations

import numpy as np

from ..mpk.shifts import (  # re-exported for convenience
    ShiftOp,
    leja_order,
    modified_leja_order,
    monomial_shift_ops,
    newton_shift_ops,
)

__all__ = [
    "ShiftOp",
    "leja_order",
    "modified_leja_order",
    "monomial_shift_ops",
    "newton_shift_ops",
    "build_change_of_basis",
    "ritz_values",
]


def build_change_of_basis(ops: list[ShiftOp]) -> np.ndarray:
    """The ``(s+1) x s`` change-of-basis matrix for a shift sequence."""
    s = len(ops)
    if s < 1:
        raise ValueError("need at least one shift operation")
    B = np.zeros((s + 1, s), dtype=np.float64)
    for k, op in enumerate(ops):
        B[k + 1, k] = 1.0
        if op.kind in ("real", "complex_first", "complex_second"):
            B[k, k] = op.re
        if op.kind == "complex_second":
            if k == 0:
                raise ValueError("complex_second cannot be the first operation")
            B[k - 1, k] = -(op.im**2)
    return B


def ritz_values(H: np.ndarray) -> np.ndarray:
    """Eigenvalues of a (square) Arnoldi Hessenberg matrix.

    These approximate extreme eigenvalues of ``A`` and provide the Newton
    shifts of CA-GMRES [17].
    """
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"H must be square, got {H.shape}")
    if H.shape[0] == 0:
        return np.empty(0, dtype=np.complex128)
    return np.linalg.eigvals(H)

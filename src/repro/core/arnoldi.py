"""Host-side Arnoldi process.

A small sequential Arnoldi: the Newton shifts of CA-GMRES
(:meth:`~repro.serve.plan.HostPlan.newton_shifts`), the Fig. 12 θ1/θ2
estimates, and tests.  (The solvers build their basis on the devices; this
runs entirely on the host.)
"""

from __future__ import annotations

import numpy as np

from ..sparse.csr import CsrMatrix

__all__ = ["host_arnoldi", "host_ritz_values"]


def host_arnoldi(
    matrix: CsrMatrix,
    m: int,
    v0: np.ndarray | None = None,
    seed: int = 7,
) -> tuple[np.ndarray, np.ndarray]:
    """Run ``m`` Arnoldi steps with modified Gram-Schmidt on the host.

    Parameters
    ----------
    matrix
        Square sparse matrix.
    m
        Requested steps (capped at ``n``); stops early on an invariant
        subspace.
    v0
        Starting vector (random with ``seed`` when omitted).

    Returns
    -------
    (Q, H)
        ``Q`` is ``n x (k+1)`` with orthonormal columns and ``H`` the
        ``(k+1) x k`` upper Hessenberg matrix, ``k <= m`` the completed
        steps; ``A Q[:, :k] = Q H`` up to round-off.  On early termination
        the returned ``H`` is ``k x k`` (square) and ``Q`` is ``n x k``.
    """
    n = matrix.n_rows
    if matrix.n_rows != matrix.n_cols:
        raise ValueError("host_arnoldi requires a square matrix")
    if n < 2:
        raise ValueError("matrix too small")
    if m < 1:
        raise ValueError("m must be >= 1")
    k = min(m, n)
    if v0 is None:
        v0 = np.random.default_rng(seed).standard_normal(n)
    else:
        v0 = np.asarray(v0, dtype=np.float64)
        if v0.shape != (n,):
            raise ValueError(f"v0 must have shape ({n},)")
    norm0 = np.linalg.norm(v0)
    if norm0 == 0.0:
        raise ValueError("starting vector is zero")
    # Column-major, so each basis vector the MGS loop walks is contiguous.
    Q = np.zeros((n, k + 1), order="F")
    H = np.zeros((k + 1, k))
    Q[:, 0] = v0 / norm0
    for j in range(k):
        w = matrix.matvec(Q[:, j])
        for i in range(j + 1):
            H[i, j] = Q[:, i] @ w
            w -= H[i, j] * Q[:, i]
        H[j + 1, j] = np.linalg.norm(w)
        if H[j + 1, j] < 1e-12 * max(np.abs(H[: j + 2, j]).max(), 1.0):
            # Invariant subspace: the square Hessenberg is exact.
            return Q[:, : j + 1], H[: j + 1, : j + 1]
        Q[:, j + 1] = w / H[j + 1, j]
    return Q, H


def host_ritz_values(matrix: CsrMatrix, m: int, seed: int = 7) -> np.ndarray:
    """Ritz values (eigenvalues of the square Hessenberg) of an m-step run."""
    _, H = host_arnoldi(matrix, m, seed=seed)
    k = H.shape[1]
    return np.linalg.eigvals(H[:k, :k])

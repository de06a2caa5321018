"""Singular Value QR TSQR (Section V-D).

Like CholQR but replaces the Cholesky factorization of the Gram matrix with
an SVD-based construction that survives (numerically) rank-deficient panels:

1. ``B = V^T V`` (BLAS-3 Gram + host reduction, as CholQR);
2. scale ``B_s = D B D`` with ``D = diag(b_ii)^{-1/2}`` — the paper observes
   this scaling resolves SVQR's element-wise error problem [20];
3. eigendecompose ``B_s = U S U^T`` (symmetric SVD), clamp tiny singular
   values, QR-factor ``S^{1/2} U^T = Q_s R_s``, and set ``R = R_s D^{-1}``
   so that ``R^T R = B``;
4. apply ``V := V R^{-1}`` with a device TRSM.

Same 2 communication phases and BLAS-3 profile as CholQR (Fig. 10);
the error is still ``O(eps * kappa^2)``.
"""

from __future__ import annotations

import numpy as np

from ..gpu import blas
from ..gpu.collective import Broadcast, Reduce, run_alone
from ..gpu.context import MultiGpuContext
from ..gpu.device import DeviceArray
from .errors import OrthogonalizationError

__all__ = ["tsqr_svqr", "svqr_program"]


def tsqr_svqr(
    ctx: MultiGpuContext,
    panels: list[DeviceArray],
    variant: str = "batched",
    scale_gram: bool = True,
    clamp: float = 1e-15,
) -> np.ndarray:
    """In-place SVQR orthogonalization of a distributed tall-skinny panel.

    Parameters
    ----------
    scale_gram
        Apply the diagonal scaling of [20] before the SVD (the paper's fix
        for SVQR's element-wise errors); on by default.
    clamp
        Singular values below ``clamp * sigma_max`` are raised to that
        threshold so the triangular solve stays finite on numerically
        rank-deficient panels (this is what lets SVQR survive where
        CholQR breaks down).

    Returns the ``k x k`` upper-triangular R (host array).
    """
    return run_alone(ctx, svqr_program(ctx, panels, variant, scale_gram, clamp))


def svqr_program(ctx, panels, variant="batched", scale_gram=True, clamp=1e-15):
    """:func:`tsqr_svqr` as a collective program (see
    :mod:`repro.gpu.collective`)."""
    k_cols = panels[0].data.shape[1]
    partials = [blas.gemm_tn(p, p, variant=variant) for p in panels]
    B = yield Reduce(partials)
    diag = np.diag(B).copy()
    if np.any(diag <= 0.0):
        raise OrthogonalizationError(
            "SVQR: a panel column has non-positive squared norm"
        )
    if scale_gram:
        d = 1.0 / np.sqrt(diag)
        B_s = B * np.outer(d, d)
    else:
        d = np.ones(k_cols)
        B_s = B
    ctx.host.charge_small_dense("svd", k_cols)
    # Symmetric eigendecomposition == SVD for the SPD(ish) Gram matrix.
    eigvals, U = np.linalg.eigh(B_s)
    sigma_max = float(eigvals.max())
    if sigma_max <= 0.0:
        raise OrthogonalizationError("SVQR: Gram matrix has no positive spectrum")
    sigma = np.maximum(eigvals, clamp * sigma_max)
    ctx.host.charge_small_dense("qr", k_cols)
    # R_s^T R_s = B_s with R_s upper triangular via QR of S^(1/2) U^T.
    _, R_s = np.linalg.qr(np.sqrt(sigma)[:, None] * U.T)
    # Normalize QR sign convention: positive diagonal.
    signs = np.sign(np.diag(R_s))
    signs[signs == 0] = 1.0
    R_s = signs[:, None] * R_s
    R = R_s / d[None, :]
    for b, p in zip((yield Broadcast(R)), panels):
        blas.trsm_right(p, b.data)
    return R

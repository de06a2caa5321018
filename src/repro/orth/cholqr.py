"""Cholesky QR TSQR (Section V-C, Fig. 9 bottom-left).

Three steps: (1) form the Gram matrix ``B = V^T V`` with one BLAS-3
tall-skinny DGEMM per GPU plus a host reduction; (2) Cholesky-factor
``R^T R = B`` on the CPU; (3) apply ``V := V R^{-1}`` with a device TRSM.

Only **2** GPU-CPU communication phases per panel (Fig. 10) and all device
flops are BLAS-3 — the fastest variant by far — but the Gram matrix squares
the panel's condition number (error ``O(eps * kappa^2)``), and the Cholesky
factorization fails outright when ``kappa(V)^2`` reaches ``1/eps``
(:class:`~repro.orth.errors.CholeskyBreakdown`).
"""

from __future__ import annotations

import numpy as np

from ..gpu import blas
from ..gpu.collective import Broadcast, Reduce, run_alone
from ..gpu.context import MultiGpuContext
from ..gpu.device import DeviceArray
from .errors import CholeskyBreakdown

__all__ = ["tsqr_cholqr", "cholqr_program"]


def tsqr_cholqr(
    ctx: MultiGpuContext,
    panels: list[DeviceArray],
    variant: str = "batched",
) -> np.ndarray:
    """In-place CholQR orthogonalization of a distributed tall-skinny panel.

    ``variant`` selects the tall-skinny DGEMM implementation — ``"batched"``
    is the paper's batched-DGEMM kernel, ``"cublas"`` the stock one.

    Returns the ``k x k`` upper-triangular R (host array).

    Raises
    ------
    CholeskyBreakdown
        If the Gram matrix is not numerically positive definite.
    """
    return run_alone(ctx, cholqr_program(ctx, panels, variant))


def cholqr_program(ctx, panels, variant="batched"):
    """:func:`tsqr_cholqr` as a collective program (see
    :mod:`repro.gpu.collective`)."""
    k_cols = panels[0].data.shape[1]
    partials = [blas.gemm_tn(p, p, variant=variant) for p in panels]
    B = yield Reduce(partials)
    ctx.host.charge_small_dense("chol", k_cols)
    try:
        L = np.linalg.cholesky(B)
    except np.linalg.LinAlgError as exc:
        raise CholeskyBreakdown(
            f"Cholesky of the {k_cols}x{k_cols} Gram matrix failed "
            f"(panel condition number too large): {exc}"
        ) from exc
    R = L.T.copy()
    for b, p in zip((yield Broadcast(R)), panels):
        blas.trsm_right(p, b.data)
    return R

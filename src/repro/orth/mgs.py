"""Modified Gram-Schmidt TSQR (Section V-A, Fig. 9 top-left).

Orthogonalizes each column against the previous columns one at a time.
Numerically the most stable Gram-Schmidt variant (error ``O(eps * kappa)``)
but communication-bound: every dot product is a global reduction, for a
total of ``(s+1)(s+2)`` GPU-CPU communication phases per panel (Fig. 10),
and all device work is BLAS-1.
"""

from __future__ import annotations

import numpy as np

from ..gpu import blas
from ..gpu.collective import Broadcast, Reduce, run_alone
from ..gpu.context import MultiGpuContext
from ..gpu.device import DeviceArray
from .errors import OrthogonalizationError

__all__ = ["tsqr_mgs", "mgs_program"]


def tsqr_mgs(
    ctx: MultiGpuContext,
    panels: list[DeviceArray],
    variant: str = "cublas",
) -> np.ndarray:
    """In-place MGS orthogonalization of a distributed tall-skinny panel.

    Parameters
    ----------
    ctx
        Execution context.
    panels
        Per-device ``(n_d, k)`` block rows of the panel (overwritten by Q).
    variant
        Device BLAS-1 implementation (``"cublas"`` per the paper).

    Returns
    -------
    R
        The ``k x k`` upper-triangular factor (host array).
    """
    return run_alone(ctx, mgs_program(ctx, panels, variant))


def mgs_program(ctx, panels, variant="cublas"):
    """:func:`tsqr_mgs` as a collective program (see
    :mod:`repro.gpu.collective`)."""
    k_cols = panels[0].data.shape[1]
    R = np.zeros((k_cols, k_cols), dtype=np.float64)
    for k in range(k_cols):
        col_k = [p.view((slice(None), k)) for p in panels]
        for ell in range(k):
            col_l = [p.view((slice(None), ell)) for p in panels]
            partials = [
                blas.dot(cl, ck, variant=variant) for cl, ck in zip(col_l, col_k)
            ]
            r = float((yield Reduce(partials))[0])
            R[ell, k] = r
            for b, (cl, ck) in zip((yield Broadcast(np.array([r]))), zip(col_l, col_k)):
                blas.axpy(-float(b.data[0]), cl, ck, variant=variant)
        partials = [blas.nrm2(ck, variant=variant) for ck in col_k]
        norm_sq = float((yield Reduce(partials))[0])
        norm = float(np.sqrt(norm_sq))
        if norm == 0.0:
            raise OrthogonalizationError(
                f"MGS breakdown: column {k} vanished after projection"
            )
        R[k, k] = norm
        for b, ck in zip((yield Broadcast(np.array([norm]))), col_k):
            blas.scal(1.0 / float(b.data[0]), ck, variant=variant)
    return R

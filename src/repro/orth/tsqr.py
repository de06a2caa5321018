"""TSQR dispatcher and reorthogonalization wrapper.

``tsqr(ctx, panels, method)`` routes to one of the five variants; the
``reorth`` count implements the paper's "2x" rows (run the factorization
twice, composing the R factors: ``V = Q2 (R2 R1)``).
"""

from __future__ import annotations

import numpy as np

from ..gpu.context import MultiGpuContext
from ..gpu.device import DeviceArray
from .caqr import tsqr_caqr
from .cgs import tsqr_cgs
from .cholqr import tsqr_cholqr
from .errors import NonFinitePanelError
from .mgs import tsqr_mgs
from .svqr import tsqr_svqr

__all__ = ["tsqr", "TSQR_METHODS"]

TSQR_METHODS = {
    "mgs": tsqr_mgs,
    "cgs": tsqr_cgs,
    "cholqr": tsqr_cholqr,
    "svqr": tsqr_svqr,
    "caqr": tsqr_caqr,
}

_DEFAULT_VARIANTS = {
    "mgs": "cublas",
    "cgs": "magma",
    "cholqr": "batched",
    "svqr": "batched",
    "caqr": "magma",
}

# The kernel that dominates each method's device time (for autotuning).
_PRIMARY_KERNEL = {
    "mgs": "dot",
    "cgs": "gemv_t",
    "cholqr": "gemm_tn",
    "svqr": "gemm_tn",
    "caqr": "qr_panel",
}


def _resolve_auto_variant(ctx, method: str, n_rows: int, k_cols: int) -> str:
    """Pick the dominant kernel's fastest variant for this panel shape.

    Model-level autotuning (:meth:`repro.perf.model.PerformanceModel.
    best_variant`) — the paper's footnote 7/8 direction ("the potential of
    using an auto-tuner").
    """
    op = _PRIMARY_KERNEL[method]
    local_n = max(n_rows // ctx.n_gpus, 1)
    if op in ("gemm_tn",):
        shape = dict(n=local_n, k=k_cols, j=k_cols)
    elif op in ("gemv_t", "qr_panel"):
        shape = dict(n=local_n, k=k_cols)
    else:
        shape = dict(n=local_n)
    try:
        return ctx.perf.best_variant(op, **shape)
    except KeyError:
        return _DEFAULT_VARIANTS[method]


def tsqr(
    ctx: MultiGpuContext,
    panels: list[DeviceArray],
    method: str = "cholqr",
    variant: str | None = None,
    reorth: int = 1,
) -> np.ndarray:
    """Orthogonalize a distributed tall-skinny panel in place.

    Parameters
    ----------
    ctx
        Execution context.
    panels
        Per-device block rows of the panel; overwritten with Q.
    method
        One of ``mgs``, ``cgs``, ``cholqr``, ``svqr``, ``caqr``.
    variant
        Device kernel implementation; defaults to the paper's optimized
        choice for each method.  ``"auto"`` picks the dominant kernel's
        fastest variant at this panel shape (``ctx.perf.best_variant``).
    reorth
        Number of factorization passes (1 = single, 2 = the paper's "2x").

    Returns
    -------
    R
        Composed upper-triangular factor such that ``V_original = Q R``.

    Raises
    ------
    NonFinitePanelError
        When the computed R factor contains NaN/Inf (a poisoned or
        overflowing input panel).  The check inspects only the small
        host-side R — an uncosted guard that leaves the simulated timeline
        untouched.
    """
    try:
        kernel = TSQR_METHODS[method]
    except KeyError:
        raise ValueError(
            f"unknown TSQR method {method!r}; choose from {sorted(TSQR_METHODS)}"
        ) from None
    if reorth < 1:
        raise ValueError("reorth must be >= 1")
    if variant == "auto":
        n_total = sum(p.data.shape[0] for p in panels)
        variant = _resolve_auto_variant(ctx, method, n_total, panels[0].data.shape[1])
    if variant is None:
        variant = _DEFAULT_VARIANTS[method]
    R = kernel(ctx, panels, variant=variant)
    for _ in range(reorth - 1):
        R2 = kernel(ctx, panels, variant=variant)
        R = R2 @ R
    if not np.all(np.isfinite(R)):
        raise NonFinitePanelError(
            f"TSQR ({method}) produced a non-finite R factor"
        )
    return np.triu(R)

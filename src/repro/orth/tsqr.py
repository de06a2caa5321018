"""TSQR dispatcher and reorthogonalization wrapper.

``tsqr(ctx, panels, method)`` routes to one of the five variants; the
``reorth`` count implements the paper's "2x" rows (run the factorization
twice, composing the R factors: ``V = Q2 (R2 R1)``).  Given a batch of
panels, the factorizations run in step as collective programs
(:mod:`repro.gpu.collective`), sharing their messages.
"""

from __future__ import annotations

import numpy as np

from ..gpu.collective import run_alone, run_together
from ..gpu.context import MultiGpuContext
from ..gpu.device import DeviceArray
from .caqr import tsqr_caqr
from .cgs import cgs_program, tsqr_cgs
from .cholqr import cholqr_program, tsqr_cholqr
from .errors import NonFinitePanelError
from .mgs import mgs_program, tsqr_mgs
from .svqr import svqr_program, tsqr_svqr

__all__ = ["tsqr", "TSQR_METHODS"]

TSQR_METHODS = {
    "mgs": tsqr_mgs,
    "cgs": tsqr_cgs,
    "cholqr": tsqr_cholqr,
    "svqr": tsqr_svqr,
    "caqr": tsqr_caqr,
}

# Collective programs of the methods whose reductions a batch shares.
# CAQR gathers and scatters per device (no host sum), so it runs whole,
# member by member.
_PROGRAMS = {
    "mgs": mgs_program,
    "cgs": cgs_program,
    "cholqr": cholqr_program,
    "svqr": svqr_program,
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
    tags: list[int] | None = None,
):
    """Orthogonalize a distributed tall-skinny panel in place.

    Parameters
    ----------
    ctx
        Execution context.
    panels
        Per-device block rows of the panel; overwritten with Q.  Also a
        sequence of ``k`` members' panels of one shape (a batch,
        ``list[list[DeviceArray]]``): their factorizations then run in
        step (:func:`~repro.gpu.collective.run_together`), each reduction
        and broadcast one message per device for the whole batch.
    method
        One of ``mgs``, ``cgs``, ``cholqr``, ``svqr``, ``caqr``.
    variant
        Device kernel implementation; defaults to the paper's optimized
        choice for each method.  ``"auto"`` picks the dominant kernel's
        fastest variant at this panel shape (``ctx.perf.best_variant``).
    reorth
        Number of factorization passes (1 = single, 2 = the paper's "2x").
    tags
        The batch members' trace request tags.

    Returns
    -------
    R
        Composed upper-triangular factor such that ``V_original = Q R``.
        For a batch, a list of ``k`` outcomes: a member's R, or the
        exception its factorization raised.

    Raises
    ------
    NonFinitePanelError
        When the computed R factor contains NaN/Inf (a poisoned or
        overflowing input panel).  The check inspects only the small
        host-side R — an uncosted guard that leaves the simulated timeline
        untouched.
    """
    if method not in TSQR_METHODS:
        raise ValueError(
            f"unknown TSQR method {method!r}; choose from {sorted(TSQR_METHODS)}"
        )
    if reorth < 1:
        raise ValueError("reorth must be >= 1")
    batch = not isinstance(panels[0], DeviceArray)
    first = panels[0] if batch else panels
    if variant == "auto":
        n_total = sum(p.data.shape[0] for p in first)
        variant = _resolve_auto_variant(ctx, method, n_total, first[0].data.shape[1])
    if variant is None:
        variant = _DEFAULT_VARIANTS[method]
    if not batch:
        return run_alone(ctx, _program(ctx, panels, method, variant, reorth))
    return run_together(
        ctx, [_program(ctx, p, method, variant, reorth) for p in panels], tags
    )


def _program(ctx, panels, method, variant, reorth):
    """One member's factorization (``reorth`` passes) as a collective program."""
    program = _PROGRAMS.get(method)
    R = None
    for _ in range(reorth):
        if program is None:
            R_pass = TSQR_METHODS[method](ctx, panels, variant=variant)
        else:
            R_pass = yield from program(ctx, panels, variant)
        R = R_pass if R is None else R_pass @ R
    if not np.all(np.isfinite(R)):
        raise NonFinitePanelError(
            f"TSQR ({method}) produced a non-finite R factor"
        )
    return np.triu(R)

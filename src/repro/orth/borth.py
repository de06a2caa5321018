"""Block orthogonalization (*BOrth*) of a new panel against the basis.

After MPK produces the ``s+1`` candidate vectors, BOrth projects them
against the ``j`` previously orthonormalized basis vectors (Section V):

* **CGS-based** (the paper's default for the CA-GMRES tables): a single
  block projection ``V := V - Q (Q^T V)`` — one tall-skinny DGEMM pair and
  exactly 2 communication phases regardless of ``j``;
* **MGS-based**: one previous vector at a time,
  ``V := V - q_l (q_l^T V)`` — ``j`` reduction phases but better stability.

Both return the ``j x (s+1)`` projection coefficient block, which CA-GMRES
stores into the global triangular factor R̲.
"""

from __future__ import annotations

import numpy as np

from ..gpu import blas
from ..gpu.collective import Broadcast, Reduce, run_alone, run_together
from ..gpu.context import MultiGpuContext
from ..gpu.device import DeviceArray

__all__ = ["borth", "BORTH_METHODS", "borth_cgs", "borth_mgs"]


def _cgs_program(q_panels, v_panels, variant):
    j = q_panels[0].data.shape[1]
    k = v_panels[0].data.shape[1]
    partials = [
        blas.gemm_tn(q, v, variant=variant) for q, v in zip(q_panels, v_panels)
    ]
    C = yield Reduce(partials)
    for b, (q, v) in zip((yield Broadcast(C)), zip(q_panels, v_panels)):
        blas.gemm_nn_update(q, b, v, variant=variant)
    assert C.shape == (j, k)
    return C


def _mgs_program(q_panels, v_panels, variant):
    j = q_panels[0].data.shape[1]
    k = v_panels[0].data.shape[1]
    C = np.zeros((j, k), dtype=np.float64)
    for ell in range(j):
        cols = [q.view((slice(None), ell)) for q in q_panels]
        partials = [
            blas.gemv_t(v, ql, variant=variant) for v, ql in zip(v_panels, cols)
        ]
        w = yield Reduce(partials)
        C[ell, :] = w
        for b, (ql, v) in zip((yield Broadcast(w)), zip(cols, v_panels)):
            blas.ger_update(ql, b, v, variant=variant)
    return C


def borth_cgs(
    ctx: MultiGpuContext,
    q_panels: list[DeviceArray],
    v_panels: list[DeviceArray],
    variant: str = "batched",
) -> np.ndarray:
    """Block CGS projection: ``V -= Q (Q^T V)``; returns ``C = Q^T V``."""
    return run_alone(ctx, _cgs_program(q_panels, v_panels, variant))


def borth_mgs(
    ctx: MultiGpuContext,
    q_panels: list[DeviceArray],
    v_panels: list[DeviceArray],
    variant: str = "magma",
) -> np.ndarray:
    """Column-wise MGS projection against each previous basis vector.

    For each previous vector ``q_l``: compute ``w = V^T q_l`` (tall-skinny
    DGEMV), reduce, broadcast, and apply the rank-1 update
    ``V -= q_l w^T``.  Communicates ``j`` times (one phase per vector).
    """
    return run_alone(ctx, _mgs_program(q_panels, v_panels, variant))


BORTH_METHODS = {"cgs": borth_cgs, "mgs": borth_mgs}
_PROGRAMS = {"cgs": _cgs_program, "mgs": _mgs_program}


def borth(
    ctx: MultiGpuContext,
    q_panels: list[DeviceArray],
    v_panels: list[DeviceArray],
    method: str = "cgs",
    variant: str | None = None,
    tags: list[int] | None = None,
):
    """Project ``V`` against ``Q`` in place; returns the coefficient block.

    ``q_panels`` and ``v_panels`` may also be sequences of ``k`` members'
    panels (a batch, ``list[list[DeviceArray]]``).  Their projections then
    run in step (:func:`~repro.gpu.collective.run_together`): each
    reduction and broadcast is one message per device for the whole
    batch, and the result is a list of ``k`` outcomes, a member's
    coefficient block or the exception its projection raised.  ``tags``
    are the members' trace request tags.
    """
    try:
        program = _PROGRAMS[method]
    except KeyError:
        raise ValueError(
            f"unknown BOrth method {method!r}; choose from {sorted(BORTH_METHODS)}"
        ) from None
    if variant is None:
        variant = "batched" if method == "cgs" else "magma"
    if isinstance(q_panels[0], DeviceArray):
        return run_alone(ctx, program(q_panels, v_panels, variant))
    return run_together(
        ctx, [program(q, v, variant) for q, v in zip(q_panels, v_panels)], tags
    )

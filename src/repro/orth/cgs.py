"""Classical Gram-Schmidt TSQR (Section V-B, Fig. 9 top-right).

Projects each column against *all* previous columns at once with a
tall-skinny DGEMV, aggregating the ``k-1`` reductions of MGS into one.
The normalization is fused into the same reduction: the device computes
``[V_{1:k-1}^T v_k ; v_k^T v_k]`` in one pass, and the CPU derives the
post-projection norm from the Pythagorean identity

    ||v - V r||^2 = ||v||^2 - ||r||^2        (V orthonormal, r = V^T v),

so each column costs exactly one reduction + one broadcast — the
``2(s+1)`` GPU-CPU communications of Fig. 10.  When cancellation makes the
identity unreliable (||r|| ~ ||v||, i.e. the column nearly lies in the
span of the previous ones) the routine falls back to an explicit second
norm reduction for that column.

The price of CGS is stability: the orthogonality error grows like
``O(eps * kappa^s)``, which is why the paper's CA-GMRES tables show CGS
needing reorthogonalization ("2x CGS") where CholQR does not.
"""

from __future__ import annotations

import numpy as np

from ..gpu import blas
from ..gpu.collective import Broadcast, Reduce, run_alone
from ..gpu.context import MultiGpuContext
from ..gpu.device import DeviceArray
from .errors import OrthogonalizationError

__all__ = ["tsqr_cgs", "cgs_program"]

# ||v_new||^2 / ||v||^2 below this threshold means the Pythagorean norm has
# lost too many digits to cancellation; recompute the norm explicitly.
_PYTHAGOREAN_SAFE = 1e-8


def tsqr_cgs(
    ctx: MultiGpuContext,
    panels: list[DeviceArray],
    variant: str = "magma",
) -> np.ndarray:
    """In-place CGS orthogonalization of a distributed tall-skinny panel.

    ``variant`` selects the tall-skinny DGEMV implementation — ``"magma"``
    is the paper's optimized one-thread-block-per-column kernel, ``"cublas"``
    the stock (slow) one.

    Returns the ``k x k`` upper-triangular R (host array).
    """
    return run_alone(ctx, cgs_program(ctx, panels, variant))


def cgs_program(ctx, panels, variant="magma"):
    """:func:`tsqr_cgs` as a collective program (see
    :mod:`repro.gpu.collective`)."""
    k_cols = panels[0].data.shape[1]
    R = np.zeros((k_cols, k_cols), dtype=np.float64)
    for k in range(k_cols):
        col_k = [p.view((slice(None), k)) for p in panels]
        if k == 0:
            partials = [blas.nrm2(ck) for ck in col_k]
            norm = float(np.sqrt((yield Reduce(partials))[0]))
            yield from _normalize(col_k, norm, 0, R)
            continue
        prev = [p.view((slice(None), slice(0, k))) for p in panels]
        # Fused reduction: projection coefficients + squared column norm.
        partials = []
        for pv, ck in zip(prev, col_k):
            proj = blas.gemv_t(pv, ck, variant=variant)
            sq = blas.nrm2(ck)
            partials.append(
                DeviceArray(np.concatenate([proj.data, sq.data]), proj.device)
            )
        reduced = yield Reduce(partials)
        r = reduced[:k]
        norm_sq = float(reduced[k])
        R[:k, k] = r
        new_norm_sq = norm_sq - float(r @ r)
        if norm_sq > 0.0 and new_norm_sq > _PYTHAGOREAN_SAFE * norm_sq:
            # Single broadcast carries [r ; norm]; update + scale on device.
            norm = float(np.sqrt(new_norm_sq))
            payload = np.concatenate([r, [norm]])
            for b, (pv, ck) in zip((yield Broadcast(payload)), zip(prev, col_k)):
                blas.gemv_n_update(pv, b.view(slice(0, k)), ck, variant=variant)
                blas.scal(1.0 / float(b.data[k]), ck)
            R[k, k] = norm
        else:
            # Cancellation: apply the update, then recompute the norm.
            for b, (pv, ck) in zip((yield Broadcast(r)), zip(prev, col_k)):
                blas.gemv_n_update(pv, b, ck, variant=variant)
            partials = [blas.nrm2(ck) for ck in col_k]
            norm = float(np.sqrt(max((yield Reduce(partials))[0], 0.0)))
            yield from _normalize(col_k, norm, k, R)
    return R


def _normalize(col_k, norm, k, R):
    if norm == 0.0:
        raise OrthogonalizationError(
            f"CGS breakdown: column {k} vanished after projection"
        )
    R[k, k] = norm
    for b, ck in zip((yield Broadcast(np.array([norm]))), col_k):
        blas.scal(1.0 / float(b.data[0]), ck)

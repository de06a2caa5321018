"""Single-vector Arnoldi orthogonalization for standard GMRES.

Standard GMRES orthogonalizes one new Krylov vector per iteration against
all previous basis vectors (the *Orth* step of Fig. 1).  Supported methods
match the paper's Fig. 3/14 GMRES rows:

* ``mgs`` — one global reduction per previous vector (BLAS-1);
* ``cgs`` — a single tall-skinny DGEMV projection plus a separate norm
  reduction (BLAS-2), the paper's fast GMRES configuration.
"""

from __future__ import annotations

import numpy as np

from ..gpu import blas
from ..gpu.context import MultiGpuContext
from ..gpu.device import DeviceArray
from .errors import OrthogonalizationError

__all__ = ["orthogonalize_vector", "ORTH_METHODS"]

#: The single-vector orthogonalization methods :func:`orthogonalize_vector` runs.
ORTH_METHODS = ("mgs", "cgs")


def orthogonalize_vector(
    ctx: MultiGpuContext,
    q_panels: list[DeviceArray] | None,
    v_cols: list[DeviceArray],
    method: str = "cgs",
) -> np.ndarray:
    """Orthogonalize one distributed vector against the previous basis.

    Parameters
    ----------
    q_panels
        Per-device views of ``Q_{1:j}`` (``None``/0 columns on the first
        iteration).
    v_cols
        Per-device views of the new vector (overwritten with ``q_{j+1}``).
    method
        ``"mgs"`` or ``"cgs"`` (CGS runs MAGMA's tall-skinny DGEMV).

    Returns
    -------
    h
        The new Hessenberg column of length ``j+1``: projection
        coefficients followed by the normalization factor.
    """
    j = q_panels[0].data.shape[1] if q_panels is not None else 0
    h = np.zeros(j + 1, dtype=np.float64)
    if j > 0:
        if method == "cgs":
            partials = [
                blas.gemv_t(q, v, variant="magma")
                for q, v in zip(q_panels, v_cols)
            ]
            r = ctx.allreduce_sum(partials)
            h[:j] = r
            for b, (q, v) in zip(ctx.broadcast(r), zip(q_panels, v_cols)):
                blas.gemv_n_update(q, b, v, variant="magma")
        elif method == "mgs":
            for ell in range(j):
                cols = [q.view((slice(None), ell)) for q in q_panels]
                partials = [
                    blas.dot(ql, v) for ql, v in zip(cols, v_cols)
                ]
                r = float(ctx.allreduce_sum(partials)[0])
                h[ell] = r
                for b, (ql, v) in zip(
                    ctx.broadcast(np.array([r])), zip(cols, v_cols)
                ):
                    blas.axpy(-float(b.data[0]), ql, v)
        else:
            raise ValueError(f"unknown orthogonalization method {method!r}")
    partials = [blas.nrm2(v) for v in v_cols]
    norm = float(np.sqrt(ctx.allreduce_sum(partials)[0]))
    if norm == 0.0:
        raise OrthogonalizationError("Arnoldi breakdown: new vector vanished")
    h[j] = norm
    for b, v in zip(ctx.broadcast(np.array([norm])), v_cols):
        blas.scal(1.0 / float(b.data[0]), v)
    return h

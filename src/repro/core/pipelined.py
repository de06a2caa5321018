"""Pipelined GMRES — the communication-hiding variant of footnote 5.

The paper: "We have also studied a pipelined GMRES [19] to overlap SpMV to
compute v_{j+1} ... with the ... orthogonalization of the previous vector
v_j."  The key enabler is that normalization commutes with the operator:

    A (u / beta) = (A u) / beta,

so the SpMV can start from the *unnormalized* orthogonalized vector while
the norm reduction (a full GPU-CPU-GPU round trip, the dominant latency of
the CGS iteration) is still in flight; the scale is applied to both the
basis vector and the SpMV result once it arrives.  In exact arithmetic the
Krylov basis is identical to standard CGS-GMRES — only the schedule
changes.  The Hessenberg subdiagonal entry ``h_{j+1,j} = beta_{j+1}``
becomes available one iteration late, so the least-squares update (and the
convergence check) lag one iteration.

On the simulator the overlap is expressed through ``d2h(..., ready_at=...)``:
the norm partials are shipped with the clock captured *before* the SpMV was
enqueued, so the reduction and the SpMV genuinely share wall-clock, bus
contention included.

Finding: against this library's default CGS — whose norm is already fused
into the projection reduction — the pipelined schedule saves the
overlapped norm round trip but pays an extra scale broadcast.  The
pipelined rows of the Fig. 14 tables (``benchmarks/results/fig14_*.txt``)
measure it at 0.99-1.04x the speed of CGS-GMRES on one GPU and 1.03-1.13x
on two and three.  The paper's footnote 5 reports no significant
improvement for their pipelined experiments ("we have not seen a
significant performance improvement").
"""

from __future__ import annotations

import numpy as np

from ..gpu import blas
from ..gpu.context import MultiGpuContext
from ..orth.errors import OrthogonalizationError
from ..sparse.csr import CsrMatrix
from .convergence import SolveResult
from .degrade import DegradePolicy
from .gmres import RestartedRun, compute_residual, update_solution
from .lsq import GivensHessenbergSolver
from .resilience import guard_finite

__all__ = ["pipelined_gmres", "PipelinedRun"]


class PipelinedRun(RestartedRun):
    """Pipelined GMRES(m) on the shared restart loop.

    Every argument is documented on :class:`~repro.core.gmres.RestartedRun`.
    """

    name = "pipelined_gmres"

    def cycle(self, offset, restart_index):
        yield from ()  # a pipelined cycle requests no MPK block
        st = self.st
        j_used = _pipelined_cycle(
            self.ctx, st.plan.dmat, st.plan.V, st.x, st.b, self.m, self.target,
            self.history, offset,
        )
        return j_used, 0


def pipelined_gmres(
    matrix: CsrMatrix,
    b: np.ndarray,
    ctx: MultiGpuContext | None = None,
    n_gpus: int = 1,
    ordering: str = "natural",
    m: int = 30,
    tol: float = 1e-4,
    max_restarts: int = 500,
    balance: bool = True,
    degrade: DegradePolicy | None = None,
    deadline: float | None = None,
) -> SolveResult:
    """Solve ``A x = b`` with one-stage pipelined GMRES(m).

    CGS orthogonalization only (with MAGMA's tall-skinny DGEMV) — the
    pipelining targets CGS's norm round trip.  A one-request
    :class:`~repro.serve.session.SolverSession`.

    The parameters are documented on :func:`~repro.core.gmres.gmres` and
    :class:`~repro.core.gmres.RestartedRun`.

    Returns
    -------
    SolveResult
    """
    from ..serve.session import SolverSession

    return SolverSession(
        matrix, solver="pipelined", ctx=ctx, n_gpus=n_gpus, ordering=ordering,
        m=m, tol=tol, max_restarts=max_restarts, balance=balance,
    ).solve(b, degrade=degrade, deadline=deadline)


def _deferred_norm(ctx, cols, start_spmv):
    """Norm of a distributed column, overlapped with ``start_spmv()``.

    Computes the local squared-norm partials, captures their ready times,
    launches the SpMV, and only then completes the reduction — the round
    trip rides under the SpMV.
    """
    partials = [blas.nrm2(c) for c in cols]
    ready = [c.device.clock for c in cols]
    start_spmv()
    total = ctx.allreduce_sum(partials, ready_at=ready)
    return float(np.sqrt(max(float(total[0]), 0.0)))


def _pipelined_cycle(
    ctx, dmat, V, x, b_dist, m, target, history, iter_offset
) -> int:
    """One pipelined restart cycle; returns iterations performed."""
    with ctx.region("spmv"):
        # The residual lands in V[:, 0] *unnormalized* (u_0).
        compute_residual(ctx, dmat, x, b_dist, V)

    solver = None  # constructed once beta_0 is known
    pending_h = None  # projection coefficients awaiting their subdiagonal
    j_used = 0
    for j in range(m):
        u_j = V.column(j)

        def start_spmv(j=j):
            with ctx.region("spmv"):
                dmat.spmv(V, j, V, j + 1)

        with ctx.region("orth"):
            beta_j = _deferred_norm(ctx, u_j, start_spmv)
            guard_finite(ctx, beta_j, "pipelined basis norm")
            if beta_j == 0.0:
                raise OrthogonalizationError("pipelined GMRES: basis vanished")
            # Normalize u_j -> q_j and rescale the in-flight SpMV result
            # (A u_j)/beta_j = A q_j, restoring the standard iterate.
            w = V.column(j + 1)
            for bc, (qc, wc) in zip(
                ctx.broadcast(np.array([beta_j])), zip(u_j, w)
            ):
                scale = 1.0 / float(bc.data[0])
                blas.scal(scale, qc)
                blas.scal(scale, wc)
        if solver is None:
            solver = GivensHessenbergSolver(m, beta_j)
        else:
            # beta_j is h_{j, j-1}: the previous column is now complete.
            column = np.concatenate([pending_h, [beta_j]])
            with ctx.region("lsq"):
                ctx.host.charge_small_dense("lstsq_hessenberg", j)
                estimate = solver.append_column(column)
            history.record_estimate(iter_offset + j, estimate)
            if estimate <= target:
                j_used = j
                break
        with ctx.region("orth"):
            # CGS projection of w against q_0..q_j (norm deferred to next
            # iteration's overlapped reduction).
            prev = V.panel(0, j + 1)
            partials = [
                blas.gemv_t(pv, wc, variant="magma")
                for pv, wc in zip(prev, V.column(j + 1))
            ]
            r = ctx.allreduce_sum(partials)
            guard_finite(ctx, r, "pipelined projection coefficients")
            for bc, (pv, wc) in zip(
                ctx.broadcast(r), zip(prev, V.column(j + 1))
            ):
                blas.gemv_n_update(pv, bc, wc, variant="magma")
        pending_h = r
        j_used = j + 1
    else:
        # Loop ran to m: complete the final column with one last norm.
        with ctx.region("orth"):
            partials = [blas.nrm2(c) for c in V.column(m)]
            beta_m = float(np.sqrt(max(float(ctx.allreduce_sum(partials)[0]), 0.0)))
        if pending_h is not None:
            column = np.concatenate([pending_h, [beta_m]])
            with ctx.region("lsq"):
                ctx.host.charge_small_dense("lstsq_hessenberg", m)
                estimate = solver.append_column(column)
            history.record_estimate(iter_offset + m, estimate)
    with ctx.region("update"):
        y = solver.solve()
        ctx.host.charge_small_dense("trsv", max(y.size, 1))
        update_solution(ctx, V, x, y)
    return j_used

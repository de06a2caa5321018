"""Standard restarted GMRES(m) on multiple (simulated) GPUs — Fig. 1.

Per iteration: one distributed SpMV (with halo exchange) and one
orthogonalization of the new vector against the basis (MGS or CGS, the
configurations of the paper's Fig. 3 / Fig. 14 GMRES rows).  The small
Hessenberg least-squares problem is solved on the CPU with incremental
Givens rotations.

This is the baseline every CA-GMRES speedup in the paper is measured
against.  :class:`RestartedRun` is the restart-loop driver that GMRES,
CA-GMRES and pipelined GMRES share.
"""

from __future__ import annotations

from importlib import import_module
from numbers import Integral, Real
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from ..dist.matrix import DistributedMatrix
from ..dist.multivector import DistMultiVector, DistVector
from ..faults.injector import fault_report
from ..gpu import blas
from ..gpu.context import MultiGpuContext
from ..orth.single import orthogonalize_vector
from ..sparse.csr import CsrMatrix
from .convergence import ConvergenceHistory, SolveResult
from .degrade import DegradationManager, DegradePolicy
from .lsq import GivensHessenbergSolver
from .resilience import guard_finite, run_cycle_resilient

__all__ = [
    "gmres", "GmresRun", "RestartedRun", "BlockRequest", "run_lockstep",
    "run_gmres_cycle", "checked_true_residual",
]


def compute_residual(
    ctx: MultiGpuContext,
    dmat: DistributedMatrix,
    x: DistVector,
    b: DistVector,
    V: DistMultiVector,
) -> float:
    """``V[:, 0] := b - A x``; returns ``||r||_2`` (not yet normalized)."""
    dmat.spmv(x, 0, V, 0)
    r_parts = V.column(0)
    for rp, bp in zip(r_parts, b.parts()):
        blas.scal(-1.0, rp)
        blas.axpy(1.0, bp, rp)
    partials = [blas.nrm2(rp) for rp in r_parts]
    return float(np.sqrt(ctx.allreduce_sum(partials)[0]))


def normalize_first_column(ctx: MultiGpuContext, V: DistMultiVector, beta: float) -> None:
    """``V[:, 0] /= beta`` (broadcast the scale as the paper's code does)."""
    if beta == 0.0:
        raise ZeroDivisionError("cannot normalize a zero residual")
    for bcast, rp in zip(ctx.broadcast(np.array([beta])), V.column(0)):
        blas.scal(1.0 / float(bcast.data[0]), rp)


def update_solution(
    ctx: MultiGpuContext,
    V: DistMultiVector,
    x: DistVector,
    y: np.ndarray,
) -> None:
    """``x += V[:, :len(y)] @ y`` with one broadcast + one GEMV per device."""
    t = y.size
    if t == 0:
        return
    for bcast, (panel, xp) in zip(
        ctx.broadcast(-np.asarray(y, dtype=np.float64)),
        zip(V.panel(0, t), x.parts()),
    ):
        blas.gemv_n_update(panel, bcast, xp)  # x -= V @ (-y)


def gathered_solution(x: DistVector) -> np.ndarray:
    """Read the distributed solution without charging transfers (diagnostic)."""
    out = np.empty(x.n_rows, dtype=np.float64)
    # Over the vector's own parts: a solve aborted mid-rebuild still holds
    # the pre-loss solution while the context roster has already shrunk.
    for d in range(x.partition.n_parts):
        out[x.partition.rows_of(d)] = x.parts()[d].data
    return out


def checked_true_residual(ctx, A_solve, b_solve, x, row_scale) -> tuple[float, float]:
    """Residual norms at the current iterate (uncosted host diagnostic).

    Returns ``(||r_bal||, ||b - A x||)``: the residual ``r_bal = D_r P (b -
    A x)`` of the iterated system and the caller's.  ``row_scale`` is the
    balancing's ``D_r`` (``1.0`` without balancing); the ordering
    permutation ``P``, the column scaling and a folded right preconditioner
    leave the norm unchanged, so dividing ``D_r`` out is all it takes.  A
    non-finite value — a poisoned or overflowing solution update — raises
    for the cycle-redo machinery.
    """
    r = b_solve - A_solve.matvec(gathered_solution(x))
    norms = float(np.linalg.norm(r)), float(np.linalg.norm(r / row_scale))
    guard_finite(ctx, norms, "true residual")
    return norms


def run_gmres_cycle(
    ctx: MultiGpuContext,
    dmat: DistributedMatrix,
    V: DistMultiVector,
    x: DistVector,
    b: DistVector,
    m: int,
    target: float,
    history: ConvergenceHistory,
    orth_method: str = "cgs",
    iteration_offset: int = 0,
) -> int:
    """One GMRES(m) restart cycle (residual through solution update).

    The cycle stops early once the Givens estimate reaches ``target``.
    Returns the cycle's iteration count.
    """
    with ctx.region("spmv"):
        beta = compute_residual(ctx, dmat, x, b, V)
    guard_finite(ctx, beta, "cycle residual norm")
    if beta == 0.0:
        return 0
    with ctx.region("orth"):
        normalize_first_column(ctx, V, beta)
    solver = GivensHessenbergSolver(m, beta)
    j_used = 0
    for j in range(m):
        with ctx.region("spmv"):
            dmat.spmv(V, j, V, j + 1)
        with ctx.region("orth"):
            h = orthogonalize_vector(
                ctx, V.panel(0, j + 1), V.column(j + 1), method=orth_method
            )
        guard_finite(ctx, h, "Hessenberg column")
        with ctx.region("lsq"):
            ctx.host.charge_small_dense("lstsq_hessenberg", j + 1)
            estimate = solver.append_column(h)
        j_used = j + 1
        history.record_estimate(iteration_offset + j_used, estimate)
        if estimate <= target:
            break
    with ctx.region("update"):
        y = solver.solve()
        ctx.host.charge_small_dense("trsv", j_used)
        update_solution(ctx, V, x, y)
    return j_used


class BlockRequest(NamedTuple):
    """A restart cycle's request for one MPK block: generate
    ``V[:, j+1 … j+s]`` from ``V[:, j]`` with ``kernel`` (an
    :class:`~repro.mpk.MatrixPowersKernel`) and the shift ``ops``."""

    kernel: object
    V: DistMultiVector
    j: int
    ops: tuple


def _finite_input(request: BlockRequest) -> bool:
    """Uncosted host check that a block's input column is finite."""
    return all(np.isfinite(part.data).all() for part in request.V.column(request.j))


def run_lockstep(runs: list["RestartedRun"]) -> list[int]:
    """Run ``runs`` (on one context) to completion, sharing MPK calls.

    This is the one loop that advances a run; a single solve is a batch of
    one, ``run_lockstep([run])``, whose requests are fulfilled one at a
    time in the order its cycles make them.  Every pending run advances to
    its next block request.  The requests at the lowest block start ``j``
    are then fulfilled: those naming the same kernel and shift operations
    together, with one fused
    :meth:`~repro.mpk.MatrixPowersKernel.run` (one halo exchange and one
    step launch per step for all of them), and their runs resume with the
    outcome.  Runs further along their cycle wait, so a run that left a
    cycle early, and so restarts at ``j = 0``, catches up with the rest
    instead of running out of step with them for good.  A run whose block
    input is not finite is fulfilled alone: the failure of its exchange
    stays its own.  A run that requests no block (GMRES, pipelined GMRES,
    ``use_mpk=False``) runs to its end when it is first advanced.

    The arithmetic of each run is that of a run of its own, so its
    solution, history and fault report are too; only the shared timeline
    differs.  Returns how many runs each MPK call carried.
    """
    ready = {run: None for run in runs if not run.finished}
    asked: dict = {}
    sizes: list[int] = []
    while ready:
        for run in runs:
            if run in ready:
                request = run._resume(ready.pop(run))
                while request is None and not run.finished:
                    request = run._resume()
                if request is not None:
                    asked[run] = request
        if not asked:
            break
        j = min(request.j for request in asked.values())
        groups: dict = {}
        for run in runs:
            request = asked.get(run)
            if request is not None and request.j == j:
                key = (
                    (request.kernel, tuple(request.ops))
                    if _finite_input(request) else run
                )
                groups.setdefault(key, []).append(run)
        for members in groups.values():
            requests = [asked.pop(run) for run in members]
            ctx = members[0].ctx
            ctx.trace.request = members[0].request
            error = None
            try:
                with ctx.region("mpk"):
                    requests[0].kernel.run(
                        [request.V for request in requests], j, requests[0].ops
                    )
            except Exception as exc:
                error = exc
            ready.update(dict.fromkeys(members, error))
            sizes.append(len(members))
    return sizes


class RestartedRun:
    """One restarted Krylov solve over a structural plan, as a resumable object.

    This is the restart loop the paper's GMRES (Fig. 1) and CA-GMRES
    (Fig. 2) share; :class:`GmresRun`,
    :class:`~repro.core.ca_gmres.CaGmresRun` and the pipelined variant
    (:mod:`repro.core.pipelined`) differ only in how one restart cycle
    builds its basis, which they supply as :meth:`cycle`.  The structural
    setup — ordering, balancing, preconditioner folding, partition,
    distributed matrix, basis, MPK dependency closures — is the given
    ``plan``, which a :class:`~repro.serve.session.SolverSession` builds
    (the solver functions are one-request sessions).  The run owns the
    rest: the right-hand side and solution vectors, their degraded-mode
    rebuild, the deadline / cycle-redo loop, and the
    :class:`~repro.core.convergence.SolveResult`.

    A cycle is a generator (:meth:`cycle`): where CA-GMRES needs an MPK
    block it yields a :class:`BlockRequest` and waits.  The run does not
    advance itself: :func:`run_lockstep` drives it, fulfilling the
    matching requests of every run it is given with one MPK call, and a
    single solve is a batch of one.  :meth:`result` drives a run that is
    not finished yet that way before building its result.

    Parameters
    ----------
    b
        Right-hand side (host array) in the matrix's original ordering.
    plan
        :class:`~repro.serve.plan.StructuralPlan` for the context's active
        roster.  The run reads the context, the restart length ``m``, the
        operator, the balancing and the preconditioner from it.
    tol
        Relative residual tolerance (the paper's four-orders-of-magnitude
        criterion is ``1e-4``).  ``converged`` means ``||b - A x|| <= tol
        ||b||`` for the system the caller passed.  The loop measures that
        residual before the first cycle and at every restart boundary, and
        nothing else decides convergence.
    max_restarts
        Cycle limit.
    x0
        Initial guess in the original ordering (zero when omitted).
    degrade
        Optional :class:`~repro.core.degrade.DegradePolicy`: a device
        dropout mid-solve is absorbed by repartitioning over the
        survivors and resuming instead of aborting (see
        :mod:`repro.core.degrade`).
    deadline
        Optional simulated-time budget in seconds; the solve stops at the
        first restart boundary past it (``details["degradation"]``
        records the trip).

    Every restart cycle starts with a cycle mark in the context's trace,
    so ``ctx.trace.fold().cycles`` holds each cycle's simulated window;
    faults, recoveries, terminal failures and degradations are events on
    the trace's fault lane.  The marks and events a run records carry its
    :attr:`request` tag, and ``details["faults"]`` and
    ``details["degradation"]`` are built from the run's own events only.
    """

    #: Solver name, the ``solver`` label of a session's metrics.
    name = "gmres"

    #: Index in a ``solve_many`` batch; tags the run's trace records and
    #: picks the plan basis a CA-GMRES cycle works in.
    request = 0

    def __init__(
        self,
        b: np.ndarray,
        plan,
        tol: float = 1e-4,
        max_restarts: int = 500,
        x0: np.ndarray | None = None,
        degrade: DegradePolicy | None = None,
        deadline: float | None = None,
    ):
        self.ctx = ctx = plan.ctx
        host = plan.host
        n = plan.operator.n_rows
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (n,):
            raise ValueError(f"b must have shape ({n},), got {b.shape}")
        if b.size and not np.all(np.isfinite(b)):
            raise ValueError("b contains non-finite entries")
        if plan.m > n:
            raise ValueError(f"restart length m={plan.m} exceeds problem size {n}")
        partition = plan.partition
        if partition.n_parts != ctx.n_gpus:
            raise ValueError("plan partition does not match the active roster")
        self.m = plan.m
        self.tol = float(tol)
        self.max_restarts = int(max_restarts)
        self.preconditioner = preconditioner = plan.preconditioner
        self.bal = bal = plan.bal
        self.A_solve = A_solve = plan.operator
        b = host.to_solve_order(b)
        self.b_solve = b_solve = bal.scale_rhs(b) if bal is not None else b
        self.row_scale = row_scale = bal.row_scale if bal is not None else 1.0

        if x0 is not None:
            if preconditioner is not None:
                raise ValueError("x0 with a preconditioner is not supported")
            x0 = np.asarray(x0, dtype=np.float64)
            if x0.shape != (n,) or not np.all(np.isfinite(x0)):
                raise ValueError(f"x0 must be a finite vector of shape ({n},)")
            x0 = host.to_solve_order(x0)
            x0 = x0 / bal.col_scale if bal is not None else x0

        # Mutable solver state: the cycles and the degraded-mode rebuild
        # both go through it, so a repartition swaps the plan (and with it
        # every distributed object) at once and replayed cycles pick up the
        # rebuilt versions.  Its setup transfers precede the reset below,
        # which erases their time, so they draw no faults either.
        armed, ctx.faults.active = ctx.faults.active, False
        try:
            self.st = st = SimpleNamespace(
                plan=plan,
                x=DistVector(ctx, partition),
                b=DistVector.from_host(ctx, partition, b_solve),
            )
            if x0 is not None:
                st.x.set_from_host(x0)
        finally:
            ctx.faults.active = armed
        ctx.reset_clocks()

        self.degrader = None
        if degrade is not None or deadline is not None:
            self.degrader = DegradationManager(
                ctx, A_solve, self._rebuild, policy=degrade, deadline=deadline
            )

        # ||b|| as the residual at x = 0 would measure it, so a solve
        # without x0 starts at a relative residual of exactly 1.
        self.history = ConvergenceHistory(
            rhs_norm=float(np.linalg.norm(b_solve / row_scale))
        )
        self.restarts = 0
        self.iterations = 0
        self.breakdowns = 0
        self._test(checked_true_residual(ctx, A_solve, b_solve, st.x, row_scale))
        self._gen = None if self.converged else self._cycle_iter()
        self._result: SolveResult | None = None

    # -- method hooks ------------------------------------------------------
    @classmethod
    def check_options(cls, m: int, options: dict) -> None:
        """Validate ``m`` and every constructor option (defaults filled in)."""
        if m < 1:
            raise ValueError(f"restart length m={m} must be at least 1")
        tol = options["tol"]
        if not (isinstance(tol, Real) and np.isfinite(tol) and tol > 0):
            raise ValueError(f"tol must be finite and > 0, got {tol!r}")
        max_restarts = options["max_restarts"]
        if not (isinstance(max_restarts, Integral) and max_restarts >= 0):
            raise ValueError(
                f"max_restarts must be an integer >= 0, got {max_restarts!r}"
            )

    def cycle(self, offset: int, restart_index: int):
        """Run one restart cycle on ``self.st``, as a generator.

        ``offset`` is the iteration count before the cycle (for history
        records).  The cycle may stop early once its residual estimate
        reaches ``self.target``.  It yields a :class:`BlockRequest` for
        each MPK block it needs, and is resumed once the block
        is generated, or raises what generating it raised at the
        ``yield``.  Returns ``(iterations, breakdowns)``.
        """
        raise NotImplementedError

    def _details(self) -> dict:
        """Method-specific ``SolveResult.details`` entries."""
        return {}

    # ------------------------------------------------------------------
    def _rebuild(self, new_partition, x_host):
        """Degraded-mode rebuild of the distributed state over survivors.

        The survivor roster's plan comes from the plan's cache (built on
        the first degradation to that roster, reused after).
        """
        ctx, st = self.ctx, self.st
        st.plan = st.plan.derive(new_partition)
        st.b = DistVector.from_host(ctx, new_partition, self.b_solve)
        st.x = DistVector.from_host(ctx, new_partition, x_host)
        return st.x

    @property
    def finished(self) -> bool:
        """True once the restart loop has terminated."""
        return self._gen is None

    def _resume(self, error: Exception | None = None) -> BlockRequest | None:
        """Run the solve up to its next block request or restart boundary.

        ``error`` is what fulfilling the last block request raised; it is
        raised in the cycle where the request was made.  Returns the next
        request, or None at a restart boundary and once the solve is
        finished.
        """
        self.ctx.trace.request = self.request
        try:
            if error is None:
                return self._gen.send(None)
            return self._gen.throw(error)
        except StopIteration:
            self._gen = None
            return None

    def _test(self, norms: tuple[float, float]) -> None:
        """The one convergence test, on measured ``(||r_bal||, ||b - A x||)``.

        If it fails, the next cycle's estimate target is the reduction the
        caller's residual still needs, applied to ``||r_bal||``.
        """
        balanced, residual = norms
        history = self.history
        history.record_true(self.iterations, residual)
        self.converged = bool(history.relative()[-1] <= self.tol)
        if not self.converged:
            self.target = self.tol * balanced * (history.rhs_norm / residual)

    def _measured_cycle(self):
        iterations, breakdowns = yield from self.cycle(self.iterations, self.restarts)
        # Looked up in ``repro.core.ca_gmres`` at call time: the host-time
        # probes of ``perfbench/spans.py`` wrap that binding.
        check = import_module(".ca_gmres", __package__).checked_true_residual
        norms = check(self.ctx, self.A_solve, self.b_solve, self.st.x, self.row_scale)
        return iterations, breakdowns, norms

    def _cycle_iter(self):
        ctx = self.ctx
        for _ in range(self.max_restarts):
            if self.degrader is not None and self.degrader.deadline_reached():
                return
            ctx.mark_cycle()
            outcome, aborted = yield from run_cycle_resilient(
                ctx, self._measured_cycle, self.st.x, self.history,
                degrader=self.degrader,
            )
            if aborted:
                return
            iterations, breakdowns, norms = outcome
            self.restarts += 1
            self.iterations += iterations
            self.breakdowns += breakdowns
            self._test(norms)
            if self.converged:
                return
            yield

    def result(self, fold=None) -> SolveResult:
        """The (cached) final result, after running the solve to its end.

        An unfinished run is driven to completion as a batch of one,
        ``run_lockstep([self])``.  ``fold`` is ``ctx.trace.fold()`` of the
        finished timeline when the caller already has it (the runs of one
        batch share their timeline); it is computed here otherwise.  The
        result keeps it as :attr:`~repro.core.convergence.SolveResult.fold`.
        """
        if self._result is None:
            if not self.finished:
                run_lockstep([self])
            ctx = self.ctx
            x_host = gathered_solution(self.st.x)
            if self.bal is not None:
                x_host = self.bal.unscale_solution(x_host)
            if self.preconditioner is not None:
                x_host = self.preconditioner.recover(x_host)
            x_host = self.st.plan.host.from_solve_order(x_host)
            if fold is None:
                fold = ctx.trace.fold()
            details = self._details()
            details["profile"] = fold.profile()
            events = ctx.trace.fault_events(self.request)
            faults = fault_report(events, ctx.faults.dead)
            if faults["lost_devices"] or any(faults["counts"].values()):
                details["faults"] = faults
            if self.degrader is not None:
                details["degradation"] = self.degrader.report(events)
            self._result = SolveResult(
                x=x_host,
                converged=self.converged,
                n_restarts=self.restarts,
                n_iterations=self.iterations,
                history=self.history,
                timers=fold.timers,
                counters=fold.counters.snapshot(),
                breakdowns=self.breakdowns,
                details=details,
                fold=fold,
            )
        return self._result


class GmresRun(RestartedRun):
    """Restarted GMRES(m) (Fig. 1) on the shared restart loop.

    ``orth_method`` is as in :func:`gmres`; every other argument is
    documented on :class:`RestartedRun`.
    """

    def __init__(self, b, plan, orth_method: str = "cgs", **kwargs):
        self.orth_method = orth_method
        super().__init__(b, plan, **kwargs)

    def cycle(self, offset, restart_index):
        yield from ()  # a GMRES cycle requests no MPK block
        ctx, st = self.ctx, self.st
        iterations = run_gmres_cycle(
            ctx, st.plan.dmat, st.plan.V, st.x, st.b, self.m, self.target,
            orth_method=self.orth_method, history=self.history,
            iteration_offset=offset,
        )
        return iterations, 0


def gmres(
    matrix: CsrMatrix,
    b: np.ndarray,
    ctx: MultiGpuContext | None = None,
    n_gpus: int = 1,
    ordering: str = "natural",
    m: int = 30,
    tol: float = 1e-4,
    max_restarts: int = 500,
    orth_method: str = "cgs",
    balance: bool = True,
    x0: np.ndarray | None = None,
    preconditioner=None,
    degrade: DegradePolicy | None = None,
    deadline: float | None = None,
) -> SolveResult:
    """Solve ``A x = b`` with restarted GMRES(m) on simulated GPUs.

    A one-request :class:`~repro.serve.session.SolverSession`.

    Parameters
    ----------
    ctx, n_gpus
        Execution context, or the GPU count to build one with.
    ordering
        ``"natural"`` (equal block rows), ``"rcm"`` or ``"kway"``, as on
        :class:`~repro.serve.session.SolverSession`.
    balance
        Apply the paper's row-then-column norm balancing first.
    orth_method
        ``"cgs"`` (BLAS-2, the paper's fast configuration, with MAGMA's
        tall-skinny DGEMV) or ``"mgs"``.
    preconditioner
        Optional right preconditioner with ``fold(A)`` / ``recover(y)``
        methods (see :mod:`repro.precond`); the solver iterates on the
        folded operator ``A M^{-1}`` and maps the solution back.  Because
        it is folded up front, the cycle kernels run unchanged.

    The other parameters are documented on :class:`RestartedRun`.

    Returns
    -------
    SolveResult
        Solution in the original variables plus timings/counters/history.
    """
    from ..serve.session import SolverSession

    return SolverSession(
        matrix, solver="gmres", ctx=ctx, n_gpus=n_gpus, ordering=ordering,
        m=m, tol=tol, max_restarts=max_restarts, balance=balance,
        preconditioner=preconditioner, orth_method=orth_method,
    ).solve(b, x0=x0, degrade=degrade, deadline=deadline)

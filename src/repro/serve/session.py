"""Solver sessions: plan once, solve many.

:class:`SolverSession` binds one matrix + one solver configuration to one
:class:`~repro.gpu.context.MultiGpuContext` and answers repeated
``solve(b)`` calls.  It is the library's one solve front end: the solver
functions (:func:`~repro.core.gmres.gmres`,
:func:`~repro.core.ca_gmres.ca_gmres`,
:func:`~repro.core.pipelined.pipelined_gmres`) are one-request sessions.
The first call computes the structural plan —
ordering, balancing, partition, distributed matrix, MPK dependency
closure, staged-exchange index sets — and caches it under a key of the
matrix pattern, its values, the configuration and the device roster;
every later call (including after ``ctx.reset_clocks()`` or a mid-solve
repartition) reuses it.  The matrix is hashed once, at the first plan
access, not per solve.  Warm solves are bit-identical to cold ones: the
plan holds no RHS-dependent state, and structural setup is uncosted in the
simulated timeline, so even the simulated timers/counters match exactly —
only host wall-clock changes.

Every request goes through one routine: it constructs one run per
right-hand side, records the ``plan-build`` marker after the last run
constructor has reset the clocks, drives the runs with
:func:`~repro.core.gmres.run_lockstep`, folds the trace once and builds
the results.  ``solve(b)`` is a batch of one; ``solve_many`` batches
right-hand sides over the shared plan, and the MPK blocks its pending
solves request at the same block start, with the same kernel and shift
operations, are generated by one fused kernel call — one halo exchange
carrying every column, one step launch per step.  Numerics stay per RHS,
so each returned :class:`~repro.core.convergence.SolveResult` is
byte-for-byte what a sequential ``solve`` would have produced, while the
simulated timers and counters describe the whole batch.  Fault injection,
degradation policies, and deadlines make ``solve_many`` a sequence of
batches of one — their replay determinism is defined per solve.
"""

from __future__ import annotations

import inspect
import time

import numpy as np

from ..core.ca_gmres import CaGmresRun, mpk_block_lengths
from ..core.convergence import SolveResult
from ..core.gmres import GmresRun, run_lockstep
from ..core.pipelined import PipelinedRun
from ..gpu.context import MultiGpuContext
from ..gpu.trace import REGION_LANE
from ..sparse.csr import CsrMatrix
from .fingerprint import Fingerprint
from .plan import ORDERINGS, PlanCache, StructuralPlan

__all__ = ["SolverSession"]

#: Run class per ``solver`` choice.
_RUNS = {"ca": CaGmresRun, "gmres": GmresRun, "pipelined": PipelinedRun}

#: Arguments solve() may override per call; ``check_options`` re-checks them
#: on every call.  Everything else is fixed at session construction.
_PER_SOLVE_KWARGS = frozenset({"x0", "tol", "max_restarts", "degrade", "deadline"})


class SolverSession:
    """A long-lived solver bound to one matrix, config, and context.

    Parameters
    ----------
    matrix
        The system matrix (original ordering; the session permutes).
    solver
        ``"ca"`` (CA-GMRES, the default), ``"gmres"`` or ``"pipelined"``
        (pipelined GMRES).
    ctx, n_gpus
        Execution context, or the GPU count to build one with.
    ordering
        ``"natural"``, ``"rcm"`` (bandwidth-reducing permutation), or
        ``"kway"`` (graph partition; rows stay in native order).
    m, s, basis, balance, tol, max_restarts, preconditioner
        Solver configuration, as in :func:`repro.core.ca_gmres.ca_gmres` /
        :func:`repro.core.gmres.gmres`.  ``m`` defaults to 60 for CA-GMRES
        and 30 for the GMRES variants; ``s`` and ``basis`` apply to
        CA-GMRES only (``None`` takes its defaults, 15 and ``"newton"``).
    cache
        Optional shared :class:`~repro.serve.plan.PlanCache`; sessions may
        share one to pool host-level plans (and, on the same context,
        structural plans) of identical matrices.
    metrics
        Optional :class:`~repro.metrics.registry.MetricsRegistry`.  The
        session then records serving telemetry — request counts, cold vs
        warm host wall-clock latency (``repro_serve_request_seconds``,
        nondeterministic by nature), batch occupancy for
        :meth:`solve_many`, per-cycle simulated durations read from the
        trace's cycle windows, and the full per-solve runtime +
        convergence telemetry (see :mod:`repro.metrics.collect`) — and
        attaches itself to the plan cache for hit/miss accounting.
    metrics_label
        Value for the ``matrix`` label on this session's metrics
        (defaults to empty; pass the workload name, e.g. ``"cant"``).
    **solver_kwargs
        Remaining solver options (``tsqr_method``, ``reorth``,
        ``use_mpk``, ``orth_method``, ``degrade``, ``deadline``, ...)
        forwarded verbatim to the solver.

    Every option is checked against the solver's run class at
    construction, before any plan is built: one it does not take raises
    ``TypeError``, an out-of-range value ``ValueError``.
    """

    def __init__(
        self,
        matrix: CsrMatrix,
        solver: str = "ca",
        ctx: MultiGpuContext | None = None,
        n_gpus: int = 1,
        ordering: str = "natural",
        m: int | None = None,
        s: int | None = None,
        basis: str | None = None,
        balance: bool = True,
        tol: float = 1e-4,
        max_restarts: int = 500,
        preconditioner=None,
        cache: PlanCache | None = None,
        metrics=None,
        metrics_label: str = "",
        **solver_kwargs,
    ):
        if solver not in _RUNS:
            raise ValueError(
                f"unknown solver {solver!r}; choose from {tuple(_RUNS)}"
            )
        if ordering not in ORDERINGS:
            raise ValueError(
                f"unknown ordering {ordering!r}; choose from {ORDERINGS}"
            )
        if matrix.n_rows != matrix.n_cols:
            raise ValueError("SolverSession requires a square matrix")
        self.matrix = matrix
        self.solver = solver
        self.m = int(m) if m is not None else (60 if solver == "ca" else 30)
        options = dict(solver_kwargs, tol=tol, max_restarts=max_restarts)
        if s is not None:
            options["s"] = int(s)
        if basis is not None:
            options["basis"] = basis
        #: Every constructor option of the run class, defaults filled in.
        self.options = self._checked(options)
        self.ctx = ctx if ctx is not None else MultiGpuContext(n_gpus)
        self.ordering = ordering
        self.balance = bool(balance)
        self.preconditioner = preconditioner
        self.cache = cache if cache is not None else PlanCache()
        self.metrics = metrics
        self.metrics_label = str(metrics_label)
        if metrics is not None:
            self.cache.metrics = metrics
        self.n_solves = 0
        self._host = None
        self._mpk_lengths = ()
        if self.options.get("use_mpk"):
            self._mpk_lengths = mpk_block_lengths(self.options["s"], self.m)

    def _checked(self, options: dict) -> dict:
        """``options`` bound against the run class's constructor chain
        (defaults filled in) and validated for restart length ``m``."""
        run_cls = _RUNS[self.solver]
        accepted = {}
        for klass in reversed(run_cls.__mro__):
            init = vars(klass).get("__init__")
            if klass is object or init is None:
                continue
            for name, param in inspect.signature(init).parameters.items():
                if param.kind is param.POSITIONAL_OR_KEYWORD and name not in (
                    "self", "b", "plan",
                ):
                    accepted[name] = param.default
        unknown = sorted(set(options) - set(accepted))
        if unknown:
            raise TypeError(
                f"solver {self.solver!r} takes no option(s) {unknown}"
            )
        bound = {**accepted, **options}
        run_cls.check_options(self.m, bound)
        return bound

    # ------------------------------------------------------------------
    @property
    def plan(self) -> StructuralPlan:
        """The structural plan for the context's *active* roster.

        Built on first access (or first :meth:`solve`), then reused.  The
        host plan — and so the hash of the matrix — is resolved once, at
        the first access.
        """
        if self._host is None:
            self._host = self.cache.host_plan(
                self.matrix, self.ordering, self.balance, self.preconditioner
            )
        return self.cache.structural_plan(
            self.ctx, self._host, self.m, self._mpk_lengths
        )

    @property
    def fingerprint(self) -> Fingerprint:
        """The full plan key for the current roster."""
        return self.plan.key

    def stats(self) -> dict:
        """Cache hit/miss/invalidation counters plus session totals."""
        out = dict(self.cache.stats)
        out["n_solves"] = self.n_solves
        out["host_plans"] = len(self.cache.host_plans)
        out["structural_plans"] = len(self.cache.plans)
        return out

    def arm_fault_plan(self, fault_plan) -> None:
        """Re-arm the session's context with a new fault plan.

        The structural plan survives — it holds no fault state — so one
        session can serve a whole fault campaign's trials.
        """
        self.ctx.arm_fault_plan(fault_plan)

    @property
    def _solver_label(self) -> str:
        return _RUNS[self.solver].name

    # ------------------------------------------------------------------
    def _serve(self, bs, overrides: dict) -> tuple[list[SolveResult], list[int]]:
        """Build, drive (:func:`~repro.core.gmres.run_lockstep`) and finish
        one run per entry of ``bs``; returns the results and MPK call sizes."""
        bad = set(overrides) - _PER_SOLVE_KWARGS
        if bad:
            raise TypeError(
                f"not per-solve overridable: {sorted(bad)} "
                "(fix these at session construction)"
            )
        run_cls = _RUNS[self.solver]
        kwargs = {**self.options, **overrides}
        run_cls.check_options(self.m, kwargs)
        if self.ctx.inactive_devices:
            # A previous degraded solve left the roster shrunken; restore it
            # so the plan lookup keys on the full roster (the survivor-roster
            # entry stays cached for the next mid-solve repartition).
            self.ctx.reset_clocks()
        plan_misses_before = self.cache.stats["plan_misses"]
        runs = [run_cls(b, self.plan, **kwargs) for b in bs]
        if not runs:
            return [], []
        for i, run in enumerate(runs):
            run.request = i
        if self.cache.stats["plan_misses"] > plan_misses_before:
            # Each run constructor reset the clocks and wiped the trace —
            # emit the plan-build marker onto the batch's timeline, after
            # the last reset, so cold runs show where their plan came from.
            self.ctx.trace.record(
                "plan-build", REGION_LANE, "plan", self.ctx.current_time(),
                0.0, **self.cache.last_structural_build,
            )
        sizes = run_lockstep(runs)
        fold = self.ctx.trace.fold()
        results = [run.result(fold) for run in runs]
        self.n_solves += len(results)
        # The runs' plan: looking ``self.plan`` up again would count a hit.
        runs[0].st.plan.release_batch()
        return results, sizes

    def solve(self, b: np.ndarray, **overrides) -> SolveResult:
        """Solve ``A x = b`` reusing the session's structural plan.

        ``overrides`` may set the per-solve options ``x0``, ``tol``,
        ``max_restarts``, ``degrade`` and ``deadline``; every other option
        is fixed for the session's lifetime.
        """
        if self.metrics is None:
            [result], _ = self._serve([b], overrides)
            return result
        from ..metrics.collect import (
            observe_solve,
            serve_request_seconds,
            serve_requests_total,
        )

        labels = {"solver": self._solver_label, "matrix": self.metrics_label}
        misses_before = (
            self.cache.stats["plan_misses"] + self.cache.stats["host_misses"]
        )
        wall_start = time.perf_counter()
        [result], _ = self._serve([b], overrides)
        wall = time.perf_counter() - wall_start
        misses_after = (
            self.cache.stats["plan_misses"] + self.cache.stats["host_misses"]
        )
        plan = "cold" if misses_after > misses_before else "warm"
        serve_request_seconds(self.metrics).observe(wall, plan=plan, **labels)
        serve_requests_total(self.metrics).inc(mode="single", **labels)
        observe_solve(self.metrics, self.ctx, result, **labels)
        return result

    def solve_many(self, bs, **overrides) -> list[SolveResult]:
        """Solve one system per right-hand side over the shared plan.

        The pending solves run in lockstep on the context: their matching
        MPK blocks share one fused kernel call (one halo exchange, one
        step launch per step), each slot on its own basis of the plan.
        Per-RHS numerics are independent — each result's ``x``,
        ``history`` and fault report are byte-for-byte a sequential
        :meth:`solve`'s — while simulated timers, counters and profile
        describe the batch as a whole.  An armed fault plan, a degrade
        policy or a deadline makes the solves fully sequential instead,
        because fault replay determinism is defined per solve.
        """
        bs = list(bs)
        if (
            self.ctx.faults.active
            or "degrade" in overrides
            or "deadline" in overrides
            or self.options["degrade"] is not None
            or self.options["deadline"] is not None
        ):
            return [self.solve(b, **overrides) for b in bs]
        results, sizes = self._serve(bs, overrides)
        if self.metrics is not None and results:
            from ..metrics.collect import (
                observe_context,
                observe_result,
                serve_batch_occupancy,
                serve_batch_rhs_total,
                serve_requests_total,
            )

            labels = {"solver": self._solver_label, "matrix": self.metrics_label}
            # Occupancy: the mean fraction of the batch one MPK call carried;
            # 1.0 means every block of every RHS was generated in lockstep.
            occupancy = sum(sizes) / (len(sizes) * len(results)) if sizes else 1.0
            serve_batch_occupancy(self.metrics).set(occupancy, **labels)
            serve_batch_rhs_total(self.metrics).inc(len(results), **labels)
            serve_requests_total(self.metrics).inc(
                len(results), mode="batched", **labels
            )
            # The trace describes the batch as a whole: bridge it once.
            observe_context(self.metrics, self.ctx, fold=results[0].fold, **labels)
            for result in results:
                observe_result(self.metrics, result, **labels)
        return results

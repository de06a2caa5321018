"""Solver results and convergence tracking.

The paper declares convergence when the l2 norm of the initial residual has
been reduced by at least four orders of magnitude (Section VI); the drivers
take that as a relative tolerance ``tol`` (default ``1e-4``) and make one
test, on the caller's system: ``||b - A x|| <= tol ||b||``, measured on the
host before the first cycle and at every restart boundary (robust against
the loss of orthogonality that CA-GMRES's ill-conditioned bases can cause).
``converged``, the history and the metrics all read that measurement; the
Givens estimate of the iterated system only ends a cycle early.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ConvergenceHistory", "SolveResult"]


@dataclass
class ConvergenceHistory:
    """Residual norms observed during a solve.

    ``true_residuals`` are the caller's ``(iteration, ||b - A x||)``, from
    iteration 0 and every restart boundary; a solve converged exactly when
    ``relative()[-1] <= tol``.  ``estimates`` are the in-cycle Givens
    estimates of the iterated (balanced, reordered, preconditioned) system.
    """

    rhs_norm: float = 0.0  # ||b||
    estimates: list = field(default_factory=list)  # (iteration, |r| estimate)
    true_residuals: list = field(default_factory=list)  # (iteration, ||b - A x||)

    def record_estimate(self, iteration: int, value: float) -> None:
        self.estimates.append((int(iteration), float(value)))

    def record_true(self, iteration: int, value: float) -> None:
        self.true_residuals.append((int(iteration), float(value)))

    def relative(self) -> np.ndarray:
        """True residuals over ``||b||`` (with ``b = 0``: 0 or infinite)."""
        norms = np.array([v for _, v in self.true_residuals], dtype=np.float64)
        if self.rhs_norm == 0.0:
            return np.where(norms == 0.0, 0.0, np.inf)
        return norms / self.rhs_norm


@dataclass
class SolveResult:
    """Outcome of a GMRES / CA-GMRES solve.

    Attributes
    ----------
    x
        Solution in the *original* (unbalanced) variables, on the host.
    converged
        True if ``||b - A x|| <= tol ||b||`` for the system the caller
        passed, i.e. ``history.relative()[-1] <= tol``.
    n_restarts
        Completed restart cycles (the paper's "Rest." column).
    n_iterations
        Total inner iterations (basis vectors generated).
    history
        Residual-norm history.
    timers
        Simulated seconds per phase: keys like ``"spmv"``, ``"mpk"``,
        ``"borth"``, ``"tsqr"``, ``"orth"``, ``"lsq"``, ``"update"``.
        These are *exclusive* times (nested regions are charged to the
        innermost region only).
    counters
        The runtime counters, folded from the trace at the end of the solve.
    breakdowns
        Orthogonalization breakdowns survived (CholQR on ill-conditioned
        panels); each forces an early restart.
    details
        Solver-specific extras.  All drivers attach ``details["profile"]``,
        the trace-derived aggregate metrics (per-kernel, per-region,
        per-transfer, and per-restart-cycle; see
        :meth:`repro.gpu.trace.TraceFold.profile`), also reachable as
        :attr:`profile`.

        When fault injection/resilience saw any activity, drivers also
        attach ``details["faults"]`` (see
        :meth:`repro.faults.injector.FaultInjector.report`): lists of
        ``injected`` / ``detected`` / ``recovered`` / ``unrecovered``
        event records, the ``lost_devices``, an ``aborted`` flag (True
        when an unrecoverable fault stopped the solve early — the solver
        returns the last checkpointed iterate with ``converged=False``
        instead of raising), and summary ``counts``.  The key is *absent*
        for fault-free runs, so a zero-rate plan leaves results
        bit-identical.

        When the solver ran with a degrade policy or a deadline, drivers
        attach ``details["degradation"]`` (see
        :meth:`repro.core.degrade.DegradationManager.report`): the
        policy, the initial/final device counts, one record per
        repartition performed (lost devices, time, surviving part
        sizes), and whether/when the simulated-time deadline tripped.
        The key is absent when neither was requested, keeping such runs
        bit-identical to earlier behavior.
    """

    x: np.ndarray
    converged: bool
    n_restarts: int
    n_iterations: int
    history: ConvergenceHistory
    timers: dict
    counters: dict
    breakdowns: int = 0
    details: dict = field(default_factory=dict)
    #: The :class:`~repro.gpu.trace.TraceFold` that ``timers``, ``counters``
    #: and ``details["profile"]`` were read from, for consumers that need
    #: more of it (the metrics bridge); not part of the result's value.
    fold: object = field(default=None, repr=False, compare=False)

    @property
    def total_time(self) -> float:
        """Simulated seconds of the solve: the timeline's end."""
        return self.details["profile"]["total_time"]

    @property
    def profile(self) -> dict | None:
        """Trace-derived aggregate metrics (``details["profile"]``)."""
        return self.details.get("profile")

    def time_per_restart(self, phase: str | None = None) -> float:
        """Average per-restart time of one phase (or the total)."""
        cycles = max(self.n_restarts, 1)
        if phase is None:
            return self.total_time / cycles
        return self.timers.get(phase, 0.0) / cycles

    def summary(self) -> str:
        """Multi-line human-readable report of this solve."""
        lines = [
            f"converged      : {self.converged}",
            f"restarts       : {self.n_restarts}",
            f"iterations     : {self.n_iterations}",
        ]
        if self.history.true_residuals:
            lines.append(f"rel. residual  : {self.history.relative()[-1]:.3e}")
        if self.breakdowns:
            lines.append(f"breakdowns     : {self.breakdowns}")
        faults = self.details.get("faults")
        if faults:
            c = faults["counts"]
            lines.append(
                f"faults         : {c['injected']} injected, "
                f"{c['detected']} detected, {c['recovered']} recovered, "
                f"{c['unrecovered']} unrecovered"
            )
            if faults["lost_devices"]:
                lines.append(
                    f"lost devices   : {', '.join(faults['lost_devices'])}"
                )
        lines.append(
            f"simulated time : {1e3 * self.total_time:.3f} ms "
            f"({1e3 * self.time_per_restart():.3f} ms / restart loop)"
        )
        phases = "  ".join(
            f"{k}={1e3 * v:.2f}ms" for k, v in sorted(self.timers.items()) if v > 0
        )
        if phases:
            lines.append(f"phases         : {phases}")
        msgs = self.counters.get("d2h_messages", 0) + self.counters.get(
            "h2d_messages", 0
        )
        lines.append(f"PCIe messages  : {msgs}")
        return "\n".join(lines)

"""Solver-side fault detection and recovery.

The injection layer (:mod:`repro.faults`) corrupts data and timing at the
machine level; this module is the solvers' answer.  Three nested layers:

1. **Transfer retry** — the staged exchange re-issues corrupted transfers
   (:class:`~repro.dist.exchange.StagedExchange`; not in this module).
2. **Panel retry** — CA-GMRES re-runs a poisoned block (regenerate the MPK
   candidates, re-orthogonalize) a bounded number of times.
3. **Cycle redo** — every solver checkpoints the solution vector at each
   restart boundary; a fault that escapes the inner layers rolls the cycle
   back and replays it (:func:`run_cycle_resilient`).

Detection is by *uncosted* host-side ``np.isfinite`` guards
(:func:`guard_finite`) on the small quantities every cycle already
materializes on the host — residual norms, Hessenberg columns, BOrth
coefficients, TSQR R factors — so the guards never perturb the simulated
timeline.  They are always armed: a fault plan switches injection on, and
nothing switches detection off.  The same guards catch a basis that
overflows on its own (a long monomial MPK basis, say), so such a solve
ends as a structured abort rather than a non-finite ``x``.  With a
zero-rate plan, results and timings are bit-identical to a run without a
plan.

Unrecoverable faults (exhausted retry budgets) do not raise out of the
solvers; they abort the solve as an ``unrecovered`` event on the trace's
fault lane and surface in the structured ``SolveResult.details["faults"]``
report built from that lane (see :func:`repro.faults.injector.
fault_report`).  Device dropout is terminal too by default, but a solver
that passes a :class:`~repro.core.degrade.DegradationManager` adds a
fourth layer:

4. **Degraded-mode repartition** — a :class:`~repro.faults.errors.
   DeviceLost` that escapes the cycle is absorbed by deactivating the dead
   device, repartitioning the problem over the survivors, rebuilding the
   distributed state from the cycle checkpoint, and replaying the cycle on
   n-1 GPUs (see :mod:`repro.core.degrade`).
"""

from __future__ import annotations

import numpy as np

from ..faults.errors import (
    DeviceLost,
    SilentDataCorruption,
    TransferCorruption,
)
from ..orth.errors import NonFinitePanelError

__all__ = [
    "MAX_CYCLE_REDOS",
    "MAX_PANEL_RETRIES",
    "RECOVERABLE_FAULTS",
    "guard_finite",
    "run_cycle_resilient",
    "snapshot_solution",
    "restore_solution",
]

#: Exceptions the retry/checkpoint machinery can recover from.  Everything
#: else (notably :class:`DeviceLost`) is terminal.
RECOVERABLE_FAULTS = (TransferCorruption, SilentDataCorruption, NonFinitePanelError)

#: How many times one restart cycle may be rolled back and replayed before
#: the solve gives up and reports the fault as unrecovered.
MAX_CYCLE_REDOS = 3

#: How many times CA-GMRES re-runs one poisoned block before escalating to
#: a cycle redo.
MAX_PANEL_RETRIES = 2


def guard_finite(ctx, value, what: str, site: str | None = None) -> None:
    """Uncosted NaN/Inf check on host-side solver state.

    Always armed, with or without a fault plan.  On failure the detection
    is logged on the trace's fault lane and :class:`SilentDataCorruption`
    raised for the caller's retry machinery.
    """
    arr = np.asarray(value)
    if arr.size and not np.all(np.isfinite(arr)):
        ctx.faults.note_detection(what, time=ctx.current_time(), site=site)
        raise SilentDataCorruption(f"non-finite {what}")


def snapshot_solution(x) -> list[np.ndarray]:
    """Uncosted host copy of the distributed solution (cycle checkpoint)."""
    return [p.data.copy() for p in x.parts()]


def restore_solution(x, snapshot: list[np.ndarray]) -> None:
    """Write a :func:`snapshot_solution` checkpoint back into ``x``."""
    for p, saved in zip(x.parts(), snapshot):
        p.data[...] = saved


def run_cycle_resilient(ctx, cycle, x, history, degrader=None):
    """Run one restart cycle with checkpoint/redo semantics.

    A recoverable fault rolls the cycle back and replays it, at most
    :data:`MAX_CYCLE_REDOS` times.  A generator, like the cycle it runs:
    it passes up every block request the cycle yields (``yield from``), so
    an error raised into it at a request reaches the cycle's own handlers
    first and then this one, as a direct call would.

    Parameters
    ----------
    ctx
        The execution context (its injector logs recoveries and terminal
        failures on the trace's fault lane).
    cycle
        Zero-argument callable returning a generator that performs the
        cycle (see :meth:`~repro.core.gmres.RestartedRun.cycle`); it may
        raise any of :data:`RECOVERABLE_FAULTS` or :class:`DeviceLost`.
        Each attempt calls it afresh.  When a
        degrader is attached the callable must read its inputs from
        mutable solver state so a replay after repartitioning picks up the
        rebuilt objects.
    x
        Distributed solution vector — checkpointed before the attempt and
        rolled back on failure (a fault mid-cycle must not leave a
        half-updated iterate behind).
    history
        The convergence history; estimate entries recorded by a failed
        attempt are rolled back with the solution.
    degrader
        Optional :class:`~repro.core.degrade.DegradationManager`.  A
        :class:`DeviceLost` is offered to it first: on absorption the
        problem is repartitioned over the survivors, the distributed state
        rebuilt from the checkpoint, and the cycle replayed (not charged
        against the redo budget — losing a device is not the cycle's
        fault); on refusal the structured-abort path runs.  The rebuild is
        part of the replayed attempt: a recoverable fault in its transfers
        costs a redo, a device lost during it is offered to the degrader
        again.

    Returns
    -------
    (result, aborted)
        ``result`` is the cycle generator's return value (``None`` when
        aborted);
        ``aborted`` is True when the solve must stop.  The terminal
        failure is then an ``unrecovered`` fault-lane event.
    """
    checkpoint = snapshot_solution(x)
    n_estimates = len(history.estimates)
    attempt = 0
    rebuild = None  # (partition, x_host) of an absorbed device loss
    while True:
        try:
            if rebuild is not None:
                with ctx.region("repartition"):
                    x = degrader.rebuild(*rebuild)
                rebuild = None
                checkpoint = snapshot_solution(x)
            return (yield from cycle()), False
        except RECOVERABLE_FAULTS as exc:
            restore_solution(x, checkpoint)
            del history.estimates[n_estimates:]
            if attempt == MAX_CYCLE_REDOS:
                ctx.faults.note_unrecovered(
                    {
                        "error": type(exc).__name__,
                        "message": str(exc),
                        "time": ctx.current_time(),
                        "action": "cycle-redo budget exhausted",
                    }
                )
                return None, True
            ctx.faults.note_recovery(
                "cycle-redo", time=ctx.current_time(),
                cause=type(exc).__name__, attempt=attempt + 1,
            )
            attempt += 1
        except DeviceLost as exc:
            del history.estimates[n_estimates:]
            if degrader is not None:
                rebuild = degrader.absorb(exc, x, checkpoint)
            if rebuild is not None:
                # Absorbed: rebuild on the survivors and replay the cycle
                # from the restart boundary; the redo budget is untouched.
                continue
            restore_solution(x, checkpoint)
            ctx.faults.note_unrecovered(
                {
                    "error": "DeviceLost",
                    "site": exc.site,
                    "message": str(exc),
                    "time": ctx.current_time(),
                }
            )
            return None, True

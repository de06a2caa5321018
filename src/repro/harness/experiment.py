"""Solver-experiment helpers shared by the Fig. 14/15 benchmarks.

One :class:`ExperimentRecord` corresponds to one row of the paper's Fig. 14
table: solver configuration, restart count, per-restart phase times (in
simulated milliseconds), and the speedup over the GMRES reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.ca_gmres import ca_gmres
from ..core.convergence import SolveResult
from ..core.gmres import gmres
from ..gpu.context import MultiGpuContext
from ..sparse.csr import CsrMatrix

__all__ = ["ExperimentRecord", "run_solver_experiment", "solver_table_row"]


@dataclass
class ExperimentRecord:
    """One solver run, summarized like a Fig. 14 row."""

    label: str
    n_gpus: int
    converged: bool
    restarts: int
    iterations: int
    orth_ms: float  # Orth (BOrth + TSQR or per-vector orth) per restart
    tsqr_ms: float  # TSQR part alone (CA-GMRES only; 0 for GMRES)
    spmv_ms: float  # SpMV or MPK per restart
    total_ms: float  # whole restart loop
    breakdowns: int = 0
    speedup: float | None = None
    raw: SolveResult | None = field(default=None, repr=False)


def run_solver_experiment(
    label: str,
    matrix: CsrMatrix,
    b: np.ndarray,
    solver: str,
    n_gpus: int,
    ordering: str = "natural",
    **kwargs,
) -> ExperimentRecord:
    """Run one GMRES / CA-GMRES configuration and summarize it.

    ``solver`` is ``"gmres"`` or ``"ca_gmres"``; ``ordering`` and
    ``kwargs`` pass through to the driver.  Times are per-restart
    simulated milliseconds.
    """
    ctx = MultiGpuContext(n_gpus)
    if solver == "gmres":
        result = gmres(matrix, b, ctx=ctx, ordering=ordering, **kwargs)
    elif solver == "ca_gmres":
        result = ca_gmres(matrix, b, ctx=ctx, ordering=ordering, **kwargs)
    else:
        raise ValueError(f"unknown solver {solver!r}")
    cycles = max(result.n_restarts, 1)
    # Phase attribution from the structured trace (inclusive region spans).
    timers = {
        k: v["inclusive"] for k, v in result.details["profile"]["regions"].items()
    }
    orth = timers.get("orth", 0.0) + timers.get("borth", 0.0) + timers.get("tsqr", 0.0)
    spmv = timers.get("spmv", 0.0) + timers.get("mpk", 0.0)
    return ExperimentRecord(
        label=label,
        n_gpus=n_gpus,
        converged=result.converged,
        restarts=result.n_restarts,
        iterations=result.n_iterations,
        orth_ms=1e3 * orth / cycles,
        tsqr_ms=1e3 * timers.get("tsqr", 0.0) / cycles,
        spmv_ms=1e3 * spmv / cycles,
        total_ms=1e3 * result.time_per_restart(),
        breakdowns=result.breakdowns,
        raw=result,
    )


def solver_table_row(record: ExperimentRecord) -> list:
    """A Fig. 14-style table row for :func:`repro.harness.format_table`."""
    return [
        record.n_gpus,
        record.label,
        record.restarts,
        record.orth_ms,
        record.tsqr_ms if record.tsqr_ms else "-",
        record.spmv_ms,
        record.total_ms,
        f"{record.speedup:.2f}" if record.speedup is not None else "-",
    ]

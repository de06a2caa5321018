"""The paper's primary contribution: GMRES and CA-GMRES on multiple GPUs.

* :mod:`~repro.core.gmres` — standard restarted GMRES(m) (Fig. 1), the
  baseline all speedups are measured against;
* :mod:`~repro.core.ca_gmres` — CA-GMRES(s, m) (Fig. 2): MPK + BOrth + TSQR
  generate and orthogonalize ``s`` basis vectors per communication phase;
* :mod:`~repro.core.basis` — change-of-basis matrices, Ritz values, Newton
  shifts (re-exporting the Leja machinery from :mod:`repro.mpk.shifts`);
* :mod:`~repro.core.lsq` — Givens-rotation least squares for the upper
  Hessenberg problem;
* :mod:`~repro.core.balance` — the row-then-column norm balancing the paper
  applies before iterating;
* :mod:`~repro.core.convergence` — results, histories, and stopping logic;
* :mod:`~repro.core.degrade` — degraded-mode recovery: survive device loss
  by repartitioning over the survivors, with deadlines and a watchdog.
"""

from .arnoldi import host_arnoldi, host_ritz_values
from .balance import BalanceResult, balance_matrix
from .basis import build_change_of_basis, ritz_values
from .convergence import ConvergenceHistory, SolveResult
from .degrade import DegradationManager, DegradePolicy, derive_partition
from .lsq import GivensHessenbergSolver, hessenberg_lstsq
from .gmres import gmres
from .ca_gmres import ca_gmres
from .pipelined import pipelined_gmres

__all__ = [
    "DegradationManager",
    "DegradePolicy",
    "derive_partition",
    "host_arnoldi",
    "host_ritz_values",
    "BalanceResult",
    "balance_matrix",
    "build_change_of_basis",
    "ritz_values",
    "ConvergenceHistory",
    "SolveResult",
    "GivensHessenbergSolver",
    "hessenberg_lstsq",
    "gmres",
    "ca_gmres",
    "pipelined_gmres",
]

"""Communication-avoiding Arnoldi eigenvalue estimation.

The paper's conclusion: "such tall-skinny matrices appear in other sparse
solvers ... and both SpMV and Orth are needed in many solvers (e.g.,
subspace projection methods for linear and eigenvalue problems).  Hence,
our studies may have greater impact beyond GMRES."

This module demonstrates that claim with the library's own kernels: a
CA-Arnoldi process builds an ``m``-dimensional Krylov basis in blocks of
``s`` using MPK + BOrth + TSQR (one communication phase per block instead
of per vector) on CA-GMRES's own orthogonalization path and
Hessenberg assembly (:mod:`repro.core.ca_gmres`) and on a structural plan
from the solvers' plan builder (:mod:`repro.serve.plan`), and returns its
Ritz values/vectors as eigen-estimates of ``A``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpu.context import MultiGpuContext
from ..order.partition import Partition
from ..sparse.csr import CsrMatrix
from .ca_gmres import _BlockHessenberg, _block_shift_ops, _orthogonalize, mpk_block_lengths

__all__ = ["CaArnoldiResult", "ca_arnoldi_eigs"]


@dataclass
class CaArnoldiResult:
    """Ritz approximations from one CA-Arnoldi factorization.

    Attributes
    ----------
    ritz_values
        Eigenvalues of the square Hessenberg matrix (complex array).
    hessenberg
        The recovered ``(m+1) x m`` upper Hessenberg matrix.
    residuals
        Per-Ritz-pair residual estimates ``|h_{m+1,m}| * |y_m|`` (the
        classical Arnoldi bound, no extra SpMVs needed).
    timers, counters
        The simulated phase times and communication counters of the run.
    """

    ritz_values: np.ndarray
    hessenberg: np.ndarray
    residuals: np.ndarray
    timers: dict
    counters: dict


def ca_arnoldi_eigs(
    matrix: CsrMatrix,
    ctx: MultiGpuContext | None = None,
    n_gpus: int = 1,
    partition: Partition | None = None,
    s: int = 10,
    m: int = 30,
    shifts: np.ndarray | None = None,
    tsqr_method: str = "cholqr",
    borth_method: str = "cgs",
    v0: np.ndarray | None = None,
    seed: int = 11,
) -> CaArnoldiResult:
    """Estimate eigenvalues of ``A`` with a blocked (CA) Arnoldi process.

    Parameters
    ----------
    matrix
        Square CSR matrix.
    s, m
        Block length and total Krylov dimension (1 <= s <= m <= n).
    shifts
        Optional Newton shifts (e.g. Ritz values from a previous call);
        monomial basis when omitted.
    tsqr_method, borth_method
        Orthogonalization kernels, as in :func:`repro.core.ca_gmres.ca_gmres`
        (CholQR breakdowns fall back to CAQR automatically).
    v0
        Starting vector (random when omitted).

    Returns
    -------
    CaArnoldiResult

    Raises
    ------
    SilentDataCorruption, NonFinitePanelError
        When a block's BOrth coefficients or TSQR R factor are non-finite
        (an overflowing basis, say); there is no restart to roll back to.
    """
    if matrix.n_rows != matrix.n_cols:
        raise ValueError("ca_arnoldi_eigs requires a square matrix")
    n = matrix.n_rows
    if not 1 <= s <= m <= n:
        raise ValueError(f"need 1 <= s <= m <= n, got s={s}, m={m}, n={n}")
    if ctx is None:
        ctx = MultiGpuContext(n_gpus)
    if v0 is None:
        v0 = np.random.default_rng(seed).standard_normal(n)
    else:
        v0 = np.asarray(v0, dtype=np.float64)
        if v0.shape != (n,):
            raise ValueError(f"v0 must have shape ({n},)")
    norm0 = float(np.linalg.norm(v0))
    if norm0 == 0.0:
        raise ValueError("starting vector is zero")

    from ..serve.plan import PlanCache

    cache = PlanCache()
    lengths = mpk_block_lengths(s, m)
    plan = cache.structural_plan(
        ctx, cache.host_plan(matrix, "natural", balance=False), m, lengths,
        partition=partition, prebuild_mpk=lengths,
    )
    V = plan.V
    V.set_column_from_host(0, v0 / norm0)
    ctx.reset_clocks()

    hessenberg = _BlockHessenberg(m)
    for j in range(0, m, s):
        s_cur = min(s, m - j)
        ops = _block_shift_ops("newton", shifts, s_cur)
        with ctx.region("mpk"):
            plan.mpk_kernel(s_cur).run(V, j, ops)
        C, R, _ = _orthogonalize(
            ctx, V, j, s_cur, tsqr_method=tsqr_method, borth_method=borth_method
        )
        hessenberg.add_block(j, ops, C, R)

    ctx.host.charge_small_dense("eig", m)
    H = hessenberg.recover(m + 1)
    square = H[:m, :m]
    eigvals, eigvecs = np.linalg.eig(square)
    residuals = np.abs(H[m, m - 1]) * np.abs(eigvecs[m - 1, :])
    order = np.argsort(-np.abs(eigvals))
    fold = ctx.trace.fold()
    return CaArnoldiResult(
        ritz_values=eigvals[order],
        hessenberg=H,
        residuals=residuals[order],
        timers=fold.timers,
        counters=fold.counters.snapshot(),
    )

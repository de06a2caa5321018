"""Communication-Avoiding GMRES — CA-GMRES(s, m), Fig. 2 of the paper.

Each restart cycle generates the ``m+1``-vector basis in blocks of ``s``:

1. **MPK** produces ``s`` new candidate vectors from the last orthonormal
   basis vector with a single communication phase (monomial or Newton
   basis with Leja-ordered shifts, the Ritz values the host plan builds
   once per restart length: :meth:`~repro.serve.plan.HostPlan.newton_shifts`);
2. **BOrth** projects the candidates against the previous basis (block CGS
   or MGS);
3. **TSQR** orthonormalizes the panel (MGS / CGS / CholQR / SVQR / CAQR,
   optionally twice — the paper's "2x" configurations).

Hessenberg recovery
-------------------
Let block ``c`` start at orthonormal column ``j``.  MPK's output satisfies
the Krylov relation ``A [q_j, w_1 … w_{s-1}] = [q_j, w_1 … w_s] B_c`` with
``B_c`` the change-of-basis matrix, and orthogonalization expresses the raw
vectors in the Q basis: ``w_i = Q C[:, i] + Q_new R[:, i]``.  Collecting the
coefficient columns ``E_c = [e_j | (C; R)]``, the cycle satisfies

    A Q S = Q G,   with  S = [… E_c[:, 0:s_c] …],  G = [… E_c B_c …],

so ``H̲ = G S_m^{-1}`` is the (t+1) x t upper Hessenberg matrix of the
cycle (S_m is upper triangular with TSQR's positive diagonal).  The
least-squares problem ``min_z ||β e_1 - H̲ z||`` is then solved exactly as
in standard GMRES, and ``x += Q_{1:t} z``.

:func:`_orth_passes` is the library's one BOrth + TSQR path
(reorthogonalization, CAQR fallback, Fig. 13 error log; a cycle runs it
with ``yield from``, :func:`_orthogonalize` alone) and
:class:`_BlockHessenberg` its one block-to-Hessenberg assembly.

Breakdowns: CholQR fails (Cholesky of a numerically indefinite Gram matrix)
when the MPK basis is too ill-conditioned; by default the affected block
falls back to unconditionally stable CAQR and the event is counted
(``SolveResult.breakdowns``), which is the adaptive behavior the paper lists
as future work.  ``on_breakdown="raise"`` reproduces the paper's hard
failure mode instead.  An exactly zero diagonal of a block's ``R`` is a
lucky breakdown, not a failure: the Krylov space is invariant, and the
cycle ends at that column with the least-squares problem on its prefix,
as GMRES does.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg

from ..gpu.context import MultiGpuContext
from ..mpk.shifts import ShiftOp, monomial_shift_ops
from ..orth.borth import BORTH_METHODS, borth
from ..orth.errors import (
    CholeskyBreakdown,
    elementwise_error,
    factorization_error,
    orthogonality_error,
)
from ..orth.tsqr import _PRIMARY_KERNEL, TSQR_METHODS, tsqr
from ..perf.kernels import HOST_VARIANT, KERNEL_TABLE
from ..sparse.csr import CsrMatrix
from .basis import build_change_of_basis
from .convergence import SolveResult
from .degrade import DegradePolicy
from .gmres import (
    BlockRequest,
    RestartedRun,
    checked_true_residual,  # noqa: F401 - the restart loop calls it through this module
    compute_residual,
    fulfil_alone,
    normalize_first_column,
    update_solution,
)
from .lsq import hessenberg_lstsq
from .resilience import MAX_PANEL_RETRIES, RECOVERABLE_FAULTS, guard_finite

__all__ = ["ca_gmres", "CaGmresRun"]


class CaGmresRun(RestartedRun):
    """CA-GMRES(s, m) (Fig. 2) on the shared restart loop.

    The CA-specific arguments are as in :func:`ca_gmres`; every other
    argument is documented on :class:`~repro.core.gmres.RestartedRun`.
    The MPK kernels come from the run's current structural plan.
    """

    name = "ca_gmres"

    def __init__(
        self,
        b,
        plan,
        s: int = 15,
        basis: str = "newton",
        tsqr_method: str = "cholqr",
        tsqr_variant: str | None = None,
        borth_method: str = "cgs",
        reorth: int = 1,
        use_mpk: bool = True,
        on_breakdown: str = "fallback",
        collect_tsqr_errors: bool = False,
        adaptive_s: bool = False,
        **kwargs,
    ):
        self.s = s
        self.basis = basis
        self.tsqr_method = tsqr_method
        self.tsqr_variant = tsqr_variant
        self.borth_method = borth_method
        self.reorth = reorth
        self.use_mpk = use_mpk
        self.on_breakdown = on_breakdown
        self.tsqr_errors: list[dict] | None = [] if collect_tsqr_errors else None
        self.adapt_state = {"s_eff": s, "history": []} if adaptive_s else None
        super().__init__(b, plan, **kwargs)

    @classmethod
    def check_options(cls, m, options):
        super().check_options(m, options)
        s = options["s"]
        if not 1 <= s <= m:
            raise ValueError(f"need 1 <= s <= m, got s={s}, m={m}")
        if options["basis"] not in ("newton", "monomial"):
            raise ValueError(f"unknown basis {options['basis']!r}")
        if options["on_breakdown"] not in ("fallback", "raise"):
            raise ValueError(f"unknown on_breakdown {options['on_breakdown']!r}")
        if options["reorth"] < 1:
            raise ValueError(f"reorth must be >= 1, got {options['reorth']}")
        method, variant = options["tsqr_method"], options["tsqr_variant"]
        if method not in TSQR_METHODS:
            raise ValueError(f"unknown tsqr_method {method!r}; choose from {sorted(TSQR_METHODS)}")
        # A host BLAS variant would price the device Gram product at CPU rates.
        if variant not in (None, "auto") and (
            variant == HOST_VARIANT or (_PRIMARY_KERNEL[method], variant) not in KERNEL_TABLE
        ):
            raise ValueError(
                f"tsqr_variant {variant!r} is not a device variant for tsqr_method {method!r}"
            )
        if options["borth_method"] not in BORTH_METHODS:
            raise ValueError(f"unknown borth_method {options['borth_method']!r}")
        for flag in ("use_mpk", "collect_tsqr_errors", "adaptive_s"):
            if not isinstance(options[flag], (bool, np.bool_)):
                raise ValueError(f"{flag} must be a bool, got {options[flag]!r}")

    def _details(self) -> dict:
        details: dict = {}
        if self.tsqr_errors is not None:
            details["tsqr_errors"] = self.tsqr_errors
        if self.adapt_state is not None:
            details["s_history"] = self.adapt_state["history"]
        return details

    def cycle(self, offset, restart_index):
        """One CA-GMRES restart cycle; returns (iterations, breakdowns).

        Each block is a chain of MPK requests (:func:`_sub_blocks`) and
        its BOrth and TSQR passes (:func:`_orthogonalize`); the cycle's
        residual, first-column normalization and solution update are
        requests too.  The cycle yields them, on the basis of the run's
        batch slot, so a batch may fulfil them together with other runs'
        (:func:`~repro.core.gmres.run_lockstep`).
        """
        ctx, plan, m = self.ctx, self.st.plan, self.m
        V = plan.basis(self.request)
        beta = yield _Residual(plan.dmat, self.st.x, self.st.b, V)
        guard_finite(ctx, beta, "cycle residual norm")
        if beta == 0.0:
            return 0, 0
        yield _Normalize(V, beta)

        hessenberg = _BlockHessenberg(m)
        adapt_state = self.adapt_state
        breakdowns = 0
        j = 0
        while j < m:
            s_block = adapt_state["s_eff"] if adapt_state is not None else self.s
            s_cur = min(s_block, m - j)
            depth = s_cur if self.use_mpk else 1
            if self.basis == "newton":
                ops = plan.host.newton_ops(m, s_cur)
            else:
                ops = monomial_shift_ops(s_cur)
            # Candidate generation + orthogonalization, as one recoverable
            # unit: a fault detected anywhere in the block (corrupted MPK
            # exchange, poisoned kernel output caught by the BOrth/TSQR
            # guards) regenerates the candidates from the still-clean
            # V[:, :j+1] and re-orthogonalizes — the "panel retry" layer.
            panel_attempts = 0
            while True:
                try:
                    k = j
                    for sub in _sub_blocks(ops, depth):
                        yield BlockRequest(plan.mpk_kernel(len(sub)), V, k, sub)
                        k += len(sub)
                    C, R, block_breakdowns = yield from _orth_passes(
                        ctx, V, j, s_cur,
                        tsqr_method=self.tsqr_method,
                        tsqr_variant=self.tsqr_variant,
                        borth_method=self.borth_method,
                        reorth=self.reorth,
                        on_breakdown=self.on_breakdown,
                        error_log=self.tsqr_errors,
                        restart_index=restart_index,
                    )
                    break
                except RECOVERABLE_FAULTS:
                    if panel_attempts >= MAX_PANEL_RETRIES:
                        raise  # escalate to the cycle-redo layer
                    panel_attempts += 1
                    ctx.faults.note_recovery(
                        "panel-retry", time=ctx.current_time(),
                        block_start=j, attempt=panel_attempts,
                    )
            breakdowns += block_breakdowns
            if adapt_state is not None:
                _adapt_block_length(adapt_state, R, self.s, s_cur, block_breakdowns)
            hessenberg.add_block(j, ops, C, R)
            # An exactly zero diagonal of R: the raw vector it belongs to
            # lies in the span of the columns before it, so the Krylov space
            # is invariant (a lucky breakdown).  The cycle ends at that
            # column, with the least-squares problem on the prefix.
            invariant = np.flatnonzero(np.diag(R) == 0.0)
            j += int(invariant[0]) + 1 if invariant.size else s_cur
            t = j + 1
            # --- residual estimate (host small-dense work) ------------------
            with ctx.region("lsq"):
                ctx.host.charge_small_dense("lstsq_hessenberg", t)
                z, estimate = hessenberg_lstsq(hessenberg.recover(t), beta)
            self.history.record_estimate(offset + j, estimate)
            if estimate <= self.target or invariant.size:
                break
        # --- solution update: z from the last block's least squares -----
        yield _Update(V, self.st.x, z)
        return j, breakdowns


def ca_gmres(
    matrix: CsrMatrix,
    b: np.ndarray,
    ctx: MultiGpuContext | None = None,
    n_gpus: int = 1,
    ordering: str = "natural",
    s: int = 15,
    m: int = 60,
    basis: str = "newton",
    tsqr_method: str = "cholqr",
    tsqr_variant: str | None = None,
    borth_method: str = "cgs",
    reorth: int = 1,
    use_mpk: bool = True,
    tol: float = 1e-4,
    max_restarts: int = 500,
    balance: bool = True,
    x0: np.ndarray | None = None,
    on_breakdown: str = "fallback",
    collect_tsqr_errors: bool = False,
    adaptive_s: bool = False,
    preconditioner=None,
    degrade: DegradePolicy | None = None,
    deadline: float | None = None,
) -> SolveResult:
    """Solve ``A x = b`` with CA-GMRES(s, m) on simulated GPUs.

    A one-request :class:`~repro.serve.session.SolverSession`.

    Parameters
    ----------
    s
        Basis vectors generated per communication phase (1 <= s <= m).
    m
        Restart length (at most the problem size).
    basis
        ``"newton"`` (Leja-ordered Ritz shifts from ``m`` host Arnoldi
        steps on the balanced, preconditioned operator, built once per
        host plan and ``m`` and reused by every later solve — see
        :meth:`~repro.serve.plan.HostPlan.newton_shifts`; every restart,
        the first included, is a CA cycle) or ``"monomial"``.
    tsqr_method, tsqr_variant
        Intra-block factorization (``cholqr``/``svqr``/``cgs``/``mgs``/
        ``caqr``) and its device-kernel variant.
    borth_method
        Inter-block projection (``"cgs"`` — the paper's choice — or
        ``"mgs"``).
    reorth
        Orthogonalization passes, at least 1 (2 = the paper's "2x" rows).
    use_mpk
        Generate each block with one matrix powers kernel call of depth
        ``s``; ``False`` chains depth-1 calls (plain SpMVs: what Fig. 15
        falls back to when MPK is slower; depth 2 per complex shift pair).
    on_breakdown
        ``"fallback"`` (retry the failing block's TSQR with CAQR) or
        ``"raise"``.
    collect_tsqr_errors
        Record per-TSQR orthogonality / factorization / element-wise errors
        (Fig. 13) into ``result.details["tsqr_errors"]``.
    adaptive_s
        The adaptive step-size scheme the paper lists as future work
        (Section VII, their ref. [23]): monitor the conditioning of each
        block's R factor; halve the working ``s`` when the basis degrades
        (diag-ratio > 1e10) and grow it back toward the requested ``s``
        while the basis stays healthy.  The chosen block lengths are
        recorded in ``result.details["s_history"]``.

    The other parameters are documented on :func:`~repro.core.gmres.gmres`
    and :class:`~repro.core.gmres.RestartedRun`.

    Returns
    -------
    SolveResult
    """
    from ..serve.session import SolverSession

    return SolverSession(
        matrix, solver="ca", ctx=ctx, n_gpus=n_gpus, ordering=ordering, m=m,
        s=s, basis=basis, balance=balance, tol=tol, max_restarts=max_restarts,
        preconditioner=preconditioner, tsqr_method=tsqr_method,
        tsqr_variant=tsqr_variant, borth_method=borth_method, reorth=reorth,
        use_mpk=use_mpk, on_breakdown=on_breakdown,
        collect_tsqr_errors=collect_tsqr_errors, adaptive_s=adaptive_s,
    ).solve(b, x0=x0, degrade=degrade, deadline=deadline)


def _adapt_block_length(adapt_state, R, s_max, s_used, block_breakdowns) -> None:
    """Adjust the working block length from the block's R conditioning.

    The ratio of extreme R diagonals is a cheap lower bound on kappa of the
    projected basis: above 1e10 (or after a breakdown) the next block is
    halved; below 1e4 it grows by 50% back toward the requested ``s``.
    """
    diag = np.abs(np.diag(R))
    ratio = float(diag.max() / max(diag.min(), 1e-300)) if diag.size else 1.0
    s_eff = adapt_state["s_eff"]
    if block_breakdowns or ratio > 1e10:
        s_eff = max(2, s_used // 2)
    elif ratio < 1e4:
        s_eff = min(s_max, max(s_eff, int(np.ceil(1.5 * s_used))))
    adapt_state["s_eff"] = s_eff
    adapt_state["history"].append({"s_used": s_used, "diag_ratio": ratio})


def _sub_blocks(ops, depth: int) -> list:
    """Split a block's shift ops into consecutive runs of at most ``depth``
    steps, one MPK request each.  A run that would end on a
    ``complex_first`` takes its ``complex_second`` too: the second step
    reads the first one's extended rows, so a pair never spans two runs."""
    runs, start = [], 0
    while start < len(ops):
        end = min(start + depth, len(ops))
        if ops[end - 1].kind == "complex_first":
            end += 1
        runs.append(ops[start:end])
        start = end
    return runs


def _orthogonalize(ctx, V, j, s_cur, **options):
    """The combined Orth step: BOrth + TSQR on block ``[j+1, j+s_cur+1)``.

    One pass projects the block against ``Q_prev = V[:, :j+1]`` and
    factors what remains; each further pass (``reorth`` in total, 2 = the
    paper's "2x" rows) repeats both and composes the coefficients
    (``C += C_pass R``, ``R = R_pass R``).  Returns ``(C, R, breakdowns)``
    with ``W_raw = Q_prev C + Q_new R``.  A CholQR breakdown falls back to
    CAQR unless ``on_breakdown == "raise"``; with an ``error_log`` list,
    every TSQR appends its Fig. 13 errors to it.  The options are those of
    :func:`_orth_passes`, the form a cycle runs, which this runs alone.
    """
    return fulfil_alone(ctx, _orth_passes(ctx, V, j, s_cur, **options))


def _orth_passes(
    ctx, V, j, s_cur, tsqr_method="cholqr", tsqr_variant=None,
    borth_method="cgs", reorth=1, on_breakdown="fallback", error_log=None,
    restart_index=0,
):
    """:func:`_orthogonalize` as a generator, like the cycle that runs it
    with ``yield from``: it yields each pass's :class:`_Borth` and
    :class:`_Tsqr` requests, which a batch fulfils together."""
    v_panels = V.panel(j + 1, j + s_cur + 1)
    q_panels = V.panel(0, j + 1)
    C_total = np.zeros((j + 1, s_cur), dtype=np.float64)
    R_total = np.eye(s_cur, dtype=np.float64)
    breakdowns = 0
    for p in range(reorth):
        C_pass = yield _Borth(q_panels, v_panels, j, s_cur, 2 * p, borth_method)
        guard_finite(ctx, C_pass, "BOrth coefficients")
        if error_log is not None:
            pre = _gather_panel(V, j + 1, j + s_cur + 1)
        R_pass, fell_back = yield _Tsqr(
            v_panels, j, s_cur, 2 * p + 1, tsqr_method, tsqr_variant, on_breakdown
        )
        breakdowns += fell_back
        if error_log is not None:
            post = _gather_panel(V, j + 1, j + s_cur + 1)
            error_log.append(
                {
                    "restart": restart_index,
                    "block_start": j,
                    "orthogonality": orthogonality_error(post),
                    "factorization": factorization_error(pre, post, R_pass),
                    "elementwise": elementwise_error(pre, post, R_pass),
                }
            )
        C_total = C_total + C_pass @ R_total
        R_total = R_pass @ R_total
    return C_total, np.triu(R_total), breakdowns


# -- the cycle's communicating phases, as requests ---------------------------
# Positions order a cycle's requests (see :class:`~repro.core.gmres.
# BlockRequest`, whose MPK blocks sit at ``(j, 1, 0)``): the residual and
# the normalization open column 0, the Orth passes of the block ending at
# column ``e`` come before the next block's MPK at ``e``, and the update
# follows the last block.  Each ``fulfil`` runs its phase for the whole
# group in one region, one message per device per reduction and broadcast.


class _Residual(NamedTuple):
    """``V[:, 0] := b - A x`` and its norm, at the cycle start."""

    dmat: object
    x: object
    b: object
    V: object
    position = (0, 0, 0)

    def key(self):
        # Alone when x is not finite: its SpMV exchange would detect it
        # (an uncosted host check).
        finite = all(np.isfinite(part.data).all() for part in self.x.parts())
        return (self.dmat,) if finite else None

    @staticmethod
    def fulfil(ctx, requests, tags):
        with ctx.region("spmv"):
            return compute_residual(
                ctx, requests[0].dmat, [r.x for r in requests],
                [r.b for r in requests], [r.V for r in requests], tags=tags,
            )


class _Normalize(NamedTuple):
    """``V[:, 0] /= beta``."""

    V: object
    beta: float
    position = (0, 0, 1)

    def key(self):
        return ()

    @staticmethod
    def fulfil(ctx, requests, tags):
        with ctx.region("borth"):
            return normalize_first_column(
                ctx, [r.V for r in requests], [r.beta for r in requests], tags=tags
            )


class _Borth(NamedTuple):
    """One BOrth pass of the block ``[j+1, j+s_cur+1)``."""

    q_panels: list
    v_panels: list
    j: int
    s_cur: int
    ordinal: int
    method: str

    @property
    def position(self):
        return (self.j + self.s_cur, 0, self.ordinal)

    def key(self):
        return (self.j, self.method)

    @staticmethod
    def fulfil(ctx, requests, tags):
        with ctx.region("borth"):
            return borth(
                ctx, [r.q_panels for r in requests], [r.v_panels for r in requests],
                method=requests[0].method, tags=tags,
            )


class _Tsqr(NamedTuple):
    """One TSQR pass of the block ``[j+1, j+s_cur+1)``; its outcome is
    ``(R, 1)`` after a CholQR breakdown fell back to CAQR, else ``(R, 0)``."""

    panels: list
    j: int
    s_cur: int
    ordinal: int
    method: str
    variant: str | None
    on_breakdown: str

    @property
    def position(self):
        return (self.j + self.s_cur, 0, self.ordinal)

    def key(self):
        return (self.j, self.method, self.variant, self.on_breakdown)

    @staticmethod
    def fulfil(ctx, requests, tags):
        first = requests[0]
        with ctx.region("tsqr"):
            try:
                Rs = tsqr(
                    ctx, [r.panels for r in requests], method=first.method,
                    variant=first.variant, tags=tags,
                )
            except CholeskyBreakdown as exc:  # the call broke down as a whole
                Rs = [exc] * len(requests)
            fell_back = [
                isinstance(R, CholeskyBreakdown) and first.on_breakdown == "fallback"
                for R in Rs
            ]
            if any(fell_back):
                # Only the runs that broke down pay for the fallback; the
                # others kept the shared R broadcast.
                redo = [i for i, f in enumerate(fell_back) if f]
                retried = tsqr(
                    ctx, [requests[i].panels for i in redo], method="caqr",
                    tags=[tags[i] for i in redo],
                )
                for i, R in zip(redo, retried):
                    Rs[i] = R
        return [
            R if isinstance(R, Exception) else (R, int(f)) for R, f in zip(Rs, fell_back)
        ]


class _Update(NamedTuple):
    """``x += V[:, :t] z`` after the cycle's last block (``t = z.size``)."""

    V: object
    x: object
    z: np.ndarray

    @property
    def position(self):
        return (self.z.size, 2, 0)

    def key(self):
        return ()

    @staticmethod
    def fulfil(ctx, requests, tags):
        with ctx.region("update"):
            for r in requests:
                ctx.host.charge_small_dense("trsv", r.z.size)
            return update_solution(
                ctx, [r.V for r in requests], [r.x for r in requests],
                [r.z for r in requests], tags=tags,
            )


def _gather_panel(V, j0, j1) -> np.ndarray:
    """Uncosted host copy of a panel (diagnostics only)."""
    out = np.empty((V.n_rows, j1 - j0), dtype=np.float64)
    for d in range(V.ctx.n_gpus):
        rows = V.partition.rows_of(d)
        out[rows] = V.local[d].data[:, j0:j1]
    return out


class _BlockHessenberg:
    """Block-by-block assembly of ``A Q S = Q G`` (see the module docstring).

    Block ``c`` starting at orthonormal column ``j`` contributes
    ``S[:, j:j+s_c] = E_c[:, :s_c]`` and ``G[:, j:j+s_c] = E_c B_c`` with
    ``E_c = [e_j | (C; R)]``, the coefficients of its raw MPK vectors in
    the Q basis.
    """

    def __init__(self, m: int):
        self.S = np.zeros((m + 1, m), dtype=np.float64)
        self.G = np.zeros((m + 1, m), dtype=np.float64)

    def add_block(self, j: int, ops: list[ShiftOp], C: np.ndarray, R: np.ndarray) -> None:
        s_cur = R.shape[0]
        E = np.zeros((self.S.shape[0], s_cur + 1), dtype=np.float64)
        E[j, 0] = 1.0
        E[: j + 1, 1:] = C
        E[j + 1 : j + s_cur + 1, 1:] = R
        self.S[:, j : j + s_cur] = E[:, :s_cur]
        self.G[:, j : j + s_cur] = E @ build_change_of_basis(ops)

    def recover(self, t: int) -> np.ndarray:
        """``H̲ = G S_m^{-1}`` for the first ``t`` orthonormal columns."""
        # Right-division by the upper-triangular S_m.
        return scipy.linalg.solve_triangular(
            self.S[: t - 1, : t - 1].T, self.G[:t, : t - 1].T,
            lower=True, check_finite=False,
        ).T

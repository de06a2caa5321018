"""Solver-level fault campaigns: detection, recovery, structured aborts.

Scripted triggers below were chosen so the fault lands inside the solve
(the injector's per-site opportunity counters restart at
``ctx.reset_clocks()``, i.e. at the top of every solver run).
"""

import functools

import numpy as np
import pytest

from repro.core.ca_gmres import ca_gmres
from repro.core.gmres import gmres
from repro.core.pipelined import pipelined_gmres
from repro.faults import FaultEvent, FaultPlan
from repro.gpu.context import MultiGpuContext
from repro.matrices.stencil import poisson2d
from repro.sparse.csr import CsrMatrix


def make_problem(nx=12):
    A = poisson2d(nx)
    return A, np.ones(A.n_rows)


def scripted_ctx(*events, n_gpus=2):
    return MultiGpuContext(n_gpus, fault_plan=FaultPlan.scripted(events))


class TestTransferCorruptionRecovery:
    def test_corrupt_transfer_detected_and_convergence_unchanged(self):
        A, b = make_problem()
        clean = gmres(A, b, n_gpus=2, m=10, tol=1e-8, max_restarts=30)
        ctx = scripted_ctx(FaultEvent("pcie", "corrupt", trigger=7, position=3))
        with np.errstate(invalid="ignore", over="ignore"):
            faulty = gmres(A, b, ctx=ctx, m=10, tol=1e-8, max_restarts=30)
        faults = faulty.details["faults"]
        assert faults["counts"] == {
            "injected": 1, "detected": 1, "recovered": 1, "unrecovered": 0
        }
        # Recovery replays from an exact checkpoint: numerics identical.
        assert faulty.converged and faulty.n_iterations == clean.n_iterations
        assert faulty.history.true_residuals == clean.history.true_residuals
        assert faulty.history.estimates == clean.history.estimates
        np.testing.assert_array_equal(faulty.x, clean.x)
        # ... but the redo costs simulated time.
        assert faulty.total_time > clean.total_time

    @pytest.mark.parametrize(
        "solve", [gmres, functools.partial(ca_gmres, s=4)], ids=["gmres", "ca_gmres"]
    )
    def test_setup_transfers_draw_no_faults(self, solve):
        """Distributing ``b`` is uncosted setup, so a corrupt scripted on
        the first bus message lands on the solve's own first transfer and is
        recovered; it used to escape the solver from the setup copy."""
        A, b = make_problem()
        ctx = scripted_ctx(FaultEvent("pcie", "corrupt", trigger=0))
        with np.errstate(invalid="ignore", over="ignore"):
            result = solve(A, b, ctx=ctx, m=8, tol=1e-8, max_restarts=30)
        assert result.converged
        assert result.details["faults"]["counts"] == {
            "injected": 1, "detected": 1, "recovered": 1, "unrecovered": 0
        }

    def test_corrupt_inside_exchange_uses_transfer_retry(self):
        A, b = make_problem()
        # Trigger 20 lands on a halo-exchange message (calibrated).
        ctx = scripted_ctx(FaultEvent("pcie", "corrupt", trigger=20))
        with np.errstate(invalid="ignore", over="ignore"):
            result = gmres(A, b, ctx=ctx, m=10, tol=1e-8, max_restarts=30)
        faults = result.details["faults"]
        assert result.converged and faults["counts"]["unrecovered"] == 0
        assert [r["action"] for r in faults["recovered"]] == ["transfer-retry"]


class TestPoisonRecovery:
    def test_poisoned_panel_retried_in_ca_gmres(self):
        A, b = make_problem()
        clean = ca_gmres(
            A, b, n_gpus=2, s=4, m=12, basis="monomial", tol=1e-8,
            max_restarts=30,
        )
        ctx = scripted_ctx(FaultEvent("gpu0", "poison", trigger=30, position=9))
        with np.errstate(invalid="ignore", over="ignore"):
            faulty = ca_gmres(
                A, b, ctx=ctx, s=4, m=12, basis="monomial", tol=1e-8,
                max_restarts=30,
            )
        faults = faulty.details["faults"]
        assert faults["counts"]["recovered"] == 1
        assert [r["action"] for r in faults["recovered"]] == ["panel-retry"]
        assert faulty.converged and faulty.n_iterations == clean.n_iterations
        assert faulty.history.true_residuals == clean.history.true_residuals
        np.testing.assert_array_equal(faulty.x, clean.x)

    def test_poisoned_halo_placement_retried_at_its_block(self):
        A, b = make_problem()
        clean = ca_gmres(
            A, b, n_gpus=2, s=4, m=12, basis="monomial", tol=1e-8,
            max_restarts=30,
        )
        # Trigger 30 is gpu0's halo-placement copy in the MPK call of the
        # first cycle's second block, j = 4 (calibrated; checked below).
        ctx = scripted_ctx(FaultEvent("gpu0", "poison", trigger=30, position=5))
        with np.errstate(invalid="ignore", over="ignore"):
            faulty = ca_gmres(
                A, b, ctx=ctx, s=4, m=12, basis="monomial", tol=1e-8,
                max_restarts=30,
            )
        faults = faulty.details["faults"]
        (injected,) = faults["injected"]
        kernels = [e for e in ctx.trace.events if e.lane == "gpu0" and e.kind == "kernel"]
        at = next(i for i, e in enumerate(kernels) if e.start == injected["time"])
        # gather copy, own-row copy, the four steps' halo-independent rows
        # (launched while the halo was on the bus), the halo copy, then the
        # rest of the block's first step
        assert [e.name for e in kernels[at - 6 : at + 2]] == [
            "copy/cublas", "copy/cublas", *["spmv_step/ellpack"] * 4,
            "copy/cublas", "spmv_step/ellpack",
        ]
        assert [(r["action"], r["block_start"]) for r in faults["recovered"]] == [
            ("panel-retry", 4)
        ]
        assert faults["counts"]["unrecovered"] == 0
        assert faulty.converged and faulty.n_iterations == clean.n_iterations
        assert faulty.history.true_residuals == clean.history.true_residuals
        np.testing.assert_array_equal(faulty.x, clean.x)

    def test_poisoned_phase1_launch_retried_at_its_block(self):
        """A poison on a step launch that runs while the halo is on the
        bus lands in the rows it computed; the block's guards catch it and
        the panel retry regenerates the block, as for any MPK launch."""
        A, b = make_problem()
        clean = ca_gmres(
            A, b, n_gpus=2, s=4, m=12, basis="monomial", tol=1e-8,
            max_restarts=30,
        )
        # Trigger 26 is gpu0's first step launch in the MPK call of the
        # first cycle's second block, j = 4 (calibrated; checked below).
        ctx = scripted_ctx(FaultEvent("gpu0", "poison", trigger=26, position=5))
        with np.errstate(invalid="ignore", over="ignore"):
            faulty = ca_gmres(
                A, b, ctx=ctx, s=4, m=12, basis="monomial", tol=1e-8,
                max_restarts=30,
            )
        faults = faulty.details["faults"]
        (injected,) = faults["injected"]
        kernels = [e for e in ctx.trace.events if e.lane == "gpu0" and e.kind == "kernel"]
        at = next(i for i, e in enumerate(kernels) if e.start == injected["time"])
        halo = next(e for e in ctx.trace.events
                    if e.kind == "h2d" and e.args["peer"] == "gpu0" and e.start > kernels[at - 2].start)
        # gather copy, own-row copy, then the poisoned launch, before the
        # halo lands
        assert [e.name for e in kernels[at - 2 : at + 1]] == [
            "copy/cublas", "copy/cublas", "spmv_step/ellpack"
        ]
        assert kernels[at].start < halo.start + halo.duration
        assert [(r["action"], r["block_start"]) for r in faults["recovered"]] == [
            ("panel-retry", 4)
        ]
        assert faults["counts"]["unrecovered"] == 0
        assert faulty.converged and faulty.n_iterations == clean.n_iterations
        assert faulty.history.true_residuals == clean.history.true_residuals
        np.testing.assert_array_equal(faulty.x, clean.x)

    def test_late_poison_escalates_to_cycle_redo(self):
        A, b = make_problem()
        # Trigger 113 poisons a kernel after the panel loop (calibrated: the
        # halo-placement copy of cycle 3's residual SpMV, which delivers it
        # into the halo it placed): the panel-retry layer cannot catch it,
        # the cycle checkpoint does.
        ctx = scripted_ctx(FaultEvent("gpu0", "poison", trigger=113, position=9))
        with np.errstate(invalid="ignore", over="ignore"):
            result = ca_gmres(
                A, b, ctx=ctx, s=4, m=12, basis="monomial", tol=1e-8,
                max_restarts=30,
            )
        faults = result.details["faults"]
        assert result.converged and faults["counts"]["unrecovered"] == 0
        assert [r["action"] for r in faults["recovered"]] == ["cycle-redo"]


class TestDeviceDropout:
    def test_dropout_returns_structured_report_without_raising(self):
        A, b = make_problem()
        ctx = scripted_ctx(FaultEvent("gpu1", "dropout", trigger=40))
        with np.errstate(invalid="ignore", over="ignore"):
            result = ca_gmres(
                A, b, ctx=ctx, s=4, m=12, basis="monomial", tol=1e-8,
                max_restarts=30,
            )
        assert not result.converged
        faults = result.details["faults"]
        assert faults["aborted"]
        assert faults["lost_devices"] == ["gpu1"]
        assert [u["error"] for u in faults["unrecovered"]] == ["DeviceLost"]
        # The solver hands back the last checkpointed iterate, still finite.
        assert np.all(np.isfinite(result.x))
        assert "faults" in result.summary()

    def test_dropout_in_gmres_also_structured(self):
        A, b = make_problem()
        ctx = scripted_ctx(FaultEvent("gpu0", "dropout", trigger=25))
        with np.errstate(invalid="ignore", over="ignore"):
            result = gmres(A, b, ctx=ctx, m=10, tol=1e-8, max_restarts=30)
        assert not result.converged
        assert result.details["faults"]["lost_devices"] == ["gpu0"]


class TestTraceExport:
    def test_fault_events_appear_in_chrome_trace(self):
        A, b = make_problem()
        ctx = scripted_ctx(FaultEvent("gpu0", "poison", trigger=30, position=9))
        with np.errstate(invalid="ignore", over="ignore"):
            ca_gmres(
                A, b, ctx=ctx, s=4, m=12, basis="monomial", tol=1e-8,
                max_restarts=30,
            )
        chrome = ctx.trace.to_chrome_trace()
        cats = {e.get("cat") for e in chrome["traceEvents"] if "cat" in e}
        assert {"fault", "detect", "recover"} <= cats


class TestZeroRateBitIdentity:
    def test_zero_rate_plan_bit_identical(self):
        """An armed-but-silent plan changes nothing: numerics or clocks."""
        A, b = make_problem(10)
        ctx = MultiGpuContext(2, fault_plan=FaultPlan.from_rate(0, 0.0))
        result = ca_gmres(A, b, ctx=ctx, s=4, m=12, tol=1e-8, max_restarts=30)
        baseline = ca_gmres(A, b, n_gpus=2, s=4, m=12, tol=1e-8, max_restarts=30)
        np.testing.assert_array_equal(result.x, baseline.x)
        assert result.history.true_residuals == baseline.history.true_residuals
        assert result.history.estimates == baseline.history.estimates
        assert result.timers == baseline.timers
        assert result.total_time == baseline.total_time
        assert "faults" not in result.details


class TestLoudOverflow:
    """Without any fault plan, an overflowing basis aborts loudly.

    Scaling ``poisson2d(16)`` by 1e160 makes the first matrix-vector
    product overflow to Inf.  Every solver's guards catch it, the cycle
    is redone until its budget runs out, and the solve returns the
    finite restart-boundary checkpoint with an ``unrecovered`` record,
    instead of an Arnoldi breakdown or a silently non-finite ``x``.
    """

    @pytest.mark.parametrize(
        "solve",
        [
            lambda A, b, **kw: gmres(A, b, m=12, **kw),
            lambda A, b, **kw: pipelined_gmres(A, b, m=12, **kw),
            lambda A, b, **kw: ca_gmres(A, b, s=4, m=12, basis="monomial", **kw),
        ],
        ids=["gmres", "pipelined", "ca_gmres"],
    )
    def test_overflow_returns_checkpoint_with_unrecovered_record(self, solve):
        base = poisson2d(16)
        A = CsrMatrix(base.shape, base.indptr, base.indices, base.data * 1e160)
        b = np.ones(A.n_rows)
        with np.errstate(over="ignore", invalid="ignore"):
            result = solve(A, b, n_gpus=2, balance=False, max_restarts=3)
        assert np.all(np.isfinite(result.x))
        assert not result.converged
        faults = result.details["faults"]
        assert faults["aborted"] is True
        assert len(faults["unrecovered"]) == 1

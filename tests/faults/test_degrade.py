"""Degraded-mode recovery: device loss -> live repartition -> resume.

The acceptance scenario from the issue: a scripted dropout on device 1 of
3 mid-solve completes on 2 devices at the same converged residual
tolerance as a fault-free run, records the repartition in
``details["degradation"]`` and on the fault trace lane, and replays
bit-identically.  Plus the policy knobs (budgets, minimum devices,
exhaustion action), the deadline watchdog, and the bit-inertness
guarantees for runs that never degrade.
"""

import numpy as np
import pytest

from repro.core import DegradationManager, DegradePolicy, derive_partition
from repro.core.ca_gmres import ca_gmres
from repro.core.gmres import gmres
from repro.core.pipelined import pipelined_gmres
from repro.faults import FaultEvent, FaultPlan
from repro.faults.errors import DeviceLost
from repro.gpu.context import MultiGpuContext
from repro.matrices.stencil import convection_diffusion2d, poisson2d

DROPOUT = FaultEvent("gpu1", "dropout", trigger=40)


def make_problem(nx=20, seed=7):
    A = poisson2d(nx)
    b = np.random.default_rng(seed).standard_normal(A.n_rows)
    return A, b


def dropout_ctx(*events, n_gpus=3):
    events = events or (DROPOUT,)
    return MultiGpuContext(n_gpus, fault_plan=FaultPlan.scripted(events))


def solve(ctx, A, b, **kw):
    kw.setdefault("s", 4)
    kw.setdefault("m", 12)
    kw.setdefault("basis", "monomial")
    return ca_gmres(A, b, ctx=ctx, **kw)


def trace_kinds(ctx):
    return {e.kind for e in ctx.trace.events}


class TestDropoutAbsorbed:
    def test_acceptance_scenario(self):
        """Dropout on 1 of 3 GPUs: converge on 2, report, trace, replay."""
        A, b = make_problem()
        ctx = dropout_ctx()
        res = solve(ctx, A, b, degrade=DegradePolicy())

        # Completes on the survivors at the fault-free tolerance.
        ref = solve(MultiGpuContext(3), A, b)
        assert res.converged and ref.converged
        nb = np.linalg.norm(b)
        assert np.linalg.norm(b - A.matvec(res.x)) / nb <= 1e-4
        assert np.linalg.norm(b - A.matvec(ref.x)) / nb <= 1e-4

        # The repartition is recorded in the degradation report...
        deg = res.details["degradation"]
        assert deg["n_repartitions"] == 1
        assert deg["initial_devices"] == 3 and deg["final_devices"] == 2
        (event,) = deg["repartitions"]
        assert event["lost"] == ["gpu1"]
        assert event["devices_before"] == 3 and event["devices_after"] == 2
        assert sum(event["part_sizes"]) == A.n_rows
        assert not deg["deadline_exceeded"]

        # ...and the solve did NOT abort: the dropout shows as injected
        # but the faults report carries no unrecovered record.
        faults = res.details["faults"]
        assert not faults["aborted"] and faults["unrecovered"] == []

        # Degraded-mode events land on the fault trace lane.
        kinds = trace_kinds(ctx)
        assert "degraded" in kinds and "repartition" in kinds

        # Counters track the degradation.
        assert res.counters["device_deactivations"] == 1
        assert res.counters["repartitions"] == 1

    def test_replay_is_bit_identical(self):
        A, b = make_problem()
        first_ctx = dropout_ctx()
        first = solve(first_ctx, A, b, degrade=DegradePolicy())
        # Fresh context, same plan.
        fresh = solve(dropout_ctx(), A, b, degrade=DegradePolicy())
        # Reused context: reset_clocks restores the roster + fault streams.
        reused = solve(first_ctx, A, b, degrade=DegradePolicy())
        for other in (fresh, reused):
            assert np.array_equal(first.x, other.x)
            assert first.history.estimates == other.history.estimates
            assert first.history.true_residuals == other.history.true_residuals
            assert first.timers == other.timers
            assert first.details["degradation"] == other.details["degradation"]

    def test_trace_replays_identically(self):
        A, b = make_problem()
        ctx1, ctx2 = dropout_ctx(), dropout_ctx()
        solve(ctx1, A, b, degrade=DegradePolicy())
        solve(ctx2, A, b, degrade=DegradePolicy())
        sig = lambda ctx: [  # noqa: E731
            (e.name, e.lane, e.kind, e.start, e.duration)
            for e in ctx.trace.events
        ]
        assert sig(ctx1) == sig(ctx2)

    def test_double_dropout_down_to_one_device(self):
        A, b = make_problem()
        ctx = dropout_ctx(
            FaultEvent("gpu1", "dropout", trigger=40),
            FaultEvent("gpu0", "dropout", trigger=90),
        )
        res = solve(ctx, A, b, degrade=DegradePolicy())
        deg = res.details["degradation"]
        assert res.converged
        assert deg["n_repartitions"] == 2 and deg["final_devices"] == 1
        lost = [e["lost"] for e in deg["repartitions"]]
        assert lost == [["gpu1"], ["gpu0"]]

    @pytest.mark.parametrize("solver", [gmres, pipelined_gmres])
    def test_other_solvers_absorb_dropout(self, solver):
        A, b = make_problem()
        ctx = dropout_ctx(FaultEvent("gpu2", "dropout", trigger=60))
        res = solver(A, b, ctx=ctx, m=20, degrade=DegradePolicy())
        deg = res.details["degradation"]
        assert res.converged
        assert deg["n_repartitions"] == 1 and deg["final_devices"] == 2

    def test_newton_basis_absorbs_dropout(self):
        A, b = make_problem()
        ctx = dropout_ctx(FaultEvent("gpu0", "dropout", trigger=200))
        res = solve(ctx, A, b, basis="newton", degrade=DegradePolicy())
        deg = res.details["degradation"]
        assert res.converged and deg["n_repartitions"] == 1

    def test_kway_strategy(self):
        A, b = make_problem()
        ctx = dropout_ctx()
        res = solve(ctx, A, b, degrade=DegradePolicy(strategy="kway"))
        assert res.converged
        assert res.details["degradation"]["n_repartitions"] == 1


class TestFaultDuringRebuild:
    """The rebuild onto the survivors issues transfers, which may fault too."""

    #: PCIe opportunity index of the rebuild's first h2d after DROPOUT
    #: (calibrated on :func:`make_problem`, 3 GPUs, :func:`solve` defaults).
    REBUILD_H2D = 54

    def corrupted_rebuild(self, n_corrupt):
        events = [DROPOUT] + [
            FaultEvent("pcie", "corrupt", trigger=self.REBUILD_H2D + i)
            for i in range(n_corrupt)
        ]
        A, b = make_problem()
        with np.errstate(invalid="ignore", over="ignore"):
            res = solve(dropout_ctx(*events), A, b, degrade=DegradePolicy())
        return A, b, res

    def test_corrupt_rebuild_is_replayed_as_cycle_redo(self):
        A, b, res = self.corrupted_rebuild(1)
        faults = res.details["faults"]
        recovered = [(r["action"], r["cause"]) for r in faults["recovered"]]
        assert recovered == [("cycle-redo", "TransferCorruption")]
        assert not faults["aborted"]
        # The replayed rebuild restarts from the same checkpoint.
        ref = solve(dropout_ctx(), A, b, degrade=DegradePolicy())
        assert res.converged
        np.testing.assert_array_equal(res.x, ref.x)
        assert res.history == ref.history

    def test_rebuild_beyond_redo_budget_aborts_structured(self):
        A, b, res = self.corrupted_rebuild(4)
        faults = res.details["faults"]
        assert not res.converged and faults["aborted"]
        (rec,) = faults["unrecovered"]
        assert rec["error"] == "TransferCorruption"
        assert rec["action"] == "cycle-redo budget exhausted"
        assert [r["action"] for r in faults["recovered"]] == ["cycle-redo"] * 3
        # The returned iterate is the full pre-loss checkpoint.
        assert res.x.shape == (A.n_rows,) and np.all(np.isfinite(res.x))
        assert res.details["degradation"]["n_repartitions"] == 1

    def test_rate_plan_fault_in_rebuild_does_not_escape(self):
        A = convection_diffusion2d(24)
        b = np.random.default_rng(0).standard_normal(A.n_rows)
        plan = FaultPlan(
            seed=10, rate=0.005, kinds=("corrupt", "poison", "stall", "dropout")
        )
        with np.errstate(invalid="ignore", over="ignore"):
            res = ca_gmres(
                A, b, ctx=MultiGpuContext(3, fault_plan=plan), m=12, s=4,
                tol=1e-8, max_restarts=30, degrade=DegradePolicy(),
            )
        faults = res.details["faults"]
        assert res.details["degradation"]["n_repartitions"] >= 1
        assert res.converged or faults["aborted"]
        assert np.all(np.isfinite(res.x))


class TestPolicyBudgets:
    def test_min_devices_exhaustion_aborts(self):
        A, b = make_problem()
        res = solve(dropout_ctx(), A, b, degrade=DegradePolicy(min_devices=3))
        assert not res.converged
        assert res.details["faults"]["aborted"]
        assert res.details["degradation"]["n_repartitions"] == 0
        # The structured record matches the policy-less abort shape.
        (rec,) = res.details["faults"]["unrecovered"]
        assert rec["error"] == "DeviceLost" and rec["site"] == "gpu1"

    def test_max_repartitions_budget(self):
        A, b = make_problem()
        ctx = dropout_ctx(
            FaultEvent("gpu1", "dropout", trigger=40),
            FaultEvent("gpu0", "dropout", trigger=90),
        )
        res = solve(ctx, A, b, degrade=DegradePolicy(max_repartitions=1))
        deg = res.details["degradation"]
        assert deg["n_repartitions"] == 1 and deg["final_devices"] == 2
        assert res.details["faults"]["aborted"]

    def test_on_exhausted_raise(self):
        A, b = make_problem()
        policy = DegradePolicy(min_devices=3, on_exhausted="raise")
        with pytest.raises(DeviceLost):
            solve(dropout_ctx(), A, b, degrade=policy)

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_repartitions"):
            DegradePolicy(max_repartitions=-1)
        with pytest.raises(ValueError, match="min_devices"):
            DegradePolicy(min_devices=0)
        with pytest.raises(ValueError, match="strategy"):
            DegradePolicy(strategy="hash")
        with pytest.raises(ValueError, match="on_exhausted"):
            DegradePolicy(on_exhausted="panic")

    def test_derive_partition_strategies(self):
        A, _ = make_problem(nx=8)
        p = derive_partition(A, 2)
        assert p.n_parts == 2 and p.n_rows == A.n_rows
        k = derive_partition(A, 2, strategy="kway")
        assert k.n_parts == 2
        with pytest.raises(ValueError, match="strategy"):
            derive_partition(A, 2, strategy="hash")


class TestDeadlineWatchdog:
    def test_deadline_stops_solve(self):
        A, b = make_problem()
        res = solve(MultiGpuContext(3), A, b, deadline=1e-9, max_restarts=50)
        deg = res.details["degradation"]
        assert not res.converged
        assert deg["deadline_exceeded"]
        assert deg["deadline_exceeded_at"] > 0.0
        # Tripped at the first restart boundary: exactly one cycle ran.
        assert res.n_restarts == 1

    def test_deadline_event_on_trace(self):
        A, b = make_problem()
        ctx = MultiGpuContext(3)
        solve(ctx, A, b, deadline=1e-9)
        assert "deadline-exceeded" in trace_kinds(ctx)

    def test_generous_deadline_is_inert(self):
        A, b = make_problem()
        timed = solve(MultiGpuContext(3), A, b, deadline=1e9)
        plain = solve(MultiGpuContext(3), A, b)
        assert np.array_equal(timed.x, plain.x)
        assert timed.timers == plain.timers
        assert not timed.details["degradation"]["deadline_exceeded"]

    def test_negative_deadline_rejected(self):
        ctx = MultiGpuContext(2)
        with pytest.raises(ValueError, match="deadline"):
            DegradationManager(ctx, None, None, deadline=-1.0)


class TestBitInertness:
    def test_zero_rate_with_policy_matches_no_policy(self):
        A, b = make_problem()
        armed = solve(
            MultiGpuContext(3, fault_plan=FaultPlan.from_rate(0, 0.0)),
            A, b, degrade=DegradePolicy(), deadline=1e9,
        )
        plain = solve(
            MultiGpuContext(3, fault_plan=FaultPlan.from_rate(0, 0.0)), A, b
        )
        assert np.array_equal(armed.x, plain.x)
        assert armed.timers == plain.timers
        assert armed.history.estimates == plain.history.estimates
        deg = armed.details["degradation"]
        assert deg["n_repartitions"] == 0 and deg["final_devices"] == 3
        # Policy-less runs don't even carry the key.
        assert "degradation" not in plain.details

    def test_dropout_without_policy_keeps_structured_abort(self):
        A, b = make_problem()
        res = solve(dropout_ctx(), A, b)
        faults = res.details["faults"]
        assert not res.converged and faults["aborted"]
        assert faults["lost_devices"] == ["gpu1"]
        assert "degradation" not in res.details

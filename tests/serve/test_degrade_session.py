"""Sessions under faults: plan invalidation/derivation and campaign mode."""

import pytest

from repro.core.ca_gmres import ca_gmres
from repro.core.degrade import DegradePolicy
from repro.faults import FaultEvent, FaultPlan
from repro.faults.campaign import run_campaign, run_trial
from repro.gpu.context import MultiGpuContext
from repro.matrices import poisson2d
from repro.serve import SolverSession

from .test_session import assert_identical


DROPOUT = FaultPlan.scripted([FaultEvent("gpu1", "dropout", trigger=40)])


@pytest.fixture
def problem(rng):
    A = poisson2d(10)
    b = rng.standard_normal(A.n_rows)
    return A, b


class TestDegradedSolves:
    def test_degraded_session_matches_plan_free_solver(self, problem):
        A, b = problem
        cfg = dict(s=4, m=12, basis="monomial", tol=1e-8, max_restarts=20)
        base = ca_gmres(
            A, b, ctx=MultiGpuContext(3, fault_plan=DROPOUT),
            degrade=DegradePolicy(strategy="block"), **cfg,
        )
        assert base.details["degradation"]["n_repartitions"] >= 1
        sess = SolverSession(A, solver="ca", n_gpus=3, **cfg)
        sess.arm_fault_plan(DROPOUT)
        got = sess.solve(b, degrade=DegradePolicy(strategy="block"))
        assert_identical(base, got)

    def test_survivor_plan_cached_and_replay_bit_identical(self, problem):
        A, b = problem
        sess = SolverSession(A, solver="ca", n_gpus=3, s=4, m=12,
                             basis="monomial", tol=1e-8, max_restarts=20)
        sess.arm_fault_plan(DROPOUT)
        first = sess.solve(b, degrade=DegradePolicy(strategy="block"))
        stats = sess.stats()
        # Full-roster plan + the survivor-roster plan derived mid-solve.
        assert stats["structural_plans"] == 2
        assert stats["plan_misses"] == 2
        # Replaying the identical trial reuses both plans, bit-identically.
        sess.arm_fault_plan(DROPOUT)
        second = sess.solve(b, degrade=DegradePolicy(strategy="block"))
        assert_identical(first, second)
        stats2 = sess.stats()
        assert stats2["structural_plans"] == 2
        assert stats2["plan_misses"] == 2
        assert stats2["plan_hits"] > stats["plan_hits"]

    def test_healthy_solve_after_degraded_uses_full_roster(self, problem):
        A, b = problem
        sess = SolverSession(A, solver="ca", n_gpus=3, s=4, m=12,
                             basis="monomial", tol=1e-8, max_restarts=20)
        healthy = sess.solve(b)
        sess.arm_fault_plan(DROPOUT)
        degraded = sess.solve(b, degrade=DegradePolicy(strategy="block"))
        assert "degradation" in degraded.details
        sess.arm_fault_plan(None)
        again = sess.solve(b)
        assert_identical(healthy, again)
        assert sess.fingerprint.roster == ("gpu0", "gpu1", "gpu2")

    def test_solve_many_falls_back_to_sequential_under_faults(self, problem, rng):
        A, _ = problem
        bs = [rng.standard_normal(A.n_rows) for _ in range(2)]
        sess = SolverSession(A, solver="ca", n_gpus=3, s=4, m=12,
                            basis="monomial", tol=1e-8, max_restarts=20)
        sess.arm_fault_plan(DROPOUT)
        batch = sess.solve_many(bs, degrade=DegradePolicy(strategy="block"))
        assert len(batch) == 2
        # Only the first solve sees the scripted dropout (triggers are
        # per-arming); it must report the degradation, sequentially.
        assert "degradation" in batch[0].details


def fresh_session_trials(seed, trials, **kwargs):
    """Each trial of a campaign, on a session of its own."""
    return [run_trial(seed=seed + i, **kwargs) for i in range(trials)]


class TestCampaignSessionMode:
    """A campaign's trials share one session; each record equals the same
    trial on a fresh session."""

    def test_session_campaign_records_byte_identical(self):
        kwargs = dict(
            solver="ca_gmres", problem="poisson2d", nx=12, n_gpus=2,
            rate=2e-3, s=4, m=12, tol=1e-6, max_restarts=30,
        )
        served = run_campaign(seed=3, trials=3, **kwargs)
        assert served["trials"] == fresh_session_trials(3, 3, **kwargs)
        serving = served["serving"]
        assert serving["n_solves"] == 3
        assert serving["structural_plans"] >= 1
        assert serving["plan_misses"] >= 1

    def test_degrade_campaign_with_session(self):
        kwargs = dict(
            solver="ca_gmres", problem="poisson2d", nx=12, n_gpus=3,
            rate=2e-3, kinds=("corrupt", "poison", "dropout"), s=4, m=12,
            tol=1e-6, max_restarts=30, degrade=True,
        )
        served = run_campaign(seed=1, trials=3, **kwargs)
        assert served["trials"] == fresh_session_trials(1, 3, **kwargs)

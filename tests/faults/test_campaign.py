"""Tests for the campaign runner (`repro.faults.campaign`)."""

import pytest

from repro.faults.campaign import campaign_tables, run_campaign, run_trial

# One small campaign, reused by several assertions below.
SMALL = dict(nx=16, m=12, s=4, tol=1e-6, max_restarts=40, trials=2)


@pytest.fixture(scope="module")
def small_campaign():
    return run_campaign(seed=0, rate=1e-3, **SMALL)


class TestRunTrial:
    def test_fault_free_trial_has_zero_counts(self):
        rec = run_trial(nx=10, m=10, s=5, rate=0.0, max_restarts=30)
        assert rec["converged"]
        assert rec["injected"] == rec["detected"] == rec["recovered"] == 0
        assert rec["schedule"] == [] and not rec["aborted"]

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError, match="unknown solver"):
            run_trial(solver="bicgstab", nx=8)


class TestRunCampaign:
    def test_default_acceptance_config_injects_and_recovers(self):
        """The ISSUE.md acceptance criterion: seed 0, rate 1e-3 defaults."""
        campaign = run_campaign(seed=0, rate=1e-3)
        t = campaign["totals"]
        assert t["injected"] >= 1 and t["recovered"] >= 1
        assert t["converged_trials"] == campaign["config"]["trials"]

    def test_same_seed_identical_campaign(self, small_campaign):
        assert run_campaign(seed=0, rate=1e-3, **SMALL) == small_campaign

    def test_different_seed_differs(self, small_campaign):
        other = run_campaign(seed=1000, rate=1e-3, **SMALL)
        schedules = lambda c: [r["schedule"] for r in c["trials"]]  # noqa: E731
        assert schedules(other) != schedules(small_campaign)

    def test_trials_seeded_consecutively(self, small_campaign):
        assert [r["seed"] for r in small_campaign["trials"]] == [0, 1]

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            run_campaign(trials=0)


class TestCampaignTables:
    def test_tables_render(self, small_campaign):
        text = campaign_tables(small_campaign)
        assert "Fault campaign" in text
        assert "Injected by kind" in text
        assert "Recoveries by action" in text
        assert "totals:" in text

    def test_default_table_has_no_degrade_columns(self, small_campaign):
        text = campaign_tables(small_campaign)
        assert "| rep |" not in text and "repartition(s)" not in text


DEGRADE = dict(
    nx=16, m=12, s=4, tol=1e-6, max_restarts=40, trials=2, n_gpus=3,
    rate=2e-3, kinds=("corrupt", "poison", "stall", "dropout"),
)
#: First trial seed of the degraded campaign: trial 3 draws a stall and a
#: recovered poison, trial 4 a gpu0 dropout mid-solve.
DEGRADE_SEED = 3


class TestDegradedCampaign:
    @pytest.fixture(scope="class")
    def degraded_campaign(self):
        return run_campaign(seed=DEGRADE_SEED, degrade=True, deadline=1.0, **DEGRADE)

    def test_dropouts_absorbed(self, degraded_campaign):
        t = degraded_campaign["totals"]
        assert t["repartitions"] >= 1
        assert t["converged_trials"] == DEGRADE["trials"]
        assert t["aborted_trials"] == 0
        assert t["deadline_exceeded_trials"] == 0
        lossy = [
            r for r in degraded_campaign["trials"] if r["repartitions"]
        ]
        assert lossy and all(
            r["final_devices"] == DEGRADE["n_gpus"] - len(r["lost_devices"])
            for r in lossy
        )

    def test_deterministic(self, degraded_campaign):
        again = run_campaign(seed=DEGRADE_SEED, degrade=True, deadline=1.0, **DEGRADE)
        assert again == degraded_campaign

    def test_without_degrade_same_plan_aborts(self, degraded_campaign):
        plain = run_campaign(seed=DEGRADE_SEED, **DEGRADE)
        # Same seeds, so each trial replays the same fault stream — but the
        # plain run dies at the first dropout, injecting only a prefix of
        # what the degraded run survives through.
        for p, d in zip(plain["trials"], degraded_campaign["trials"]):
            assert p["schedule"] == d["schedule"][: len(p["schedule"])]
        assert plain["totals"]["aborted_trials"] >= 1
        assert plain["totals"]["repartitions"] == 0

    def test_degrade_tables_have_columns(self, degraded_campaign):
        text = campaign_tables(degraded_campaign)
        assert "| rep | dev | ddl" in text
        assert "repartition(s)" in text

    def test_trial_deadline_trips(self):
        rec = run_trial(
            nx=16, m=12, s=4, rate=0.0, max_restarts=40, deadline=1e-9
        )
        assert rec["deadline_exceeded"] and not rec["converged"]

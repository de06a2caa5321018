"""SolverSession: warm/cold bit-identity, batching, and the API surface."""

import numpy as np
import pytest

from repro.core.ca_gmres import ca_gmres
from repro.core.gmres import gmres
from repro.core.pipelined import pipelined_gmres
from repro.matrices import poisson2d
from repro.serve import PlanCache, SolverSession
from repro.sparse.csr import CsrMatrix


def assert_identical(a, b):
    """Byte-for-byte equality of two SolveResults, simulated state included."""
    assert np.array_equal(a.x, b.x)
    assert a.converged == b.converged
    assert a.n_restarts == b.n_restarts
    assert a.n_iterations == b.n_iterations
    assert a.history.rhs_norm == b.history.rhs_norm
    assert a.history.estimates == b.history.estimates
    assert a.history.true_residuals == b.history.true_residuals
    assert a.timers == b.timers
    assert a.counters == b.counters
    assert a.breakdowns == b.breakdowns


@pytest.fixture
def problem(rng):
    A = poisson2d(10)
    b = rng.standard_normal(A.n_rows)
    return A, b


class TestWarmColdBitIdentity:
    @pytest.mark.parametrize("n_gpus", [1, 2, 3])
    @pytest.mark.parametrize("basis", ["monomial", "newton"])
    def test_ca_session_matches_plan_free_solver(self, problem, n_gpus, basis):
        A, b = problem
        cfg = dict(n_gpus=n_gpus, s=4, m=12, basis=basis, tol=1e-8,
                   max_restarts=20)
        base = ca_gmres(A, b, **cfg)
        sess = SolverSession(A, solver="ca", **cfg)
        cold = sess.solve(b)
        warm = sess.solve(b)
        assert_identical(base, cold)
        assert_identical(cold, warm)

    @pytest.mark.parametrize("n_gpus", [1, 3])
    def test_gmres_session_matches_plan_free_solver(self, problem, n_gpus):
        A, b = problem
        cfg = dict(n_gpus=n_gpus, m=12, tol=1e-8, max_restarts=20)
        base = gmres(A, b, **cfg)
        sess = SolverSession(A, solver="gmres", **cfg)
        cold = sess.solve(b)
        warm = sess.solve(b)
        assert_identical(base, cold)
        assert_identical(cold, warm)

    def test_pipelined_session(self, problem):
        A, b = problem
        cfg = dict(n_gpus=2, m=12, tol=1e-8, max_restarts=20)
        base = pipelined_gmres(A, b, **cfg)
        sess = SolverSession(A, solver="pipelined", **cfg)
        cold = sess.solve(b)
        warm = sess.solve(b)
        assert cold.converged
        assert_identical(base, cold)
        assert_identical(cold, warm)

    @pytest.mark.parametrize("ordering", ["rcm", "kway"])
    def test_reordered_sessions_stay_bit_identical(self, problem, ordering):
        A, b = problem
        sess = SolverSession(A, solver="ca", n_gpus=2, ordering=ordering,
                             s=4, m=12, tol=1e-8, max_restarts=20)
        cold = sess.solve(b)
        warm = sess.solve(b)
        assert_identical(cold, warm)
        # The solution comes back in the *original* ordering.
        res = np.linalg.norm(b - A.matvec(cold.x)) / np.linalg.norm(b)
        assert cold.converged and res < 1e-6

    def test_warm_solve_hits_the_plan_cache(self, problem):
        A, b = problem
        sess = SolverSession(A, n_gpus=2, s=4, m=12, tol=1e-8)
        sess.solve(b)
        misses = sess.stats()["plan_misses"]
        hits = sess.stats()["plan_hits"]
        sess.solve(b)
        assert sess.stats()["plan_misses"] == misses  # no rebuild
        assert sess.stats()["plan_hits"] > hits
        assert sess.stats()["n_solves"] == 2

    def test_survives_reset_clocks(self, problem):
        A, b = problem
        sess = SolverSession(A, n_gpus=2, s=4, m=12, tol=1e-8)
        cold = sess.solve(b)
        sess.ctx.reset_clocks()
        warm = sess.solve(b)
        assert_identical(cold, warm)


def overflowing(A):
    """``A`` scaled by 1e160: an unbalanced monomial basis overflows, so
    every solve ends in a structured abort, with no fault plan."""
    return CsrMatrix(A.shape, A.indptr, A.indices, A.data * 1e160)


#: Configuration of the solves on :func:`overflowing` matrices.
OVERFLOW_CFG = dict(n_gpus=2, s=4, m=12, basis="monomial", balance=False,
                    max_restarts=3)


def without_times(report):
    """A ``details["faults"]`` report with the ``time`` of each record dropped."""
    if report is None:
        return None
    return {
        key: [{k: v for k, v in r.items() if k != "time"} for r in value]
        if isinstance(value, list) and value and isinstance(value[0], dict)
        else value
        for key, value in report.items()
    }


class TestSolveMany:
    def test_interleaved_matches_sequential_per_rhs(self, problem, rng):
        A, _ = problem
        bs = [rng.standard_normal(A.n_rows) for _ in range(3)]
        clean = dict(n_gpus=2, s=4, m=12, tol=1e-8, max_restarts=20)
        # The overflowing system aborts every solve: each RHS has faults.
        for A, cfg in ((A, clean), (overflowing(A), OVERFLOW_CFG)):
            sess = SolverSession(A, **cfg)
            with np.errstate(over="ignore", invalid="ignore"):
                batch = sess.solve_many(bs)
                ref = SolverSession(A, **cfg)
                wants = [ref.solve(b) for b in bs]
            for got, want in zip(batch, wants):
                assert np.array_equal(got.x, want.x)
                assert got.history.estimates == want.history.estimates
                assert got.history.true_residuals == want.history.true_residuals
                assert got.converged == want.converged
                assert got.n_iterations == want.n_iterations
                # Each result reports its own faults only.
                assert without_times(got.details.get("faults")) == without_times(
                    want.details.get("faults")
                )
            if cfg is clean:
                # Every cycle mark carries the index of the request it ran.
                tags = sess.ctx.trace.cycle_requests
                assert [tags.count(i) for i in range(3)] == [
                    r.n_restarts for r in batch
                ]

    def test_batch_results_report_only_their_own_faults(self):
        """Both results of a batch of two aborting solves used to report
        both aborts (``unrecovered: 2``)."""
        A = overflowing(poisson2d(16))
        bs = np.random.default_rng(7).standard_normal((2, A.n_rows))
        with np.errstate(over="ignore", invalid="ignore"):
            batch = SolverSession(A, **OVERFLOW_CFG).solve_many(bs)
            single = SolverSession(A, **OVERFLOW_CFG).solve(bs[0])
        counts = single.details["faults"]["counts"]
        assert counts["unrecovered"] == 1
        for result in batch:
            assert result.details["faults"]["counts"] == counts

    def test_cold_batch_keeps_its_plan_build_marker(self):
        """A cold batch of two used to lose the marker: the second run's
        constructor wiped the trace it was recorded on."""
        A = poisson2d(12)
        bs = np.random.default_rng(1).standard_normal((2, A.n_rows))

        def marks(session):
            return [e for e in session.ctx.trace.events if e.name == "plan-build"]

        single, batch = (SolverSession(A, n_gpus=2, s=4, m=8) for _ in range(2))
        single.solve(bs[0])
        batch.solve_many(bs)
        assert len(marks(single)) == len(marks(batch)) == 1
        batch.solve_many(bs)
        assert marks(batch) == []  # warm

    def test_empty_batch(self, problem):
        A, _ = problem
        sess = SolverSession(A, n_gpus=2, s=4, m=12)
        assert sess.solve_many([]) == []


class TestApiSurface:
    def test_unknown_solver_and_ordering_rejected(self, problem):
        A, _ = problem
        with pytest.raises(ValueError, match="unknown solver"):
            SolverSession(A, solver="bicgstab")
        with pytest.raises(ValueError, match="unknown ordering"):
            SolverSession(A, ordering="metis")

    @pytest.mark.parametrize("s", [0, 13])
    def test_block_length_out_of_range_rejected_at_construction(self, problem, s):
        A, _ = problem
        with pytest.raises(ValueError, match="1 <= s <= m"):
            SolverSession(A, s=s, m=12)

    @pytest.mark.parametrize(
        "solver, options, error",
        [
            ("ca", dict(ordering="kway", s=4, m=12, tsqr_methd="cholqr"), TypeError),
            ("gmres", dict(s=99), TypeError),
            ("gmres", dict(basis="chebyshev"), TypeError),
            ("pipelined", dict(orth_method="mgs"), TypeError),
            ("ca", dict(s=4, m=12, basis="chebyshev"), ValueError),
            ("ca", dict(s=4, m=12, reorth=0), ValueError),
        ],
    )
    def test_bad_option_rejected_before_any_plan(self, problem, solver, options, error):
        A, _ = problem
        cache = PlanCache()
        with pytest.raises(error):
            SolverSession(A, solver=solver, n_gpus=2, cache=cache, **options)
        assert not cache.host_plans and not cache.plans

    def test_bad_per_solve_option_rejected_before_any_plan(self, problem):
        A, b = problem
        ca = SolverSession(A, n_gpus=2, s=4, m=12)
        for name, value in [
            ("on_breakdown", "raise"), ("adaptive_s", True),
            ("collect_tsqr_errors", True),
        ]:
            with pytest.raises(TypeError, match="not per-solve overridable"):
                ca.solve(b, **{name: value})
        plain = SolverSession(A, solver="gmres", n_gpus=2, m=12)
        with pytest.raises(TypeError, match="not per-solve overridable"):
            plain.solve(b, adaptive_s=True)
        assert ca.stats()["structural_plans"] == 0
        assert plain.stats()["structural_plans"] == 0

    @pytest.mark.parametrize(
        "option, value",
        [
            ("tol", -1.0), ("tol", 0.0), ("tol", np.nan), ("tol", np.inf),
            ("max_restarts", -3), ("max_restarts", 2.5),
        ],
    )
    def test_bad_tol_or_max_restarts_rejected(self, option, value):
        A = poisson2d(8)
        b = np.ones(A.n_rows)
        cache = PlanCache()
        with pytest.raises(ValueError, match=option):
            SolverSession(A, n_gpus=2, s=4, m=8, cache=cache, **{option: value})
        assert not cache.host_plans and not cache.plans
        session = SolverSession(A, n_gpus=2, s=4, m=8)
        with pytest.raises(ValueError, match=option):
            session.solve(b, **{option: value})
        with pytest.raises(ValueError, match=option):
            session.solve_many([b, b], **{option: value})
        assert session.stats()["n_solves"] == 0

    def test_structural_override_rejected(self, problem):
        A, b = problem
        sess = SolverSession(A, n_gpus=2, s=4, m=12)
        with pytest.raises(TypeError, match="not per-solve overridable"):
            sess.solve(b, s=8)
        with pytest.raises(TypeError, match="not per-solve overridable"):
            sess.solve(b, basis="monomial")

    def test_bad_rhs_shape_rejected(self, problem):
        A, _ = problem
        sess = SolverSession(A, n_gpus=2, s=4, m=12)
        with pytest.raises(ValueError, match="shape"):
            sess.solve(np.ones(A.n_rows + 1))

    def test_per_solve_overrides_apply(self, problem):
        A, b = problem
        sess = SolverSession(A, n_gpus=2, s=4, m=12, tol=1e-10,
                             max_restarts=50)
        loose = sess.solve(b, tol=1e-2, max_restarts=3)
        tight = sess.solve(b)
        assert loose.n_restarts <= 3
        assert tight.n_iterations >= loose.n_iterations

    def test_x0_override_in_original_ordering(self, problem, rng):
        A, b = problem
        sess = SolverSession(A, n_gpus=2, ordering="rcm", s=4, m=12,
                             tol=1e-8)
        x_star = sess.solve(b).x
        warm_start = sess.solve(b, x0=x_star, max_restarts=1)
        res = np.linalg.norm(b - A.matvec(warm_start.x)) / np.linalg.norm(b)
        assert res < 1e-6

    def test_fingerprint_exposed_and_stable(self, problem):
        A, b = problem
        sess = SolverSession(A, n_gpus=2, s=4, m=12)
        fp = sess.fingerprint
        sess.solve(b)
        assert sess.fingerprint == fp
        assert fp.roster == ("gpu0", "gpu1")
        assert fp.m == 12

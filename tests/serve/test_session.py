"""SolverSession: warm/cold bit-identity, batching, and the API surface."""

import numpy as np
import pytest

from repro.core.ca_gmres import ca_gmres
from repro.core.gmres import gmres
from repro.core.pipelined import pipelined_gmres
from repro.matrices import poisson2d
from repro.serve import SolverSession


def assert_identical(a, b):
    """Byte-for-byte equality of two SolveResults, simulated state included."""
    assert np.array_equal(a.x, b.x)
    assert a.converged == b.converged
    assert a.n_restarts == b.n_restarts
    assert a.n_iterations == b.n_iterations
    assert a.history.initial_residual == b.history.initial_residual
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


class TestSolveMany:
    def test_interleaved_matches_sequential_per_rhs(self, problem, rng):
        A, _ = problem
        bs = [rng.standard_normal(A.n_rows) for _ in range(3)]
        cfg = dict(n_gpus=2, s=4, m=12, tol=1e-8, max_restarts=20)
        sess = SolverSession(A, **cfg)
        batch = sess.solve_many(bs)
        ref = SolverSession(A, **cfg)
        for b, got in zip(bs, batch):
            want = ref.solve(b)
            assert np.array_equal(got.x, want.x)
            assert got.history.estimates == want.history.estimates
            assert got.history.true_residuals == want.history.true_residuals
            assert got.converged == want.converged
            assert got.n_iterations == want.n_iterations

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

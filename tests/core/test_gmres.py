"""Tests for the standard GMRES driver."""

import numpy as np
import pytest

from repro.core.gmres import gmres
from repro.matrices import convection_diffusion2d, poisson2d
from repro.matrices.random_sparse import random_sparse


def residual(A, b, x):
    return np.linalg.norm(b - A.matvec(x)) / np.linalg.norm(b)


class TestGmresConvergence:
    @pytest.mark.parametrize("n_gpus", [1, 2, 3])
    def test_poisson(self, n_gpus):
        A = poisson2d(16)
        b = np.ones(A.n_rows)
        r = gmres(A, b, n_gpus=n_gpus, m=30, tol=1e-6)
        assert r.converged
        assert residual(A, b, r.x) < 1e-5

    def test_nonsymmetric(self):
        A = convection_diffusion2d(16, wind=(2.0, -1.0))
        b = np.ones(A.n_rows)
        r = gmres(A, b, m=25, tol=1e-8)
        assert r.converged
        assert residual(A, b, r.x) < 1e-7

    def test_diagonally_dominant_random(self, rng):
        A = random_sparse(200, 6.0, seed=5)
        b = rng.standard_normal(200)
        r = gmres(A, b, n_gpus=2, m=20, tol=1e-8)
        assert r.converged
        assert residual(A, b, r.x) < 1e-7

    @pytest.mark.parametrize("orth_method", ["cgs", "mgs"])
    def test_orth_methods_converge(self, orth_method):
        A = poisson2d(12)
        b = np.ones(A.n_rows)
        r = gmres(A, b, m=20, tol=1e-6, orth_method=orth_method)
        assert r.converged

    def test_kway_partition(self):
        A = poisson2d(14)
        b = np.ones(A.n_rows)
        r = gmres(A, b, n_gpus=3, ordering="kway", m=25, tol=1e-6)
        assert r.converged
        assert residual(A, b, r.x) < 1e-5

    def test_x0_initial_guess(self, rng):
        A = poisson2d(10)
        x_true = rng.standard_normal(A.n_rows)
        b = A.matvec(x_true)
        # Start close to the solution (relative residual 1e-6, above tol):
        # should converge in one cycle.
        x0 = x_true + 1e-6 * rng.standard_normal(A.n_rows)
        r = gmres(A, b, m=20, tol=1e-8, x0=x0)
        assert r.converged
        assert r.n_restarts == 1

    def test_exact_initial_guess(self, rng):
        A = poisson2d(8)
        x_true = rng.standard_normal(A.n_rows)
        b = A.matvec(x_true)
        r = gmres(A, b, m=10, x0=x_true)
        assert r.converged
        assert r.n_iterations == 0

    def test_balance_helps_badly_scaled_system(self, rng):
        A = poisson2d(10)
        scales = np.geomspace(1.0, 1e7, A.n_rows)
        A_scaled = A.scale_rows(scales)
        x_true = rng.standard_normal(A.n_rows)
        b = A_scaled.matvec(x_true)
        r_bal = gmres(A_scaled, b, m=30, tol=1e-8, balance=True, max_restarts=50)
        assert r_bal.converged
        np.testing.assert_allclose(r_bal.x, x_true, atol=1e-4)

    def test_max_restarts_respected(self):
        A = poisson2d(16)
        b = np.ones(A.n_rows)
        r = gmres(A, b, m=5, tol=1e-14, max_restarts=2)
        assert not r.converged
        assert r.n_restarts == 2


class TestGmresBookkeeping:
    def test_timers_populated(self):
        A = poisson2d(10)
        r = gmres(A, np.ones(A.n_rows), m=10, tol=1e-6)
        for key in ("spmv", "orth", "update"):
            assert r.timers.get(key, 0.0) > 0.0
        # The host-side least squares overlaps device work under the
        # max-clock accounting; its bucket exists but may be ~0.
        assert "lsq" in r.timers

    def test_history_recorded(self):
        A = poisson2d(10)
        r = gmres(A, np.ones(A.n_rows), m=10, tol=1e-6)
        assert r.history.rhs_norm > 0
        assert len(r.history.estimates) == r.n_iterations
        # One measurement before the first cycle, one per restart boundary.
        assert len(r.history.true_residuals) == r.n_restarts + 1
        # Relative true residuals end below tolerance.
        assert r.history.relative()[-1] <= 1e-6

    def test_estimates_monotone_within_cycle(self):
        A = poisson2d(10)
        r = gmres(A, np.ones(A.n_rows), m=30, tol=1e-10, max_restarts=1)
        ests = [e for _, e in r.history.estimates]
        assert all(a >= b - 1e-12 for a, b in zip(ests, ests[1:]))

    def test_counters_snapshot(self):
        A = poisson2d(8)
        r = gmres(A, np.ones(A.n_rows), n_gpus=2, m=10, tol=1e-6)
        assert r.counters["d2h_messages"] > 0
        assert r.counters["kernel_launches"] > 0

    def test_more_gpus_reduce_per_restart_time(self):
        """Fig. 3: GMRES scales (time per restart drops) with GPU count —
        once the per-device work is large enough to beat PCIe latency."""
        from repro.matrices import cant

        A = cant(nx=96, ny=16, nz=16)  # ~2.4M nnz: bandwidth-dominated
        b = np.ones(A.n_rows)
        t1 = gmres(
            A, b, n_gpus=1, m=30, tol=1e-12, max_restarts=1
        ).time_per_restart()
        t3 = gmres(
            A, b, n_gpus=3, m=30, tol=1e-12, max_restarts=1
        ).time_per_restart()
        assert t3 < t1

    def test_result_total_time(self):
        A = poisson2d(8)
        r = gmres(A, np.ones(A.n_rows), m=10, tol=1e-6)
        assert r.total_time == pytest.approx(sum(r.timers.values()))


class TestGmresValidation:
    def test_rectangular_rejected(self):
        from repro.sparse.csr import csr_from_dense

        A = csr_from_dense(np.ones((3, 4)))
        with pytest.raises(ValueError, match="square"):
            gmres(A, np.ones(3))

    def test_wrong_b_shape(self):
        A = poisson2d(4)
        with pytest.raises(ValueError, match="b must have shape"):
            gmres(A, np.ones(5))

    def test_bad_m(self):
        A = poisson2d(4)
        with pytest.raises(ValueError, match="restart length"):
            gmres(A, np.ones(16), m=0)
        with pytest.raises(ValueError):
            gmres(A, np.ones(16), m=17)

    def test_zero_rhs_trivially_converged(self):
        A = poisson2d(4)
        r = gmres(A, np.zeros(16), m=8)
        assert r.converged
        np.testing.assert_array_equal(r.x, np.zeros(16))

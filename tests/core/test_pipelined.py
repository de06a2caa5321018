"""Tests for pipelined GMRES (footnote 5's studied variant)."""

import numpy as np
import pytest

from repro.core.gmres import gmres
from repro.core.pipelined import pipelined_gmres
from repro.matrices import convection_diffusion2d, poisson2d


class TestPipelinedCorrectness:
    @pytest.mark.parametrize("n_gpus", [1, 2, 3])
    def test_converges(self, n_gpus):
        A = poisson2d(14)
        b = np.ones(A.n_rows)
        r = pipelined_gmres(A, b, n_gpus=n_gpus, m=20, tol=1e-8)
        assert r.converged
        res = np.linalg.norm(b - A.matvec(r.x)) / np.linalg.norm(b)
        assert res < 1e-7

    def test_same_krylov_iterates_as_standard(self):
        """Deferred normalization is exact: iteration counts and solutions
        match standard CGS-GMRES to round-off."""
        A = convection_diffusion2d(16)
        b = np.ones(A.n_rows)
        r_std = gmres(A, b, n_gpus=2, m=20, tol=1e-8)
        r_pipe = pipelined_gmres(A, b, n_gpus=2, m=20, tol=1e-8)
        assert r_pipe.n_iterations == r_std.n_iterations
        assert r_pipe.n_restarts == r_std.n_restarts
        np.testing.assert_allclose(r_pipe.x, r_std.x, rtol=1e-6, atol=1e-10)

    def test_exact_solution(self, rng):
        A = poisson2d(10)
        x_true = rng.standard_normal(A.n_rows)
        b = A.matvec(x_true)
        r = pipelined_gmres(A, b, m=25, tol=1e-10, max_restarts=100)
        assert r.converged
        np.testing.assert_allclose(r.x, x_true, atol=1e-6)

    def test_m_equal_one(self):
        A = poisson2d(6)
        b = np.ones(A.n_rows)
        r = pipelined_gmres(A, b, m=1, tol=1e-4, max_restarts=200)
        # Restarted GMRES(1) is slow but must make progress without errors.
        assert r.n_iterations > 0

    def test_zero_rhs(self):
        A = poisson2d(4)
        r = pipelined_gmres(A, np.zeros(16), m=8)
        assert r.converged
        np.testing.assert_array_equal(r.x, np.zeros(16))


class TestPipelinedSchedule:
    def test_norm_reduction_overlaps_spmv(self):
        """The overlapped schedule must not be slower than paying the norm
        round trip on top of everything else (sanity of ready_at)."""
        from repro.gpu.context import MultiGpuContext

        A = poisson2d(20)
        b = np.ones(A.n_rows)
        r_pipe = pipelined_gmres(A, b, n_gpus=3, m=20, tol=1e-14, max_restarts=1)
        # Reference: standard GMRES with the *same* per-iteration message
        # structure but fully sequential (our mgs would be far worse; the
        # comparison is against fused CGS which has fewer round trips).
        r_std = gmres(A, b, n_gpus=3, m=20, tol=1e-14, max_restarts=1)
        # Paper's finding: the pipelined variant is in the same band as the
        # (already fused) CGS baseline — not a large win or loss.
        ratio = r_pipe.time_per_restart() / r_std.time_per_restart()
        assert 0.7 < ratio < 1.6

    def test_per_iteration_messages(self):
        """Pipelined CGS: 3 reductions/broadcast phases per iteration."""
        from repro.gpu.context import MultiGpuContext

        A = poisson2d(10)
        b = np.ones(A.n_rows)
        r = pipelined_gmres(A, b, n_gpus=2, m=10, tol=1e-14, max_restarts=1)
        assert r.counters["d2h_messages"] > 0
        assert r.counters["h2d_messages"] > 0

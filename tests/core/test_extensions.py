"""Tests for the paper's extension features (Section VII future work).

* adaptive block length (``adaptive_s``) — their "adaptive schemes ... to
  adjust input parameters (m and s)";
* mixed-precision CholQR Gram product (``tsqr_variant="batched_sp"``) —
  their ref. [23].
"""

import numpy as np

from repro.core.ca_gmres import ca_gmres
from repro.gpu.context import MultiGpuContext
from repro.matrices import poisson2d
from repro.matrices.random_sparse import well_conditioned_tall_skinny
from repro.orth.tsqr import tsqr

from ..conftest import gather_multivector, make_dist_multivector


class TestAdaptiveS:
    def test_halves_s_after_breakdown(self):
        A = poisson2d(18)
        b = np.ones(A.n_rows)
        r = ca_gmres(
            A, b, s=30, m=30, basis="monomial", tsqr_method="cholqr",
            tol=1e-8, max_restarts=25, adaptive_s=True,
        )
        assert r.converged
        history = r.details["s_history"]
        assert history[0]["s_used"] == 30
        assert any(h["s_used"] < 30 for h in history)

    def test_grows_back_when_healthy(self):
        A = poisson2d(16)
        b = np.ones(A.n_rows)
        r = ca_gmres(
            A, b, s=12, m=24, basis="newton", tsqr_method="cholqr",
            tol=1e-10, max_restarts=30, adaptive_s=True,
        )
        assert r.converged
        used = [h["s_used"] for h in r.details["s_history"]]
        # A healthy Newton basis keeps (or regains) the requested length.
        assert max(used) == 12

    def test_history_absent_when_disabled(self):
        A = poisson2d(10)
        r = ca_gmres(A, np.ones(A.n_rows), s=5, m=10, tol=1e-6)
        assert "s_history" not in r.details

    def test_adaptive_still_correct(self, rng):
        A = poisson2d(14)
        x_true = rng.standard_normal(A.n_rows)
        b = A.matvec(x_true)
        r = ca_gmres(
            A, b, s=14, m=28, basis="monomial", tol=1e-10,
            max_restarts=40, adaptive_s=True,
        )
        assert r.converged
        np.testing.assert_allclose(r.x, x_true, atol=1e-6)


class TestMixedPrecisionCholQR:
    def test_single_precision_gram_accuracy(self, rng, ctx1):
        """The fp32 Gram limits orthogonality to ~sqrt(eps_single)*kappa."""
        V = well_conditioned_tall_skinny(2000, 8, condition=10.0, seed=1)
        mv, _ = make_dist_multivector(ctx1, V.copy())
        R = tsqr(ctx1, mv.panel(0, 8), method="cholqr", variant="batched_sp")
        Q = gather_multivector(mv)
        err = np.linalg.norm(np.eye(8) - Q.T @ Q)
        # Far worse than double precision, far better than garbage.
        assert 1e-9 < err < 1e-2
        # The factorization is still consistent at fp32 level.
        assert np.linalg.norm(Q @ R - V) / np.linalg.norm(V) < 1e-4

    def test_double_precision_reference_much_tighter(self, rng, ctx1):
        V = well_conditioned_tall_skinny(2000, 8, condition=10.0, seed=1)
        mv, _ = make_dist_multivector(ctx1, V.copy())
        tsqr(ctx1, mv.panel(0, 8), method="cholqr", variant="batched")
        Q = gather_multivector(mv)
        assert np.linalg.norm(np.eye(8) - Q.T @ Q) < 1e-12

    def test_sp_gram_faster_in_model(self):
        ctx = MultiGpuContext(1)
        t_dp = ctx.perf.gpu_time("gemm_tn", "batched", n=500_000, k=30, j=30)
        t_sp = ctx.perf.gpu_time("gemm_tn", "batched_sp", n=500_000, k=30, j=30)
        assert t_sp < 0.7 * t_dp

    def test_solver_with_sp_gram_converges(self):
        A = poisson2d(14)
        b = np.ones(A.n_rows)
        r = ca_gmres(
            A, b, s=7, m=14, basis="newton", tsqr_method="cholqr",
            tsqr_variant="batched_sp", tol=1e-6, max_restarts=30,
        )
        assert r.converged

"""Tests for the five TSQR variants and the dispatcher.

The shared contract: panels are overwritten with Q (orthonormal columns
distributed block-row), the returned R is upper triangular, and Q R
reconstructs the input panel.
"""

import numpy as np
import pytest

from repro.gpu.context import MultiGpuContext
from repro.matrices.random_sparse import well_conditioned_tall_skinny
from repro.orth.errors import CholeskyBreakdown, OrthogonalizationError
from repro.orth.tsqr import TSQR_METHODS, tsqr

from ..conftest import gather_multivector, make_dist_multivector

METHODS = sorted(TSQR_METHODS)


def run_tsqr(ctx, dense, method, **kwargs):
    mv, part = make_dist_multivector(ctx, dense.copy())
    R = tsqr(ctx, mv.panel(0, dense.shape[1]), method=method, **kwargs)
    return gather_multivector(mv), R


class TestSharedContract:
    @pytest.mark.parametrize("method", METHODS)
    def test_qr_reconstructs_panel(self, method, rng, ctx):
        V = rng.standard_normal((60, 7))
        Q, R = run_tsqr(ctx, V, method)
        np.testing.assert_allclose(Q @ R, V, atol=1e-12)

    @pytest.mark.parametrize("method", METHODS)
    def test_q_orthonormal(self, method, rng, ctx):
        V = rng.standard_normal((60, 7))
        Q, _ = run_tsqr(ctx, V, method)
        np.testing.assert_allclose(Q.T @ Q, np.eye(7), atol=1e-12)

    @pytest.mark.parametrize("method", METHODS)
    def test_r_upper_triangular(self, method, rng, ctx1):
        V = rng.standard_normal((30, 5))
        _, R = run_tsqr(ctx1, V, method)
        np.testing.assert_allclose(R, np.triu(R), atol=0)

    @pytest.mark.parametrize("method", METHODS)
    def test_r_positive_diagonal(self, method, rng, ctx1):
        V = rng.standard_normal((30, 5))
        _, R = run_tsqr(ctx1, V, method)
        assert np.all(np.diag(R) > 0)

    @pytest.mark.parametrize("method", METHODS)
    def test_single_column(self, method, rng, ctx1):
        v = rng.standard_normal((20, 1))
        Q, R = run_tsqr(ctx1, v, method)
        assert R[0, 0] == pytest.approx(np.linalg.norm(v))
        np.testing.assert_allclose(Q[:, 0], v[:, 0] / np.linalg.norm(v), atol=1e-14)

    @pytest.mark.parametrize("method", METHODS)
    def test_multi_gpu_matches_single_gpu_r(self, method, rng):
        """R must be independent of the device count (same math)."""
        V = rng.standard_normal((48, 6))
        _, R1 = run_tsqr(MultiGpuContext(1), V, method)
        _, R3 = run_tsqr(MultiGpuContext(3), V, method)
        np.testing.assert_allclose(R1, R3, atol=1e-10)


class TestStabilityOrdering:
    """Fig. 13's stability story: orthogonality error ranking by method."""

    def make_ill_conditioned(self, rng, kappa):
        return well_conditioned_tall_skinny(400, 10, condition=kappa, seed=42)

    def test_cholqr_error_scales_with_kappa_squared(self, rng, ctx1):
        V = self.make_ill_conditioned(rng, 1e5)
        Q, _ = run_tsqr(ctx1, V, "cholqr")
        err_chol = np.linalg.norm(np.eye(10) - Q.T @ Q)
        Q2, _ = run_tsqr(ctx1, V, "caqr")
        err_caqr = np.linalg.norm(np.eye(10) - Q2.T @ Q2)
        assert err_chol > 100 * err_caqr

    def test_mgs_beats_cholqr_on_ill_conditioned(self, rng, ctx1):
        V = self.make_ill_conditioned(rng, 1e6)
        Q_m, _ = run_tsqr(ctx1, V, "mgs")
        Q_c, _ = run_tsqr(ctx1, V, "cholqr")
        err_mgs = np.linalg.norm(np.eye(10) - Q_m.T @ Q_m)
        err_chol = np.linalg.norm(np.eye(10) - Q_c.T @ Q_c)
        assert err_mgs < err_chol

    def test_caqr_unconditionally_stable(self, rng, ctx1):
        V = self.make_ill_conditioned(rng, 1e7)
        Q, _ = run_tsqr(ctx1, V, "caqr")
        assert np.linalg.norm(np.eye(10) - Q.T @ Q) < 1e-12

    def test_cholqr_breaks_down_catastrophic_kappa(self, rng, ctx1):
        V = well_conditioned_tall_skinny(200, 8, condition=1e12, seed=7)
        with pytest.raises(CholeskyBreakdown):
            run_tsqr(ctx1, V, "cholqr")

    def test_svqr_survives_where_cholqr_fails(self, rng, ctx1):
        V = well_conditioned_tall_skinny(200, 8, condition=1e12, seed=7)
        Q, R = run_tsqr(ctx1, V, "svqr")
        # SVQR completes and still reconstructs the panel well.
        np.testing.assert_allclose(Q @ R, V, atol=1e-8)

    def test_svqr_survives_exactly_singular(self, rng, ctx1):
        V = rng.standard_normal((50, 4))
        V[:, 3] = V[:, 0] + V[:, 1]  # exact rank deficiency
        Q, R = run_tsqr(ctx1, V, "svqr")
        np.testing.assert_allclose(Q @ R, V, atol=1e-10)

    def test_reorthogonalization_restores_cgs(self, rng, ctx1):
        V = self.make_ill_conditioned(rng, 1e6)
        Q1, _ = run_tsqr(ctx1, V, "cgs", reorth=1)
        Q2, _ = run_tsqr(ctx1, V, "cgs", reorth=2)
        err1 = np.linalg.norm(np.eye(10) - Q1.T @ Q1)
        err2 = np.linalg.norm(np.eye(10) - Q2.T @ Q2)
        assert err2 < err1 / 10
        assert err2 < 1e-12

    def test_reorth_composes_r(self, rng, ctx1):
        V = rng.standard_normal((40, 5))
        Q, R = run_tsqr(ctx1, V, "cholqr", reorth=2)
        np.testing.assert_allclose(Q @ R, V, atol=1e-12)


class TestCommunicationCounts:
    """Fig. 10's GPU-CPU communication column, verified on the counters."""

    @pytest.mark.parametrize(
        "method,expected_phases",
        [("mgs", None), ("cgs", None), ("cholqr", 2), ("svqr", 2), ("caqr", 2)],
    )
    def test_phase_counts(self, method, expected_phases, rng):
        s_plus_1 = 6
        s = s_plus_1 - 1
        ctx = MultiGpuContext(3)
        V = rng.standard_normal((60, s_plus_1))
        mv, _ = make_dist_multivector(ctx, V)
        ctx.reset_clocks()
        tsqr(ctx, mv.panel(0, s_plus_1), method=method)
        messages = ctx.counters.total_messages
        if expected_phases is None:
            expected_phases = (
                (s + 1) * (s + 2) if method == "mgs" else 2 * (s + 1)
            )
        # each phase moves one message per device
        assert messages == expected_phases * 3

    def test_cholqr_messages_independent_of_s(self, rng):
        ctx = MultiGpuContext(2)
        for k in (3, 8):
            V = rng.standard_normal((40, k))
            mv, _ = make_dist_multivector(ctx, V)
            ctx.reset_clocks()
            tsqr(ctx, mv.panel(0, k), method="cholqr")
            assert ctx.counters.total_messages == 4  # 2 phases x 2 devices


class TestDispatcher:
    def test_unknown_method(self, rng, ctx1):
        V = rng.standard_normal((10, 2))
        mv, _ = make_dist_multivector(ctx1, V)
        with pytest.raises(ValueError, match="unknown TSQR method"):
            tsqr(ctx1, mv.panel(0, 2), method="qr_of_doom")

    def test_invalid_reorth(self, rng, ctx1):
        V = rng.standard_normal((10, 2))
        mv, _ = make_dist_multivector(ctx1, V)
        with pytest.raises(ValueError, match="reorth"):
            tsqr(ctx1, mv.panel(0, 2), reorth=0)

    def test_zero_column_breakdown(self, ctx1):
        V = np.zeros((10, 2))
        V[:, 0] = 1.0
        mv, _ = make_dist_multivector(ctx1, V)
        with pytest.raises(OrthogonalizationError):
            tsqr(ctx1, mv.panel(0, 2), method="mgs")

    def test_caqr_short_block_rejected(self, rng):
        # 3 GPUs x 2 rows each < 4 columns: local QR impossible.
        ctx = MultiGpuContext(3)
        V = rng.standard_normal((6, 4))
        mv, _ = make_dist_multivector(ctx, V)
        with pytest.raises(OrthogonalizationError, match="at least as many"):
            tsqr(ctx, mv.panel(0, 4), method="caqr")

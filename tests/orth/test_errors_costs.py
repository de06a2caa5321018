"""Tests for error metrics (Fig. 13) and the cost table (Fig. 10)."""

import numpy as np
import pytest

from repro.orth.costs import TSQR_PROPERTY_TABLE, tsqr_properties
from repro.orth.errors import (
    elementwise_error,
    factorization_error,
    orthogonality_error,
)


class TestErrorMetrics:
    def test_orthogonality_of_exact_q(self, rng):
        Q, _ = np.linalg.qr(rng.standard_normal((30, 5)))
        assert orthogonality_error(Q) < 1e-14

    def test_orthogonality_of_scaled_q(self, rng):
        Q, _ = np.linalg.qr(rng.standard_normal((30, 5)))
        assert orthogonality_error(2.0 * Q) == pytest.approx(3.0, rel=1e-10)

    def test_factorization_error_exact(self, rng):
        V = rng.standard_normal((20, 4))
        Q, R = np.linalg.qr(V)
        assert factorization_error(V, Q, R) < 1e-14

    def test_factorization_error_detects_corruption(self, rng):
        V = rng.standard_normal((20, 4))
        Q, R = np.linalg.qr(V)
        R_bad = R + 0.1
        assert factorization_error(V, Q, R_bad) > 1e-3

    def test_factorization_error_zero_matrix(self):
        assert factorization_error(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((2, 2))) == 0.0

    def test_elementwise_error_exact(self, rng):
        V = rng.standard_normal((20, 4))
        Q, R = np.linalg.qr(V)
        assert elementwise_error(V, Q, R) < 1e-12

    def test_elementwise_ignores_zero_entries(self):
        V = np.array([[1.0, 0.0], [0.0, 2.0]])
        # Perfect factorization of V = I * V.
        assert elementwise_error(V, np.eye(2), V) == 0.0

    def test_elementwise_all_zero(self):
        assert elementwise_error(np.zeros((2, 2)), np.eye(2), np.zeros((2, 2))) == 0.0


class TestCostTable:
    def test_table_complete(self):
        assert set(TSQR_PROPERTY_TABLE) == {"mgs", "cgs", "cholqr", "svqr", "caqr"}

    def test_comm_phase_formulas(self):
        s = 14  # s+1 = 15
        assert tsqr_properties("mgs").comm_phases(s) == (s + 1) * (s + 2)
        assert tsqr_properties("cgs").comm_phases(s) == 2 * (s + 1)
        for method in ("cholqr", "svqr", "caqr"):
            assert tsqr_properties(method).comm_phases(s) == 2

    def test_flop_formulas(self):
        n, s = 10_000, 15
        assert tsqr_properties("mgs").flops(n, s) == pytest.approx(2 * n * s * s)
        assert tsqr_properties("caqr").flops(n, s) == pytest.approx(4 * n * s * s)

    def test_error_bound_strings(self):
        assert tsqr_properties("caqr").error_bound == "O(eps)"
        assert "kappa^2" in tsqr_properties("cholqr").error_bound

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            tsqr_properties("gram_schmidt_deluxe")

    def test_fig10_comm_matches_runtime_counters(self, rng):
        """The analytic phase counts equal measured messages / n_gpus."""
        from repro.gpu.context import MultiGpuContext
        from repro.orth.tsqr import tsqr
        from ..conftest import make_dist_multivector

        s = 4  # panel of s+1 = 5 columns
        for method in ("mgs", "cgs", "cholqr", "svqr", "caqr"):
            ctx = MultiGpuContext(2)
            V = rng.standard_normal((40, s + 1))
            mv, _ = make_dist_multivector(ctx, V)
            ctx.reset_clocks()
            tsqr(ctx, mv.panel(0, s + 1), method=method)
            measured_phases = ctx.counters.total_messages / 2
            assert measured_phases == tsqr_properties(method).comm_phases(s)

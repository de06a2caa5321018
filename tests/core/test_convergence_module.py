"""Tests for the convergence/result types."""

import numpy as np
import pytest

from repro.core.convergence import ConvergenceHistory, SolveResult


def make_result(**overrides):
    defaults = dict(
        x=np.zeros(4),
        converged=True,
        n_restarts=4,
        n_iterations=40,
        history=ConvergenceHistory(),
        timers={"spmv": 2.0, "orth": 1.0},
        counters={},
    )
    defaults.update(overrides)
    return SolveResult(**defaults)


class TestConvergenceHistory:
    def test_record_and_read(self):
        h = ConvergenceHistory(rhs_norm=10.0)
        h.record_estimate(1, 5.0)
        h.record_estimate(2, 2.5)
        h.record_true(10, 1.0)
        assert h.estimates == [(1, 5.0), (2, 2.5)]
        assert h.true_residuals == [(10, 1.0)]

    def test_relative(self):
        h = ConvergenceHistory(rhs_norm=10.0)
        h.record_true(5, 5.0)
        h.record_true(10, 1.0)
        np.testing.assert_allclose(h.relative(), [0.5, 0.1])

    def test_relative_zero_initial(self):
        h = ConvergenceHistory(rhs_norm=0.0)
        h.record_true(1, 0.0)
        np.testing.assert_array_equal(h.relative(), [0.0])

    def test_relative_zero_rhs_nonzero_residual(self):
        h = ConvergenceHistory(rhs_norm=0.0)
        h.record_true(0, 2.0)
        assert h.relative()[-1] == np.inf

    def test_relative_empty(self):
        h = ConvergenceHistory(rhs_norm=1.0)
        assert h.relative().size == 0


#: A profile whose timeline (3.2 s) is not the region timers' sum (3.0 s).
TIMELINE = {"profile": {"total_time": 3.2}}


class TestSolveResult:
    def test_total_time(self):
        assert make_result(details=TIMELINE).total_time == 3.2

    def test_time_per_restart_total(self):
        assert make_result(details=TIMELINE).time_per_restart() == pytest.approx(0.8)

    def test_time_per_restart_phase(self):
        assert make_result().time_per_restart("spmv") == pytest.approx(0.5)

    def test_time_per_restart_unknown_phase(self):
        assert make_result().time_per_restart("warp") == 0.0

    def test_zero_restarts_guard(self):
        r = make_result(n_restarts=0, details=TIMELINE)
        assert r.time_per_restart() == pytest.approx(3.2)  # divides by 1

    def test_details_default(self):
        assert make_result().details == {}

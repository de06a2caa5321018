"""Tests for SolveResult.summary()."""

import numpy as np

from repro.core.gmres import gmres
from repro.matrices import poisson2d


class TestSummary:
    def test_contains_key_facts(self):
        A = poisson2d(10)
        r = gmres(A, np.ones(A.n_rows), n_gpus=2, m=15, tol=1e-6)
        text = r.summary()
        assert "converged      : True" in text
        assert f"restarts       : {r.n_restarts}" in text
        assert "simulated time" in text
        assert "PCIe messages" in text
        assert "spmv=" in text

    def test_relative_residual_line(self):
        A = poisson2d(8)
        r = gmres(A, np.ones(A.n_rows), m=12, tol=1e-6)
        assert "rel. residual" in r.summary()

    def test_breakdown_line_only_when_present(self):
        from repro.core.convergence import ConvergenceHistory, SolveResult

        base = dict(
            x=np.zeros(2), converged=True, n_restarts=1, n_iterations=1,
            history=ConvergenceHistory(), timers={}, counters={},
            details={"profile": {"total_time": 0.0}},
        )
        assert "breakdowns" not in SolveResult(**base).summary()
        assert "breakdowns     : 3" in SolveResult(**base, breakdowns=3).summary()

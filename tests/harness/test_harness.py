"""Tests for the experiment harness."""

import numpy as np
import pytest

from repro.harness.experiment import (
    ExperimentRecord,
    run_solver_experiment,
    solver_table_row,
)
from repro.harness.tables import format_float, format_series, format_table
from repro.matrices import poisson2d


class TestFormatFloat:
    def test_moderate_values_fixed(self):
        assert format_float(1.234567) == "1.235"

    def test_large_values_scientific(self):
        assert "e" in format_float(3.2e16)

    def test_small_values_scientific(self):
        assert "e" in format_float(5.4e-9)

    def test_zero(self):
        assert format_float(0.0) == "0"

    def test_none(self):
        assert format_float(None) == "-"

    def test_string_passthrough(self):
        assert format_float("abc") == "abc"

    def test_nan(self):
        assert format_float(float("nan")) == "nan"


class TestFormatTable:
    def test_alignment_and_header(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["x", 3]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert set(lines[2]) <= {"-", "+"}
        assert len(lines) == 5

    def test_column_width_accommodates_data(self):
        out = format_table(["x"], [["longvalue"]])
        header, sep, row = out.splitlines()
        assert len(header) == len(row)


class TestFormatSeries:
    def test_series_layout(self):
        out = format_series("s", [1, 2], {"a": [0.5, 1.5], "b": [10, 20]})
        lines = out.splitlines()
        assert lines[0].split("|")[0].strip() == "s"
        assert len(lines) == 4


class TestRunSolverExperiment:
    @pytest.fixture(scope="class")
    def matrix(self):
        return poisson2d(12)

    def test_gmres_record(self, matrix):
        rec = run_solver_experiment(
            "GMRES/CGS", matrix, np.ones(matrix.n_rows), "gmres", 2,
            m=12, tol=1e-6,
        )
        assert rec.converged
        assert rec.restarts >= 1
        assert rec.orth_ms > 0
        assert rec.total_ms >= rec.orth_ms
        assert rec.tsqr_ms == 0.0

    def test_ca_gmres_record(self, matrix):
        rec = run_solver_experiment(
            "CA/CholQR", matrix, np.ones(matrix.n_rows), "ca_gmres", 2,
            s=6, m=12, tol=1e-6,
        )
        assert rec.converged
        assert rec.tsqr_ms > 0
        assert rec.spmv_ms > 0

    def test_pipelined_gmres_record(self, matrix):
        rec = run_solver_experiment(
            "Pipelined", matrix, np.ones(matrix.n_rows), "pipelined_gmres", 2,
            m=12, tol=1e-6,
        )
        assert rec.converged
        assert rec.orth_ms > 0 and rec.spmv_ms > 0
        assert rec.tsqr_ms == 0

    def test_unknown_solver(self, matrix):
        with pytest.raises(ValueError, match="unknown solver"):
            run_solver_experiment(
                "x", matrix, np.ones(matrix.n_rows), "bicgstab", 1
            )

    def test_table_row_shape(self, matrix):
        rec = run_solver_experiment(
            "GMRES", matrix, np.ones(matrix.n_rows), "gmres", 1, m=12, tol=1e-6
        )
        rec.speedup = 1.5
        row = solver_table_row(rec)
        assert len(row) == 8
        assert row[-1] == "1.50"

    def test_speedup_placeholder(self):
        rec = ExperimentRecord(
            label="x", n_gpus=1, converged=True, restarts=1, iterations=1,
            orth_ms=1.0, tsqr_ms=0.0, spmv_ms=1.0, total_ms=2.0,
        )
        assert solver_table_row(rec)[-1] == "-"

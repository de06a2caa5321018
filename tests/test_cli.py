"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig06" in out and "fig08" in out and "solve" in out

    def test_fig10(self, capsys):
        assert main(["fig10"]) == 0
        out = capsys.readouterr().out
        assert "CHOLQR" in out and "O(eps)" in out

    def test_fig11(self, capsys):
        assert main(["fig11"]) == 0
        out = capsys.readouterr().out
        assert "DGEMM" in out and "DGEMV" in out

    def test_out_directory(self, tmp_path, capsys):
        assert main(["fig10", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig10.txt").exists()

    def test_solve_small(self, capsys):
        code = main(
            ["solve", "--matrix", "g3_circuit", "--solver", "gmres",
             "--gpus", "1", "--max-restarts", "1"]
        )
        out = capsys.readouterr().out
        assert "time/restart" in out
        assert code in (0, 1)

    def test_trace_writes_chrome_trace_and_breakdown(self, tmp_path, capsys):
        import json

        code = main(
            ["trace", "--matrix", "poisson2d", "--nx", "12", "--solver",
             "ca_gmres", "--gpus", "2", "--m", "9", "--s", "3",
             "--max-restarts", "2", "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-kernel" in out and "regions" in out and "PCIe" in out
        trace_path = tmp_path / "trace_ca_gmres_poisson2d.json"
        assert trace_path.exists()
        doc = json.loads(trace_path.read_text())
        lanes = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e.get("name") == "thread_name"
        }
        assert {"host", "gpu0", "gpu1", "pcie"} <= lanes
        assert (tmp_path / "trace_ca_gmres_poisson2d.txt").exists()

    def test_trace_gmres_solver(self, tmp_path, capsys):
        code = main(
            ["trace", "--solver", "gmres", "--nx", "10", "--m", "8",
             "--max-restarts", "1", "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "trace_gmres_poisson2d.json").exists()

    def test_faults_campaign(self, capsys):
        code = main(
            ["faults", "--nx", "16", "--m", "12", "--s", "4",
             "--max-restarts", "40", "--trials", "2", "--rate", "1e-3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Fault campaign" in out
        assert "Recoveries by action" in out
        assert "totals:" in out

    def test_faults_degrade_campaign(self, capsys):
        code = main(
            ["faults", "--nx", "16", "--m", "12", "--s", "4",
             "--max-restarts", "40", "--trials", "2", "--rate", "2e-3",
             "--gpus", "3", "--kinds", "corrupt,poison,stall,dropout",
             "--degrade", "--deadline", "1.0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # The degraded-mode columns and totals appear.
        assert "| rep | dev | ddl" in out
        assert "repartition(s)" in out

    def test_faults_writes_json(self, tmp_path, capsys):
        import json

        code = main(
            ["faults", "--nx", "12", "--m", "10", "--s", "4", "--trials", "1",
             "--rate", "0", "--max-restarts", "30", "--out", str(tmp_path)]
        )
        assert code == 0
        doc = json.loads(
            (tmp_path / "faults_ca_gmres_poisson2d_seed0.json").read_text()
        )
        assert doc["config"]["trials"] == 1
        assert doc["totals"]["injected"] == 0

    def test_serve_kway(self, capsys):
        # The documented serve invocation, at a smaller grid.
        code = main(
            ["serve", "--matrix", "poisson2d", "--nx", "12", "--gpus", "3",
             "--ordering", "kway"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ordering=kway" in out
        assert "warm == cold (bit-identical): True" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_bad_matrix_rejected(self):
        with pytest.raises(SystemExit):
            main(["solve", "--matrix", "bcsstk01"])

"""Tests for the reproduce_all collation script."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def reproduce_all():
    spec = importlib.util.spec_from_file_location(
        "reproduce_all", ROOT / "examples" / "reproduce_all.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestCollate:
    def test_sections_cover_every_paper_figure(self, reproduce_all):
        names = [n for _, block in reproduce_all.SECTIONS for n in block]
        for fig in ("fig03", "fig06", "fig07", "fig08", "fig10", "fig11",
                    "fig12", "fig13", "fig14", "fig15"):
            assert any(n.startswith(fig) for n in names), fig

    def test_collate_produces_report(self, reproduce_all, tmp_path, monkeypatch):
        monkeypatch.setattr(reproduce_all, "RESULTS", tmp_path)
        (tmp_path / "fig03_cant.txt").write_text("table body\n")
        report = reproduce_all.collate()
        text = report.read_text()
        assert "table body" in text
        assert "missing" in text  # the other tables are absent

    def test_collate_with_real_results_if_present(self, reproduce_all):
        if not (reproduce_all.RESULTS / "fig10_tsqr_properties.txt").exists():
            pytest.skip("benchmarks not yet run")
        report = reproduce_all.collate()
        text = report.read_text()
        assert "Fig. 10" in text and "CHOLQR" in text

"""Perf-regression gate: extraction, tolerances, and the file-level driver."""

import copy
import json

import pytest

from repro.metrics.gate import (
    BASELINE_SCHEMA,
    compare,
    extract_metrics,
    format_violations,
    make_baseline,
    run_gate,
)

SERVING_DOC = {
    "benchmark": "serving",
    "cases": [
        {"matrix": "poisson2d", "sim_time_ms": 10.0, "iterations": 40},
        {"matrix": "cant", "sim_time_ms": 25.0, "iterations": 120},
    ],
    "summary": {"all_bit_identical": True},
}

FIG14_DOC = {
    "benchmark": "fig14_quick_sim",
    "cases": [
        {"matrix": "cant", "solver": "gmres", "sim_time_ms": 48.0, "iterations": 240},
        {"matrix": "cant", "solver": "ca_gmres", "sim_time_ms": 26.0, "iterations": 240},
    ],
}


def test_extract_serving_metrics():
    metrics = extract_metrics(SERVING_DOC)
    assert metrics["serving/poisson2d/sim_time_ms"]["value"] == 10.0
    assert metrics["serving/poisson2d/sim_time_ms"]["direction"] == "lower_is_better"
    assert metrics["serving/all_bit_identical"] == {
        "value": 1.0,
        "direction": "exact",
        "max_rel_increase": 0.0,
    }
    assert len(metrics) == 5


def test_extract_fig14_metrics():
    metrics = extract_metrics(FIG14_DOC)
    assert metrics["fig14/cant/ca_gmres/sim_time_ms"]["value"] == 26.0
    assert metrics["fig14/cant/gmres/iterations"]["value"] == 240.0
    assert len(metrics) == 4


def test_extract_unknown_kind_raises():
    with pytest.raises(ValueError):
        extract_metrics({"benchmark": "mystery"})


def test_gate_passes_on_identical_and_improved_runs():
    baseline = make_baseline(SERVING_DOC)
    assert baseline["schema"] == BASELINE_SCHEMA
    assert compare(SERVING_DOC, baseline) == []
    better = copy.deepcopy(SERVING_DOC)
    better["cases"][0]["sim_time_ms"] = 5.0  # improvements always pass
    assert compare(better, baseline) == []


def test_gate_fails_on_injected_slowdown():
    baseline = make_baseline(SERVING_DOC)
    slow = copy.deepcopy(SERVING_DOC)
    slow["cases"][0]["sim_time_ms"] = 15.0  # +50%, tolerance is 10%
    violations = compare(slow, baseline)
    assert len(violations) == 1
    (v,) = violations
    assert v["metric"] == "serving/poisson2d/sim_time_ms"
    assert v["current"] == 15.0
    assert "regressed 50.0%" in v["reason"]
    assert "FAIL" in format_violations(violations)


def test_gate_allows_drift_within_tolerance():
    baseline = make_baseline(SERVING_DOC)
    drift = copy.deepcopy(SERVING_DOC)
    drift["cases"][0]["sim_time_ms"] = 10.9  # +9% < 10% tolerance
    drift["cases"][1]["iterations"] = 144  # +20% < 25% tolerance
    assert compare(drift, baseline) == []


def test_gate_fails_on_missing_metric():
    baseline = make_baseline(SERVING_DOC)
    shrunk = copy.deepcopy(SERVING_DOC)
    shrunk["cases"] = shrunk["cases"][:1]
    violations = compare(shrunk, baseline)
    assert {v["metric"] for v in violations} == {
        "serving/cant/sim_time_ms",
        "serving/cant/iterations",
    }
    assert all(v["reason"] == "metric missing from current run" for v in violations)


def test_gate_fails_on_exact_metric_change():
    baseline = make_baseline(SERVING_DOC)
    broken = copy.deepcopy(SERVING_DOC)
    broken["summary"]["all_bit_identical"] = False
    violations = compare(broken, baseline)
    assert [v["metric"] for v in violations] == ["serving/all_bit_identical"]
    assert violations[0]["reason"] == "exact metric changed"


def test_gate_rejects_wrong_baseline_schema():
    with pytest.raises(ValueError):
        compare(SERVING_DOC, {"schema": "bogus/9", "metrics": {}})


def test_run_gate_update_then_pass_then_fail(tmp_path, capsys):
    current = tmp_path / "current.json"
    baseline = tmp_path / "baselines" / "b.json"
    current.write_text(json.dumps(SERVING_DOC))

    assert run_gate(current, baseline, update=True) == 0
    saved = json.loads(baseline.read_text())
    assert saved["schema"] == BASELINE_SCHEMA
    assert len(saved["metrics"]) == 5

    assert run_gate(current, baseline) == 0
    assert "PASS" in capsys.readouterr().out

    slow = copy.deepcopy(SERVING_DOC)
    slow["cases"][1]["sim_time_ms"] = 100.0
    current.write_text(json.dumps(slow))
    assert run_gate(current, baseline) == 1
    assert "FAIL" in capsys.readouterr().out


def test_run_gate_missing_baseline_fails(tmp_path):
    current = tmp_path / "current.json"
    current.write_text(json.dumps(SERVING_DOC))
    assert run_gate(current, tmp_path / "nope.json") == 1


def test_committed_baselines_are_well_formed():
    """The baselines the CI gate runs against must parse and carry the
    expected schema/metric families."""
    from pathlib import Path

    root = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"
    serving = json.loads((root / "serving_quick.json").read_text())
    fig14 = json.loads((root / "fig14_quick.json").read_text())
    assert serving["schema"] == BASELINE_SCHEMA
    assert fig14["schema"] == BASELINE_SCHEMA
    assert "serving/all_bit_identical" in serving["metrics"]
    assert any(k.startswith("fig14/") for k in fig14["metrics"])


def test_serving_batch_figures_are_gated():
    doc = copy.deepcopy(SERVING_DOC)
    doc["cases"][0].update(batch_sim_ms_per_rhs=7.5, batch_pcie_msgs_per_rhs=69.0)
    metrics = extract_metrics(doc)
    assert metrics["serving/poisson2d/batch_sim_ms_per_rhs"]["value"] == 7.5
    assert metrics["serving/poisson2d/batch_pcie_msgs_per_rhs"]["value"] == 69.0
    assert "serving/cant/batch_sim_ms_per_rhs" not in metrics  # older document
    baseline = make_baseline(doc)
    # Losing the batch's shared exchanges (69 -> 75 messages per RHS, +8.7%)
    # fails the gate although it is well inside the sim-time tolerance.
    unbatched = copy.deepcopy(doc)
    unbatched["cases"][0]["batch_pcie_msgs_per_rhs"] = 75.0
    violations = compare(unbatched, baseline)
    assert [v["metric"] for v in violations] == ["serving/poisson2d/batch_pcie_msgs_per_rhs"]

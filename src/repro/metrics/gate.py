"""Benchmark perf-regression gate: compare fresh results against baselines.

A benchmark run (``benchmarks/bench_serving.py`` → ``BENCH_serving.json``,
or the metrics CLI's fig14 workload → ``fig14_sim.json``) carries both
deterministic simulated-time results and nondeterministic host wall-clock
numbers.  The gate compares only the former — simulated times, iteration
counts, bit-identity flags — against a committed baseline with per-metric
tolerances, so a perf or convergence regression fails CI while runner
noise cannot.

Baseline schema (``repro-perf-baseline/1``)::

    {"schema": "repro-perf-baseline/1",
     "source": "<benchmark name / provenance note>",
     "metrics": {name: {"value": float,
                        "direction": "lower_is_better" | "exact",
                        "max_rel_increase": float}}}

``lower_is_better`` fails when ``current > value * (1 + max_rel_increase)``
(improvements always pass; refresh the baseline with ``--update`` to
ratchet them in).  ``exact`` fails on any difference — used for invariants
like the serving bench's bit-identity flag.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "BASELINE_SCHEMA",
    "extract_metrics",
    "make_baseline",
    "compare",
    "format_violations",
    "run_gate",
]

#: Schema tag stamped into every baseline file.
BASELINE_SCHEMA = "repro-perf-baseline/1"

#: Default relative tolerance for simulated timings.  Simulated time is
#: deterministic for a fixed environment but may shift a few percent when
#: numpy/BLAS versions change the convergence trajectory.
SIM_TIME_TOL = 0.10

#: Iteration counts may drift more before it means a real regression.
ITERATIONS_TOL = 0.25

#: PCIe messages per right-hand side move only with the iteration count or
#: the TSQR fallback path, so a few percent.  Batching saves fewer than
#: one in ten of them, and a lost saving must not hide in the tolerance.
MESSAGES_TOL = 0.05


def _lower(value: float, tol: float) -> dict:
    return {
        "value": float(value),
        "direction": "lower_is_better",
        "max_rel_increase": float(tol),
    }


def _exact(value: float) -> dict:
    return {"value": float(value), "direction": "exact", "max_rel_increase": 0.0}


def extract_metrics(doc: dict) -> dict[str, dict]:
    """The gated (deterministic) metrics of one benchmark document.

    Dispatches on ``doc["benchmark"]``: ``"serving"``
    (``BENCH_serving.json``) or ``"fig14_quick_sim"`` (the metrics CLI's
    workload document).  Wall-clock latencies are deliberately *not*
    extracted.
    """
    kind = doc.get("benchmark")
    metrics: dict[str, dict] = {}
    if kind == "serving":
        for case in doc["cases"]:
            prefix = f"serving/{case['matrix']}"
            metrics[f"{prefix}/sim_time_ms"] = _lower(
                case["sim_time_ms"], SIM_TIME_TOL
            )
            metrics[f"{prefix}/iterations"] = _lower(
                case["iterations"], ITERATIONS_TOL
            )
            # The batched solve, per right-hand side (documents from before
            # these figures existed carry neither).
            if "batch_sim_ms_per_rhs" in case:
                metrics[f"{prefix}/batch_sim_ms_per_rhs"] = _lower(
                    case["batch_sim_ms_per_rhs"], SIM_TIME_TOL
                )
                metrics[f"{prefix}/batch_pcie_msgs_per_rhs"] = _lower(
                    case["batch_pcie_msgs_per_rhs"], MESSAGES_TOL
                )
        metrics["serving/all_bit_identical"] = _exact(
            1.0 if doc["summary"]["all_bit_identical"] else 0.0
        )
    elif kind == "fig14_quick_sim":
        for case in doc["cases"]:
            prefix = f"fig14/{case['matrix']}/{case['solver']}"
            metrics[f"{prefix}/sim_time_ms"] = _lower(
                case["sim_time_ms"], SIM_TIME_TOL
            )
            metrics[f"{prefix}/iterations"] = _lower(
                case["iterations"], ITERATIONS_TOL
            )
    else:
        raise ValueError(f"unknown benchmark document kind {kind!r}")
    return metrics


def make_baseline(doc: dict, source: str = "") -> dict:
    """A committable baseline file from one benchmark document."""
    return {
        "schema": BASELINE_SCHEMA,
        "source": source or str(doc.get("benchmark", "")),
        "metrics": extract_metrics(doc),
    }


def compare(current_doc: dict, baseline: dict) -> list[dict]:
    """Violations of ``baseline`` by ``current_doc`` (empty = gate passes).

    Every baseline metric must be present in the current run — a silently
    dropped case would otherwise pass the gate forever.  Metrics new in
    the current run are ignored (they gate once baselined).
    """
    if baseline.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"baseline schema {baseline.get('schema')!r} != {BASELINE_SCHEMA!r}"
        )
    current = extract_metrics(current_doc)
    violations = []
    for name, spec in sorted(baseline["metrics"].items()):
        base_value = float(spec["value"])
        entry = current.get(name)
        if entry is None:
            violations.append(
                {
                    "metric": name,
                    "baseline": base_value,
                    "current": None,
                    "limit": base_value,
                    "reason": "metric missing from current run",
                }
            )
            continue
        value = float(entry["value"])
        if spec["direction"] == "exact":
            if value != base_value:
                violations.append(
                    {
                        "metric": name,
                        "baseline": base_value,
                        "current": value,
                        "limit": base_value,
                        "reason": "exact metric changed",
                    }
                )
        else:
            limit = base_value * (1.0 + float(spec["max_rel_increase"]))
            if value > limit:
                violations.append(
                    {
                        "metric": name,
                        "baseline": base_value,
                        "current": value,
                        "limit": limit,
                        "reason": (
                            f"regressed {100.0 * (value / base_value - 1.0):.1f}% "
                            f"(allowed {100.0 * float(spec['max_rel_increase']):.0f}%)"
                        ),
                    }
                )
    return violations


def format_violations(violations: list[dict]) -> str:
    """Human-readable report, one line per violation."""
    if not violations:
        return "perf gate: PASS"
    lines = [f"perf gate: FAIL ({len(violations)} violation(s))"]
    for v in violations:
        cur = "absent" if v["current"] is None else f"{v['current']:.6g}"
        lines.append(
            f"  {v['metric']}: current {cur} vs baseline "
            f"{v['baseline']:.6g} (limit {v['limit']:.6g}) — {v['reason']}"
        )
    return "\n".join(lines)


def run_gate(current_path, baseline_path, update: bool = False) -> int:
    """File-level gate driver (the ``scripts/perf_gate.py`` entry point).

    Returns a process exit code: 0 on pass (or after ``--update``
    rewrites the baseline), 1 on regression.
    """
    current_path = Path(current_path)
    baseline_path = Path(baseline_path)
    doc = json.loads(current_path.read_text())
    if update:
        baseline = make_baseline(
            doc, source=f"{doc.get('benchmark')} ({current_path.name})"
        )
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n"
        )
        print(f"baseline updated: {baseline_path} ({len(baseline['metrics'])} metrics)")
        return 0
    if not baseline_path.exists():
        print(f"perf gate: baseline {baseline_path} not found")
        return 1
    baseline = json.loads(baseline_path.read_text())
    violations = compare(doc, baseline)
    print(format_violations(violations))
    return 1 if violations else 0

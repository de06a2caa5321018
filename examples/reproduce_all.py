#!/usr/bin/env python
"""Reproduce the whole paper: run every figure benchmark and collate a report.

Runs ``pytest benchmarks/ --benchmark-only`` (unless ``--collate-only``),
then stitches the archived tables under ``benchmarks/results/`` into a
single ``benchmarks/results/REPORT.md`` ordered like the paper's evaluation
section, ready to diff against EXPERIMENTS.md.

Run:  python examples/reproduce_all.py [--collate-only]
"""

import argparse
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"

# Paper order, with section headers.
SECTIONS = [
    ("Fig. 3 — GMRES baseline", ["fig03_cant", "fig03_g3_circuit"]),
    ("Fig. 6 — surface-to-volume", ["fig06_cant", "fig06_g3_circuit"]),
    ("Fig. 7 — communication volume", ["fig07_cant", "fig07_g3_circuit"]),
    ("Fig. 8 — MPK performance", ["fig08_cant", "fig08_g3_circuit"]),
    ("Fig. 10 — TSQR properties", ["fig10_tsqr_properties"]),
    ("Fig. 11 — kernel performance", ["fig11a_dgemm", "fig11b_dgemv", "fig11c_tsqr"]),
    ("Fig. 12 — test matrices", ["fig12_matrices"]),
    ("Fig. 13 — TSQR errors in CA-GMRES", ["fig13_s20m30", "fig13_s30m30"]),
    ("Fig. 14 — CA-GMRES vs GMRES", ["fig14_cant", "fig14_g3_circuit", "fig14_dielfilter"]),
    ("Fig. 15 — normalized summary", ["fig15_normalized"]),
    (
        "Ablations",
        [
            "ablation_partitioner",
            "ablation_reorth",
            "ablation_mixed_precision",
            "ablation_basis",
            "ablation_adaptive",
            "ablation_svalue",
            "ablation_spmv_format",
        ],
    ),
    ("Batched right-hand sides — lockstep solve_many", ["batch_lockstep"]),
    ("Outlook — multi-node", ["multinode_outlook"]),
]


def run_benchmarks() -> int:
    """Regenerate every table by running the benchmark suite."""
    return subprocess.call(
        [sys.executable, "-m", "pytest", "benchmarks/", "--benchmark-only", "-q"],
        cwd=ROOT,
    )


def collate() -> Path:
    """Stitch the archived tables into REPORT.md (missing ones are noted)."""
    lines = [
        "# Regenerated paper results",
        "",
        "Produced by `python examples/reproduce_all.py`; see EXPERIMENTS.md",
        "for the paper-vs-measured discussion of each block.",
        "",
    ]
    for title, names in SECTIONS:
        lines.append(f"## {title}")
        lines.append("")
        for name in names:
            path = RESULTS / f"{name}.txt"
            if path.exists():
                lines.append("```")
                lines.append(path.read_text().rstrip())
                lines.append("```")
            else:
                lines.append(f"*{name}: missing — run the benchmarks first*")
            lines.append("")
    out = RESULTS / "REPORT.md"
    out.write_text("\n".join(lines) + "\n")
    return out


def main() -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--collate-only",
        action="store_true",
        help="skip the (several-minute) benchmark run; just build REPORT.md",
    )
    args = parser.parse_args()
    code = 0
    if not args.collate_only:
        code = run_benchmarks()
    report = collate()
    print(f"report written to {report}")
    return code


if __name__ == "__main__":
    sys.exit(main())

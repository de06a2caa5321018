#!/usr/bin/env python
"""Paired A/B runs of the benchmark: a parent revision against this checkout.

    python scripts/perf_ab.py --parent HEAD~1 --workload cant-restart \
        --pairs 10 --seconds 30 [--seed 21]

The parent revision is exported with ``git archive`` into a temporary
directory, which is deleted afterwards.  Pair ``i`` runs
``perfbench/run.py --seed <seed + i> --trace 0`` once on each side, the
parent first on even pairs and the change first on odd ones, so slow drift
of the host load falls on both sides alike.  Both sides run the same
benchmark settings; each uses its own ``perfbench/`` and ``src/``.

For every end-to-end metric in ``BENCHMARK.json`` the report gives each
side's median and quartiles, the change's win fraction (pairs it wins;
ties count for neither side) and a verdict:

* ``gain``       -- the change wins at least 9 of 10 pairs and its median
  beats the parent's by more than the parent's interquartile range;
* ``worse``      -- its median is worse than the parent's by more than the
  metric's bound;
* ``unresolved`` -- the parent's own spread is wider than the bound, and not
  every change run beats every parent run;
* ``within``     -- none of the above.

A metric whose two sides agree exactly in every pair, such as the
simulated-clock figures of a host-only change, is marked as such.

A run that exits nonzero or reports ``correct: false`` stops the script.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MIN_WIN_FRACTION = 0.9


def quartiles(values) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile (linear interpolation)."""
    q1, q2, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return float(q1), float(q2), float(q3)


def win_fraction(parent, change, better: str) -> float:
    """Share of pairs in which the change reads better; ties win nothing."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same nonzero number of runs on both sides")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    return wins / len(parent)


def verdict(parent, change, better: str, bound: float) -> str:
    """``gain``, ``worse``, ``unresolved`` or ``within`` (see module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    improvement = sign * (pmed - cmed)
    if (
        win_fraction(parent, change, better) >= MIN_WIN_FRACTION
        and improvement > p3 - p1
    ):
        return "gain"
    scale = abs(pmed) if pmed else 1.0
    if -improvement / scale > bound:
        return "worse"
    every_run_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if (p3 - p1) / scale > bound and not every_run_better:
        return "unresolved"
    return "within"


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; returns its result line."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} in {root} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{cmd} in {root} reported an incorrect run: {result}")
    return result


def export_revision(rev: str, dest: Path) -> None:
    """Write the files of ``rev`` under ``dest``."""
    blob = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")


def report(benchmark: dict, parent_runs: list[dict], change_runs: list[dict]) -> str:
    lines = [
        f"{'metric':26s} {'parent q1/med/q3':>32s} {'change q1/med/q3':>32s} "
        f"{'med Δ':>8s} {'wins':>5s}  verdict"
    ]
    for spec in benchmark["end_to_end"]:
        name = spec["name"]
        if name not in parent_runs[0]["metrics"]:
            continue
        parent = [r["metrics"][name]["value"] for r in parent_runs]
        change = [r["metrics"][name]["value"] for r in change_runs]
        pq, cq = quartiles(parent), quartiles(change)
        delta = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
        fmt = "{:.4g}/{:.4g}/{:.4g}"
        lines.append(
            f"{name:26s} {fmt.format(*pq):>32s} {fmt.format(*cq):>32s} "
            f"{delta:+8.1%} {win_fraction(parent, change, spec['better']):5.0%}  "
            f"{verdict(parent, change, spec['better'], spec['bound'])}"
            + (" (equal in every pair)" if parent == change else "")
        )
    failed = [(p["failed"], c["failed"]) for p, c in zip(parent_runs, change_runs)]
    lines.append(f"failed per pair (parent, change): {failed}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    tmp = Path(tempfile.mkdtemp(prefix="perf_ab_"))
    try:
        export_revision(args.parent, tmp)
        sides = {"parent": tmp, "change": ROOT}
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_side(sides[side], args.workload, seed, args.seconds))
            p50 = {s: runs[s][-1]["metrics"]["solve_p50_s"]["value"] for s in order}
            print(f"pair {i} seed {seed} first={order[0]} solve_p50_s {p50}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"workload {args.workload}, {args.pairs} pairs, {args.seconds} s per run, "
          f"seeds {args.seed}..{args.seed + args.pairs - 1}, parent {args.parent}")
    print(report(benchmark, runs["parent"], runs["change"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

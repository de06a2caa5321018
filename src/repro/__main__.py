"""Command-line interface: regenerate paper figures and run demo solves.

Usage::

    python -m repro list                      # available experiments
    python -m repro fig06 [--out results/]    # regenerate one figure
    python -m repro solve --matrix g3_circuit --solver ca_gmres --gpus 3
    python -m repro suite                     # Fig. 12 matrix table
    python -m repro trace --solver ca_gmres   # Chrome trace + breakdown
    python -m repro faults --seed 0 --rate 1e-3   # fault campaign

The figure commands drive the same code as ``pytest benchmarks/`` but
without the pytest machinery, so they are convenient for interactive use.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

__all__ = ["main"]


def _cmd_list(_args) -> int:
    print("experiments:")
    for name, doc in sorted(_EXPERIMENTS.items()):
        print(f"  {name:8s} {doc}")
    print("\nother commands: solve, suite, trace, faults, serve, metrics")
    return 0


def _write(out_dir: str | None, name: str, text: str) -> None:
    print(text)
    if out_dir:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        (path / f"{name}.txt").write_text(text + "\n")


def _cmd_fig06(args) -> int:
    from repro.harness import format_series
    from repro.matrices import cant, g3_circuit
    from repro.mpk.analysis import surface_to_volume
    from repro.order import block_row_partition, kway_partition, rcm

    s_values = [1, 2, 3, 4, 5, 6, 8, 10]
    for name, matrix in (
        ("cant", cant(nx=48, ny=10, nz=10)),
        ("g3_circuit", g3_circuit(nx=96, ny=96)),
    ):
        n = matrix.n_rows
        series = {}
        configs = {
            "natural": (matrix, block_row_partition(n, 3)),
            "rcm": (matrix.permute(rcm(matrix)), block_row_partition(n, 3)),
            "kway": (matrix, kway_partition(matrix, 3)),
        }
        for label, (mat, part) in configs.items():
            series[label] = [
                float(np.mean(surface_to_volume(mat, part, s))) for s in s_values
            ]
        _write(
            args.out, f"fig06_{name}",
            format_series("s", s_values, series,
                          title=f"Fig. 6 — surface-to-volume, {name} (3 GPUs)"),
        )
    return 0


def _cmd_fig10(args) -> int:
    from repro.harness import format_table
    from repro.orth import TSQR_PROPERTY_TABLE

    s = 14
    rows = [
        [m.upper(), p.error_bound, p.flops_leading, p.blas_level, p.comm_phases(s)]
        for m, p in sorted(TSQR_PROPERTY_TABLE.items())
    ]
    _write(
        args.out, "fig10",
        format_table(
            ["method", "||I-Q'Q||", "flops", "BLAS", f"comm (s={s})"],
            rows, title="Fig. 10 — TSQR properties",
        ),
    )
    return 0


def _cmd_fig11(args) -> int:
    from repro.harness import format_series
    from repro.perf.model import PerformanceModel

    model = PerformanceModel()
    n_values = [100_000, 400_000, 1_000_000]

    def rate(op, variant, cpu=False, **shape):
        t, flops = model.kernel_cost(op, variant, on="cpu" if cpu else "gpu", **shape)
        return flops / t / 1e9

    gemm = {
        v: [rate("gemm_tn", v, cpu=(v == "mkl"), n=n, k=30, j=30) for n in n_values]
        for v in ("cublas", "mkl", "batched")
    }
    gemv = {
        v: [rate("gemv_t", v, cpu=(v == "mkl"), n=n, k=30) for n in n_values]
        for v in ("cublas", "mkl", "magma")
    }
    _write(args.out, "fig11a",
           format_series("n", n_values, gemm, title="Fig. 11(a) — DGEMM Gflop/s"))
    _write(args.out, "fig11b",
           format_series("n", n_values, gemv, title="Fig. 11(b) — DGEMV Gflop/s"))
    return 0


def _cmd_fig08(args) -> int:
    from repro.dist.multivector import DistMultiVector
    from repro.gpu.context import MultiGpuContext
    from repro.harness import ascii_plot, format_series
    from repro.matrices import cant
    from repro.mpk import MatrixPowersKernel
    from repro.order import block_row_partition

    s_values = [1, 2, 3, 4, 5, 6, 8, 10]
    m = 100
    matrix = cant(nx=48, ny=10, nz=10)
    part = block_row_partition(matrix.n_rows, 3)
    v0 = np.ones(matrix.n_rows) / np.sqrt(matrix.n_rows)
    totals = []
    for s in s_values:
        ctx = MultiGpuContext(3)
        mpk = MatrixPowersKernel(ctx, matrix, part, s)
        V = DistMultiVector(ctx, part, s + 1)
        V.set_column_from_host(0, v0)
        ctx.reset_clocks()
        for _ in range(-(-m // s)):
            with ctx.region("mpk"):
                mpk.run(V, 0)
        totals.append(1e3 * ctx.timers["mpk"])
    _write(
        args.out, "fig08",
        format_series("s", s_values, {"total (ms)": totals},
                      title=f"Fig. 8 — MPK time for m={m} vectors, cant analog"),
    )
    print()
    print(ascii_plot(s_values, {"MPK total ms": totals}, width=48, height=10))
    return 0


def _cmd_suite(args) -> int:
    from repro.harness import format_table
    from repro.matrices.suite import PAPER_SUITE, dominant_ritz_ratio, load_suite_matrix

    rows = []
    for name in sorted(PAPER_SUITE):
        A, info = load_suite_matrix(name)
        t1, t2 = dominant_ritz_ratio(A, n_iter=40)
        rows.append(
            [name, info.source, A.n_rows, round(A.nnz / A.n_rows, 2),
             round(t1 / t2, 4), info.gmres_m, info.ca_s]
        )
    _write(
        args.out, "suite",
        format_table(
            ["name", "source", "n", "nnz/n", "th1/th2", "m", "s"],
            rows, title="Test-matrix suite (Fig. 12 analogs)",
        ),
    )
    return 0


def _cmd_solve(args) -> int:
    from repro.core.ca_gmres import ca_gmres
    from repro.core.gmres import gmres
    from repro.matrices.suite import load_suite_matrix

    A, info = load_suite_matrix(args.matrix)
    b = np.ones(A.n_rows)
    common = dict(
        n_gpus=args.gpus, ordering=info.ordering, m=info.gmres_m,
        tol=args.tol, max_restarts=args.max_restarts,
    )
    if args.solver == "gmres":
        result = gmres(A, b, **common)
    else:
        result = ca_gmres(A, b, s=info.ca_s, **common)
    print(f"matrix     : {args.matrix} (n={A.n_rows}, nnz/row={A.nnz / A.n_rows:.1f})")
    print(f"solver     : {args.solver} on {args.gpus} simulated GPU(s)")
    print(f"converged  : {result.converged}")
    print(f"restarts   : {result.n_restarts}  iterations: {result.n_iterations}")
    print(f"time/restart (simulated): {1e3 * result.time_per_restart():.2f} ms")
    phases = {k: f"{1e3 * v:.2f}" for k, v in sorted(result.timers.items())}
    print(f"phase ms   : {phases}")
    return 0 if result.converged or args.max_restarts else 1


def _cmd_trace(args) -> int:
    """Run one solver config, write a Chrome trace + text breakdown."""
    from repro.core.ca_gmres import ca_gmres
    from repro.core.gmres import gmres
    from repro.core.pipelined import pipelined_gmres
    from repro.gpu.context import MultiGpuContext
    from repro.harness import cycle_breakdown_table, profile_breakdown_table
    from repro.matrices.stencil import (
        convection_diffusion2d,
        poisson2d,
        poisson3d,
    )

    builders = {
        "poisson2d": poisson2d,
        "poisson3d": poisson3d,
        "convdiff2d": convection_diffusion2d,
    }
    A = builders[args.matrix](args.nx)
    b = np.ones(A.n_rows)
    ctx = MultiGpuContext(args.gpus)
    common = dict(
        ctx=ctx, m=args.m, tol=args.tol, max_restarts=args.max_restarts
    )
    if args.solver == "gmres":
        result = gmres(A, b, **common)
    elif args.solver == "pipelined":
        result = pipelined_gmres(A, b, **common)
    else:
        result = ca_gmres(A, b, s=args.s, **common)

    out_dir = Path(args.out or "results")
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"trace_{args.solver}_{args.matrix}"
    trace_path = out_dir / f"{stem}.json"
    ctx.trace.write_chrome_trace(trace_path)

    title = (
        f"{args.solver} on {args.gpus} simulated GPU(s), "
        f"{args.matrix} nx={args.nx} (n={A.n_rows})"
    )
    text = "\n\n".join(
        [
            profile_breakdown_table(result, title=title),
            cycle_breakdown_table(result),
        ]
    )
    print(text)
    (out_dir / f"{stem}.txt").write_text(text + "\n")
    n_events = len(ctx.trace.events)
    lanes = ", ".join(ctx.trace.lanes())
    print(
        f"\nwrote {trace_path} ({n_events} events; lanes: {lanes})\n"
        "open it in chrome://tracing or https://ui.perfetto.dev"
    )
    return 0


def _cmd_faults(args) -> int:
    """Run a deterministic fault-injection campaign; print recovery tables."""
    import json

    from repro.faults.campaign import campaign_tables, run_campaign

    kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    registry = None
    if args.metrics_out:
        from repro.metrics import MetricsRegistry

        registry = MetricsRegistry()
    campaign = run_campaign(
        solver=args.solver, problem=args.matrix, nx=args.nx,
        n_gpus=args.gpus, seed=args.seed, rate=args.rate, kinds=kinds,
        trials=args.trials, s=args.s, m=args.m, tol=args.tol,
        max_restarts=args.max_restarts, stall_factor=args.stall_factor,
        max_faults=args.max_faults, degrade=args.degrade,
        deadline=args.deadline, metrics=registry,
    )
    print(campaign_tables(campaign))
    if registry is not None:
        from repro.metrics import write_snapshot

        path = Path(args.metrics_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_snapshot(registry, path)
        print(f"\nwrote metrics snapshot {path} ({len(registry)} families)")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / (
            f"faults_{args.solver}_{args.matrix}_seed{args.seed}.json"
        )
        path.write_text(json.dumps(campaign, indent=2) + "\n")
        print(f"\nwrote {path}")
    # A campaign "fails" only when a fault went unrecovered without being
    # reported as such — aborted trials are a *successful* structured
    # outcome, so the exit code reflects crashes alone (exceptions).
    return 0


def _cmd_serve(args) -> int:
    """Stand up a solver session and serve repeated / batched solves."""
    import time

    from repro.harness import format_table
    from repro.matrices.stencil import (
        convection_diffusion2d,
        poisson2d,
        poisson3d,
    )
    from repro.serve import SolverSession

    builders = {
        "poisson2d": poisson2d,
        "poisson3d": poisson3d,
        "convdiff2d": convection_diffusion2d,
    }
    A = builders[args.matrix](args.nx)
    rng = np.random.default_rng(args.seed)
    bs = [rng.standard_normal(A.n_rows) for _ in range(max(args.rhs, 1))]

    kwargs = dict(
        n_gpus=args.gpus, ordering=args.ordering, m=args.m,
        tol=args.tol, max_restarts=args.max_restarts,
    )
    if args.solver == "ca":
        kwargs.update(s=args.s, basis=args.basis)
    session = SolverSession(A, solver=args.solver, **kwargs)

    rows = []
    t0 = time.perf_counter()
    cold = session.solve(bs[0])
    t_cold = time.perf_counter() - t0
    rows.append(["cold solve", f"{1e3 * t_cold:.1f}",
                 f"{1e3 * cold.total_time:.2f}", cold.n_iterations,
                 "yes" if cold.converged else "no"])
    t0 = time.perf_counter()
    warm = session.solve(bs[0])
    t_warm = time.perf_counter() - t0
    rows.append(["warm solve", f"{1e3 * t_warm:.1f}",
                 f"{1e3 * warm.total_time:.2f}", warm.n_iterations,
                 "yes" if warm.converged else "no"])
    if len(bs) > 1:
        t0 = time.perf_counter()
        batch = session.solve_many(bs)
        t_batch = time.perf_counter() - t0
        rows.append([
            f"solve_many x{len(bs)}", f"{1e3 * t_batch:.1f}",
            f"{1e3 * batch[-1].total_time:.2f}",
            sum(r.n_iterations for r in batch),
            f"{sum(r.converged for r in batch)}/{len(bs)}",
        ])
    print(format_table(
        ["request", "wall ms", "sim ms", "iters", "conv"], rows,
        title=(
            f"Serving — {args.solver} on {args.gpus} simulated GPU(s), "
            f"{args.matrix} nx={args.nx} (n={A.n_rows}), "
            f"ordering={args.ordering}"
        ),
    ))
    stats = session.stats()
    identical = bool(np.array_equal(cold.x, warm.x))
    print(
        f"\nplan cache : {stats['structural_plans']} structural / "
        f"{stats['host_plans']} host plan(s); "
        f"{stats['plan_hits']} hit(s), {stats['plan_misses']} miss(es), "
        f"{stats['invalidations']} invalidation(s) over "
        f"{stats['n_solves']} solve(s)"
    )
    print(f"fingerprint: pattern {session.fingerprint.host.pattern[:16]}…, "
          f"roster {'+'.join(session.fingerprint.roster)}")
    print(f"warm == cold (bit-identical): {identical}")
    speedup = t_cold / t_warm if t_warm > 0 else float("inf")
    print(f"plan reuse : warm solve {speedup:.1f}x faster (wall-clock)")
    return 0 if identical else 1


def _cmd_metrics(args) -> int:
    """Run the fig14-suite serving workload; export registry + timings."""
    import json

    from repro.metrics import (
        deterministic_snapshot,
        to_prometheus,
        write_snapshot,
    )
    from repro.metrics.workload import run_workload

    registry, fig14_doc = run_workload(
        n_gpus=args.gpus, suite=args.suite, basis=args.basis
    )
    print(to_prometheus(registry), end="")

    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "metrics.prom").write_text(to_prometheus(registry))
        write_snapshot(registry, out_dir / "metrics.json")
        (out_dir / "fig14_sim.json").write_text(
            json.dumps(fig14_doc, indent=2, sort_keys=True) + "\n"
        )
        print(
            f"\nwrote {out_dir}/metrics.prom, {out_dir}/metrics.json, "
            f"{out_dir}/fig14_sim.json ({len(registry)} metric families)"
        )

    if args.check:
        registry2, fig14_doc2 = run_workload(
            n_gpus=args.gpus, suite=args.suite, basis=args.basis
        )
        same_snapshot = json.dumps(
            deterministic_snapshot(registry), sort_keys=True
        ) == json.dumps(deterministic_snapshot(registry2), sort_keys=True)
        same_timings = fig14_doc == fig14_doc2
        print(
            f"\ndeterminism check: snapshot "
            f"{'bit-identical' if same_snapshot else 'MISMATCH'}, "
            f"timings {'bit-identical' if same_timings else 'MISMATCH'} "
            "across two consecutive runs (wall-clock metrics excluded)"
        )
        if not (same_snapshot and same_timings):
            return 1
    return 0


_EXPERIMENTS = {
    "fig06": "MPK surface-to-volume ratio vs s",
    "fig08": "MPK run time vs s (with ASCII plot)",
    "fig10": "TSQR property table",
    "fig11": "tall-skinny kernel Gflop/s (model)",
}

_HANDLERS = {
    "list": _cmd_list,
    "fig06": _cmd_fig06,
    "fig08": _cmd_fig08,
    "fig10": _cmd_fig10,
    "fig11": _cmd_fig11,
    "suite": _cmd_suite,
    "solve": _cmd_solve,
    "trace": _cmd_trace,
    "faults": _cmd_faults,
    "serve": _cmd_serve,
    "metrics": _cmd_metrics,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="CA-GMRES reproduction: figures and demo solves",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("list", "fig06", "fig08", "fig10", "fig11", "suite"):
        p = sub.add_parser(name)
        p.add_argument("--out", default=None, help="directory for table files")
    p = sub.add_parser("solve")
    p.add_argument("--matrix", default="g3_circuit",
                   choices=["cant", "g3_circuit", "dielfilter", "nlpkkt"])
    p.add_argument("--solver", default="ca_gmres", choices=["gmres", "ca_gmres"])
    p.add_argument("--gpus", type=int, default=3)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--max-restarts", type=int, default=10)
    p = sub.add_parser(
        "trace",
        help="run one solver config, write a Chrome trace_event JSON "
             "(chrome://tracing / Perfetto) and a kernel breakdown table",
    )
    p.add_argument("--matrix", default="poisson2d",
                   choices=["poisson2d", "poisson3d", "convdiff2d"])
    p.add_argument("--nx", type=int, default=30,
                   help="stencil grid dimension (n = nx^2 or nx^3)")
    p.add_argument("--solver", default="ca_gmres",
                   choices=["gmres", "ca_gmres", "pipelined"])
    p.add_argument("--gpus", type=int, default=2)
    p.add_argument("--m", type=int, default=20)
    p.add_argument("--s", type=int, default=5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--max-restarts", type=int, default=3)
    p.add_argument("--out", default=None, help="output directory (default results/)")
    p = sub.add_parser(
        "faults",
        help="run a seeded fault-injection campaign and print the "
             "injection/recovery summary tables",
    )
    p.add_argument("--solver", default="ca_gmres",
                   choices=["gmres", "ca_gmres", "pipelined"])
    p.add_argument("--matrix", default="poisson2d",
                   choices=["poisson2d", "poisson3d", "convdiff2d"])
    p.add_argument("--nx", type=int, default=30,
                   help="stencil grid dimension (n = nx^2 or nx^3)")
    p.add_argument("--gpus", type=int, default=2)
    p.add_argument("--seed", type=int, default=0,
                   help="root seed; trial i uses seed+i")
    p.add_argument("--rate", type=float, default=1e-3,
                   help="per-opportunity fault probability")
    p.add_argument("--kinds", default="corrupt,poison,stall",
                   help="comma-separated fault kinds (add 'dropout' for "
                        "hard device loss)")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--s", type=int, default=5)
    p.add_argument("--m", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-restarts", type=int, default=80)
    p.add_argument("--stall-factor", type=float, default=8.0)
    p.add_argument("--max-faults", type=int, default=None,
                   help="cap on rate-drawn injections per trial")
    p.add_argument("--degrade", action="store_true",
                   help="absorb device dropouts by repartitioning over "
                        "the surviving GPUs instead of aborting")
    p.add_argument("--deadline", type=float, default=None,
                   help="simulated-time budget per trial in seconds; the "
                        "solve stops at the first restart boundary past it")
    p.add_argument("--out", default=None,
                   help="also write the campaign JSON to this directory")
    p.add_argument("--metrics-out", default=None,
                   help="aggregate every trial's telemetry into a metrics "
                        "registry and write its JSON snapshot to this file")
    p = sub.add_parser(
        "serve",
        help="stand up a solver session: plan once, then serve repeated "
             "and batched solves against the same matrix",
    )
    p.add_argument("--matrix", default="poisson2d",
                   choices=["poisson2d", "poisson3d", "convdiff2d"])
    p.add_argument("--nx", type=int, default=30,
                   help="stencil grid dimension (n = nx^2 or nx^3)")
    p.add_argument("--solver", default="ca", choices=["ca", "gmres"])
    p.add_argument("--gpus", type=int, default=2)
    p.add_argument("--ordering", default="natural",
                   choices=["natural", "rcm", "kway"])
    p.add_argument("--s", type=int, default=5)
    p.add_argument("--m", type=int, default=20)
    p.add_argument("--basis", default="newton", choices=["newton", "monomial"])
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-restarts", type=int, default=40)
    p.add_argument("--rhs", type=int, default=4,
                   help="right-hand sides for the batched solve_many demo")
    p.add_argument("--seed", type=int, default=0, help="RHS generator seed")
    p = sub.add_parser(
        "metrics",
        help="run the fig14-suite serving workload, print Prometheus text "
             "exposition, and write the JSON snapshot + simulated timings",
    )
    p.add_argument("--gpus", type=int, default=2)
    p.add_argument("--suite", default="quick", choices=["quick", "tiny"],
                   help="workload: 'quick' = reduced fig14 matrices, "
                        "'tiny' = one small stencil (smoke tests)")
    p.add_argument("--basis", default="newton", choices=["newton", "monomial"])
    p.add_argument("--out", default=None,
                   help="directory for metrics.prom / metrics.json / "
                        "fig14_sim.json")
    p.add_argument("--check", action="store_true",
                   help="run the workload twice and verify the "
                        "deterministic (simulated-time) metrics are "
                        "bit-identical across runs")
    args = parser.parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

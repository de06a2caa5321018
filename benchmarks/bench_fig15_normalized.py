"""Fig. 15 — normalized time per restart loop, all four matrices.

The paper's summary bar chart: for each matrix, the time per restart loop
of GMRES and CA-GMRES on 1-3 GPUs, normalized by GMRES on one GPU, with
the CA-GMRES speedup annotated.  CA-GMRES uses MPK only where it beats
SpMV (the paper's rule); nlpkkt uses s = 10 as in the paper.

Expected shape: normalized bars shrink with GPU count; every CA-GMRES bar
is shorter than the same-GPU GMRES bar; speedups land in the paper's
1.3 - 2.1 band.
"""

import numpy as np

from repro.harness import format_table
from repro.harness.experiment import run_solver_experiment
from repro.matrices import cant, dielfilter, g3_circuit, nlpkkt

MAX_RESTARTS = 3

CASES = {
    "cant": dict(build=lambda: cant(nx=96, ny=16, nz=16), m=60, s=15, kway=False, reorth=2),
    "g3_circuit": dict(build=lambda: g3_circuit(nx=400, ny=400), m=30, s=15, kway=True, reorth=1),
    "dielfilter": dict(build=lambda: dielfilter(), m=180, s=15, kway=True, reorth=2),
    "nlpkkt": dict(build=lambda: nlpkkt(), m=120, s=10, kway=True, reorth=1),
}


def run_case(spec):
    A = spec["build"]()
    b = np.ones(A.n_rows)
    m, s = spec["m"], spec["s"]
    ordering = "kway" if spec["kway"] else "natural"
    rows = []
    base = None
    speedups = {}
    for g in (1, 2, 3):
        rec_g = run_solver_experiment(
            "GMRES", A, b, "gmres", g, ordering=ordering, m=m, tol=1e-4,
            orth_method="cgs", max_restarts=MAX_RESTARTS,
        )
        if base is None:
            base = rec_g.total_ms
        # Decide MPK vs SpMV the paper's way: use whichever is faster.
        candidates = []
        for use_mpk in (True, False):
            rec = run_solver_experiment(
                "CA-GMRES", A, b, "ca_gmres", g, ordering=ordering, m=m, s=s,
                tol=1e-4, basis="newton", tsqr_method="cholqr",
                reorth=spec["reorth"], use_mpk=use_mpk,
                max_restarts=MAX_RESTARTS,
            )
            candidates.append((rec.total_ms, use_mpk, rec))
        best_ms, used_mpk, rec_ca = min(candidates, key=lambda t: t[0])
        speedups[g] = rec_g.total_ms / best_ms
        rows.append(
            [
                g,
                rec_g.total_ms / base,
                best_ms / base,
                "MPK" if used_mpk else "SpMV",
                f"{speedups[g]:.2f}",
            ]
        )
    return rows, speedups


def test_fig15_normalized(benchmark, record_output):
    def run_all():
        out = {}
        for name, spec in CASES.items():
            out[name] = run_case(spec)
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    blocks = []
    for name, (rows, _) in results.items():
        blocks.append(
            format_table(
                ["GPUs", "GMRES (norm)", "CA-GMRES (norm)", "kernel", "SpdUp"],
                rows,
                title=f"Fig. 15 — {name} analog, time/restart normalized to "
                      "GMRES on 1 GPU",
            )
        )
    record_output("fig15_normalized", "\n\n".join(blocks))

    for name, (rows, speedups) in results.items():
        # CA-GMRES beats GMRES at every device count.
        for g in (1, 2, 3):
            assert speedups[g] > 1.0, (name, g)
        # Normalized GMRES bars shrink with device count.
        norm_g = [row[1] for row in rows]
        assert norm_g[2] < norm_g[0]

"""Fig. 14 — the CA-GMRES vs GMRES table.

For each matrix (cant / G3_circuit / dielFilter analogs) regenerates the
paper's rows: GMRES with MGS and CGS on 1-3 GPUs, pipelined GMRES
(footnote 5) on 1-3 GPUs, CA-GMRES(1, m) (the degenerate case, slower than
GMRES), and CA-GMRES(s, m) with the paper's orthogonalization choice on 1-3
GPUs, reporting restart counts, Orth / TSQR / SpMV / total time per restart
loop, and the speedup over same-GPU GMRES/CGS.

Expected shape: MGS-GMRES much slower than CGS-GMRES; CA-GMRES(1, m)
slower than GMRES; CA-GMRES(s, m) 1.1-2x faster; everything scales with
device count.  Restart loops are capped (the timing columns are
per-restart averages, which is what Fig. 14 reports).
"""

import numpy as np
import pytest

from repro.harness import format_table, profile_breakdown_table
from repro.harness.experiment import run_solver_experiment, solver_table_row
from repro.matrices import cant, dielfilter, g3_circuit

MAX_RESTARTS = 4

CASES = {
    "cant": dict(
        build=lambda: cant(nx=96, ny=16, nz=16),
        m=60, s=15, reorth=2, kway=False,
        label_ca="CA-GMRES(15,60) 2xCholQR",
    ),
    "g3_circuit": dict(
        build=lambda: g3_circuit(nx=400, ny=400),
        m=30, s=15, reorth=1, kway=True,
        label_ca="CA-GMRES(15,30) CholQR",
    ),
    "dielfilter": dict(
        build=lambda: dielfilter(),
        m=180, s=15, reorth=2, kway=True,
        label_ca="CA-GMRES(15,180) 2xCholQR",
    ),
}


def run_case(name, spec):
    A = spec["build"]()
    b = np.ones(A.n_rows)
    m, s = spec["m"], spec["s"]
    ordering = "kway" if spec["kway"] else "natural"
    rows = []
    records = {}
    # GMRES with MGS (1 GPU only, as the paper's tables do).
    rec = run_solver_experiment(
        "GMRES MGS", A, b, "gmres", 1, m=m, tol=1e-4,
        orth_method="mgs", max_restarts=MAX_RESTARTS,
    )
    records[("mgs", 1)] = rec
    rows.append(solver_table_row(rec))
    # GMRES with CGS on 1-3 GPUs: the reference configuration.
    for g in (1, 2, 3):
        rec = run_solver_experiment(
            "GMRES CGS", A, b, "gmres", g, ordering=ordering, m=m,
            tol=1e-4, orth_method="cgs", max_restarts=MAX_RESTARTS,
        )
        records[("cgs", g)] = rec
        rows.append(solver_table_row(rec))
    # Pipelined GMRES (footnote 5) on 1-3 GPUs; SpdUp is over GMRES CGS.
    for g in (1, 2, 3):
        rec = run_solver_experiment(
            "Pipelined GMRES", A, b, "pipelined_gmres", g, ordering=ordering,
            m=m, tol=1e-4, max_restarts=MAX_RESTARTS,
        )
        rec.speedup = records[("cgs", g)].total_ms / rec.total_ms
        records[("pipelined", g)] = rec
        rows.append(solver_table_row(rec))
    # CA-GMRES(1, m): the degenerate slow case.
    rec = run_solver_experiment(
        "CA-GMRES(1,m)", A, b, "ca_gmres", 1, m=m, s=1, tol=1e-4,
        basis="monomial", tsqr_method="cholqr",
        max_restarts=min(MAX_RESTARTS, 2),
    )
    records[("ca1", 1)] = rec
    rows.append(solver_table_row(rec))
    # CA-GMRES(s, m) with the paper's orthogonalization.
    for g in (1, 2, 3):
        rec = run_solver_experiment(
            spec["label_ca"], A, b, "ca_gmres", g, ordering=ordering,
            m=m, s=s, tol=1e-4, basis="newton", tsqr_method="cholqr",
            reorth=spec["reorth"], max_restarts=MAX_RESTARTS,
        )
        rec.speedup = records[("cgs", g)].total_ms / rec.total_ms
        records[("ca", g)] = rec
        rows.append(solver_table_row(rec))
    table = format_table(
        ["GPUs", "solver", "Rest.", "Orth/Res ms", "TSQR/Res ms",
         "SpMV/Res ms", "Total/Res ms", "SpdUp"],
        rows,
        title=f"Fig. 14 — {name} analog (n={A.n_rows}, "
              f"nnz/row={A.nnz / A.n_rows:.1f}, restart cap {MAX_RESTARTS})",
    )
    return records, table


@pytest.mark.parametrize("name", sorted(CASES))
def test_fig14_ca_gmres(benchmark, record_output, name):
    spec = CASES[name]
    records, table = benchmark.pedantic(
        lambda: run_case(name, spec), rounds=1, iterations=1
    )
    record_output(f"fig14_{name}", table)
    # Per-kernel attribution from the event trace (the paper's Fig. 11-style
    # breakdown) for the headline CA-GMRES configuration on 3 GPUs.
    record_output(
        f"fig14_{name}_kernels",
        profile_breakdown_table(
            records[("ca", 3)].raw,
            title=f"{spec['label_ca']} on 3 GPUs — {name}",
        ),
    )

    # Paper shape 1: MGS-GMRES is much slower than CGS-GMRES.
    assert records[("mgs", 1)].orth_ms > 2.0 * records[("cgs", 1)].orth_ms
    # Paper shape 2: CA-GMRES(1, m) is slower than GMRES.
    assert records[("ca1", 1)].total_ms > records[("cgs", 1)].total_ms
    # Paper shape 3: CA-GMRES(s, m) beats GMRES on every device count.
    for g in (1, 2, 3):
        assert records[("ca", g)].speedup > 1.0, (name, g)
    # Paper shape 4: both solvers get faster with more GPUs.
    assert records[("cgs", 3)].total_ms < records[("cgs", 1)].total_ms
    assert records[("ca", 3)].total_ms < records[("ca", 1)].total_ms

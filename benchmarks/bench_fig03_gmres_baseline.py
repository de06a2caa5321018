"""Fig. 3 — GMRES performance: 16-core CPU vs 1-3 GPUs.

The paper's Fig. 3 shows time per restart loop of standard GMRES on the
CPU (threaded MKL, CSR SpMV) and on 1-3 GPUs (ELLPACK SpMV), split into
SpMV and Orth.  Regenerated here on the cant and G3_circuit analogs with
the calibrated cost models; expected shape: the CPU is slowest, each added
GPU helps, and SpMV dominates Orth for the sparser matrix.
"""

import numpy as np
import pytest

from repro.core.gmres import gmres
from repro.gpu.context import MultiGpuContext
from repro.harness import format_table
from repro.matrices import cant, g3_circuit
from repro.perf.machine import cpu_reference_node


CASES = {
    # paper: cant natural ordering, GMRES(60); G3_circuit k-way, GMRES(30)
    "cant": dict(build=lambda: cant(nx=96, ny=16, nz=16), m=60, kway=False),
    "g3_circuit": dict(build=lambda: g3_circuit(nx=400, ny=400), m=30, kway=True),
}


def run_case(name, spec):
    A = spec["build"]()
    b = np.ones(A.n_rows)
    m = spec["m"]
    ordering = "kway" if spec["kway"] else "natural"
    rows = []
    # CPU reference: the solver on one host-rate "device".
    ctx = MultiGpuContext(1, machine=cpu_reference_node())
    r = gmres(A, b, ctx=ctx, m=m, tol=1e-30, max_restarts=2)
    rows.append(
        ["CPU (16-core)", r.n_iterations,
         1e3 * r.timers["spmv"] / r.n_restarts,
         1e3 * r.timers["orth"] / r.n_restarts,
         1e3 * r.time_per_restart()]
    )
    for n_gpus in (1, 2, 3):
        r = gmres(A, b, n_gpus=n_gpus, ordering=ordering, m=m, tol=1e-30,
                  max_restarts=2)
        rows.append(
            [f"{n_gpus} GPU", r.n_iterations,
             1e3 * r.timers["spmv"] / r.n_restarts,
             1e3 * r.timers["orth"] / r.n_restarts,
             1e3 * r.time_per_restart()]
        )
    return A, format_table(
        ["config", "iters", "SpMV/Res ms", "Orth/Res ms", "Total/Res ms"],
        rows,
        title=f"Fig. 3 — GMRES({m}) on {name} analog "
              f"(n={A.n_rows}, nnz/row={A.nnz / A.n_rows:.1f}, simulated)",
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_fig03_gmres_baseline(benchmark, record_output, name):
    spec = CASES[name]

    def run():
        return run_case(name, spec)

    A, table = benchmark.pedantic(run, rounds=1, iterations=1)
    record_output(f"fig03_{name}", table)
    # Shape assertions: GPUs beat the CPU; 3 GPUs beat 1.
    lines = table.splitlines()
    totals = [float(line.split("|")[-1]) for line in lines[3:]]
    assert totals[1] < totals[0], "1 GPU should beat the CPU reference"
    assert totals[3] < totals[1], "3 GPUs should beat 1 GPU"

"""Ablation — the basis length s (the paper's "adjust input parameters").

Sweeps s for CA-GMRES on the cant analog at fixed m and reports the time
per restart loop, split by phase.  Expected shape (Sections IV+VI):
s = 1 is the degenerate slow case; moderate s amortizes communication
latency; very large s pays MPK's redundant computation and the basis
conditioning (CholQR breakdowns under the monomial seed blocks) — a
U-shaped total with a broad minimum, which is why the paper picks
s = 10-15.
"""

import numpy as np

from repro.core.ca_gmres import ca_gmres
from repro.core.gmres import gmres
from repro.harness import format_table
from repro.matrices import cant

S_VALUES = [1, 2, 5, 10, 15, 30]
M = 60


def sweep():
    A = cant(nx=96, ny=16, nz=16)
    b = np.ones(A.n_rows)
    ref = gmres(A, b, n_gpus=3, m=M, tol=1e-14, max_restarts=1)
    rows = [
        ["GMRES", "-", 1e3 * ref.timers["orth"], 1e3 * ref.timers["spmv"],
         1e3 * ref.time_per_restart(), "-"]
    ]
    totals = {}
    for s in S_VALUES:
        r = ca_gmres(
            A, b, n_gpus=3, s=s, m=M, tol=1e-14, max_restarts=2,
            basis="monomial", tsqr_method="cholqr",
        )
        cycles = max(r.n_restarts, 1)
        orth = (r.timers.get("borth", 0) + r.timers.get("tsqr", 0)) / cycles
        spmv = (r.timers.get("mpk", 0) + r.timers.get("spmv", 0)) / cycles
        totals[s] = r.time_per_restart()
        rows.append(
            [f"CA-GMRES s={s}", r.breakdowns, 1e3 * orth, 1e3 * spmv,
             1e3 * totals[s], f"{ref.time_per_restart() / totals[s]:.2f}"]
        )
    return rows, totals, ref.time_per_restart()


def test_ablation_s_sweep(benchmark, record_output):
    rows, totals, ref_total = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_table(
        ["config", "breakdowns", "Orth/Res ms", "SpMV/Res ms",
         "Total/Res ms", "SpdUp"],
        rows,
        title=f"Ablation — basis length s, cant analog, m = {M} (3 GPUs)",
    )
    record_output("ablation_svalue", table)

    # s = 1 is slower than GMRES (the degenerate case).
    assert totals[1] > ref_total
    # Some moderate s beats GMRES.
    best_s = min(totals, key=totals.get)
    assert totals[best_s] < ref_total
    assert 2 <= best_s <= 30
    # The sweep is roughly U-shaped: the best s beats both extremes.
    assert totals[best_s] <= totals[1] and totals[best_s] <= totals[30]

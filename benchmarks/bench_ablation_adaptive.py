"""Ablation — adaptive block length (Section VII future work).

Fixed s = m on the monomial basis drives CholQR into repeated breakdowns;
the adaptive scheme halves the working block length when the R-factor
conditioning degrades and recovers it when the basis is healthy.
"""

import numpy as np

from repro.core.ca_gmres import ca_gmres
from repro.harness import format_table
from repro.matrices import poisson2d


def test_ablation_adaptive_s(benchmark, record_output):
    A = poisson2d(20)
    b = np.ones(A.n_rows)

    def run():
        out = {}
        for adaptive in (False, True):
            r = ca_gmres(
                A, b, s=30, m=30, basis="monomial", tsqr_method="cholqr",
                tol=1e-8, max_restarts=40, on_breakdown="fallback",
                adaptive_s=adaptive,
            )
            out[adaptive] = r
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for adaptive, r in out.items():
        s_used = (
            [h["s_used"] for h in r.details.get("s_history", [])]
            if adaptive
            else ["30 (fixed)"]
        )
        rows.append(
            [
                "adaptive" if adaptive else "fixed",
                r.converged,
                r.n_restarts,
                r.breakdowns,
                str(s_used[:8]),
            ]
        )
    record_output(
        "ablation_adaptive",
        format_table(
            ["scheme", "converged", "restarts", "breakdowns", "s choices"],
            rows,
            title="Ablation — fixed vs adaptive block length, "
                  "monomial CA-GMRES(30, 30)",
        ),
    )
    assert out[True].converged
    assert out[True].breakdowns <= out[False].breakdowns
    history = out[True].details["s_history"]
    assert any(h["s_used"] < 30 for h in history), "adaptive never adapted"

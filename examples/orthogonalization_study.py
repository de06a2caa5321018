#!/usr/bin/env python
"""Orthogonalization study: the five TSQR strategies of Section V.

Factors tall-skinny panels of increasing condition number with MGS, CGS,
CholQR, SVQR, and CAQR; reports orthogonality error ``||I - Q^T Q||``,
factorization error, GPU-CPU communication phases (Fig. 10), and simulated
time on three GPUs — reproducing the stability-vs-speed trade-off at the
heart of the paper.

Run:  python examples/orthogonalization_study.py
"""

import numpy as np

from repro.gpu.context import MultiGpuContext
from repro.harness import format_table
from repro.matrices import well_conditioned_tall_skinny
from repro.order.partition import block_row_partition
from repro.dist.multivector import DistMultiVector
from repro.orth import (
    CholeskyBreakdown,
    factorization_error,
    orthogonality_error,
    tsqr,
    tsqr_properties,
)

N_ROWS = 60_000
N_COLS = 16  # s + 1
METHODS = ["mgs", "cgs", "cholqr", "svqr", "caqr"]


def factor_panel(method: str, V: np.ndarray):
    """TSQR one panel on 3 simulated GPUs; returns (Q, R, messages, time)."""
    ctx = MultiGpuContext(3)
    part = block_row_partition(V.shape[0], 3)
    mv = DistMultiVector(ctx, part, V.shape[1])
    for d in range(3):
        mv.local[d].data[...] = V[part.rows_of(d)]
    ctx.reset_clocks()
    R = tsqr(ctx, mv.panel(0, V.shape[1]), method=method)
    Q = np.empty_like(V)
    for d in range(3):
        Q[part.rows_of(d)] = mv.local[d].data
    return Q, R, ctx.counters.total_messages, ctx.current_time()


def main() -> None:
    for kappa in (1e2, 1e6, 1e10):
        V = well_conditioned_tall_skinny(N_ROWS, N_COLS, condition=kappa, seed=1)
        rows = []
        for method in METHODS:
            props = tsqr_properties(method)
            try:
                Q, R, messages, t = factor_panel(method, V)
                rows.append(
                    [
                        method.upper(),
                        props.error_bound,
                        orthogonality_error(Q),
                        factorization_error(V, Q, R),
                        messages,
                        1e3 * t,
                    ]
                )
            except CholeskyBreakdown:
                rows.append(
                    [method.upper(), props.error_bound, "BREAKDOWN", "-", "-", "-"]
                )
        print(
            format_table(
                ["method", "bound", "||I-Q'Q||", "||V-QR||/||V||",
                 "PCIe msgs", "sim ms"],
                rows,
                title=f"\nTSQR of a {N_ROWS} x {N_COLS} panel, kappa(V) = {kappa:.0e}",
            )
        )
    print(
        "\nTakeaways (matching the paper): CholQR/SVQR are the fastest and\n"
        "communicate a constant 2 phases, but lose orthogonality like\n"
        "kappa^2 and CholQR eventually breaks down; SVQR survives the\n"
        "breakdown; CAQR stays at machine precision but runs at BLAS-1/2\n"
        "speed; MGS communicates (s+1)(s+2) times."
    )


if __name__ == "__main__":
    main()

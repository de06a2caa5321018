#!/usr/bin/env python
"""Matrix powers kernel analysis: Section IV's structural trade-offs.

For the banded FEM analog (`cant`) and the scrambled circuit analog
(`G3_circuit`) under natural, RCM, and k-way orderings, reports how the
surface-to-volume ratio, redundant-computation overhead, and communication
volume evolve with the basis length ``s`` — the data behind Figs. 6 and 7 —
then executes the kernel and shows the latency-vs-bandwidth crossover of
Fig. 8.

Run:  python examples/matrix_powers_analysis.py
"""

import numpy as np

from repro.dist.multivector import DistMultiVector
from repro.gpu.context import MultiGpuContext
from repro.harness import format_series
from repro.matrices import cant, g3_circuit
from repro.mpk import MatrixPowersKernel, mpk_structure_report
from repro.order import block_row_partition, kway_partition, rcm

N_GPUS = 3
S_VALUES = [1, 2, 3, 4, 5, 6, 8, 10]
M = 100  # total vectors generated, as in Fig. 8


def orderings(matrix):
    """The paper's three orderings as (label, matrix, partition) triples."""
    n = matrix.n_rows
    yield "natural", matrix, block_row_partition(n, N_GPUS)
    reordered = matrix.permute(rcm(matrix))
    yield "rcm", reordered, block_row_partition(n, N_GPUS)
    yield "kway", matrix, kway_partition(matrix, N_GPUS)


def structure_tables(name, matrix):
    print(f"\n=== {name}: n = {matrix.n_rows}, nnz/row = {matrix.nnz / matrix.n_rows:.1f} ===")
    surface = {}
    volume = {}
    for label, mat, part in orderings(matrix):
        rep = mpk_structure_report(mat, part, S_VALUES, m=M)
        surface[label] = rep["surface_to_volume_mean"]
        volume[label] = [v / 1e3 for v in rep["comm_volume"]]
    print(format_series("s", S_VALUES, surface,
                        title="\nFig. 6 analog: surface-to-volume ratio"))
    print(format_series("s", S_VALUES, volume,
                        title=f"\nFig. 7 analog: comm volume over m={M} iters (K elements)"))


def mpk_timing(name, matrix, partition):
    """Fig. 8 analog: simulated MPK time to generate m = 100 vectors."""
    n = matrix.n_rows
    total_ms, spmv_ms = [], []
    for s in S_VALUES:
        ctx = MultiGpuContext(N_GPUS)
        mpk = MatrixPowersKernel(ctx, matrix, partition, s)
        V = DistMultiVector(ctx, partition, s + 1)
        V.set_column_from_host(0, np.ones(n) / np.sqrt(n))
        ctx.reset_clocks()
        calls = -(-M // s)
        for _ in range(calls):
            V.set_column_from_host(0, V.gather_column_to_host(s))
            with ctx.region("mpk"):
                mpk.run(V, 0)
        total_ms.append(1e3 * ctx.timers["mpk"])
        # SpMV-only time: the modeled step launches of every call.
        spmv_ms.append(1e3 * sum(mpk.step_seconds()) / N_GPUS * calls)
    print(
        format_series(
            "s", S_VALUES, {"total (ms)": total_ms, "spmv only (ms)": spmv_ms},
            title=f"\nFig. 8 analog: {name}, MPK time for m = {M} vectors "
                  f"({N_GPUS} GPUs, simulated)",
        )
    )


def main() -> None:
    cases = {
        "cant analog (banded FEM)": cant(nx=48, ny=10, nz=10),
        "G3_circuit analog (scrambled netlist)": g3_circuit(nx=96, ny=96),
    }
    for name, matrix in cases.items():
        structure_tables(name, matrix)
    # Timing with the ordering the paper uses per matrix (Fig. 14 headers).
    mpk_timing("cant analog, natural ordering", cases["cant analog (banded FEM)"],
               block_row_partition(cases["cant analog (banded FEM)"].n_rows, N_GPUS))
    g3 = cases["G3_circuit analog (scrambled netlist)"]
    mpk_timing("G3_circuit analog, k-way partitioning", g3, kway_partition(g3, N_GPUS))


if __name__ == "__main__":
    main()

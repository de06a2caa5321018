"""Ablation — partitioning algorithm (the paper's footnote 3).

"We also tested using recursive bisection algorithms, but the k-way
partitioning that minimizes the edge-cut often gave smaller surfaces and
better load balances."

Compares natural block rows, recursive bisection, and k-way partitioning
on the circuit analog: edge cut, balance, MPK surface-to-volume, and the
SpMV communication volume they imply.
"""

import numpy as np

from repro.harness import format_table
from repro.matrices import g3_circuit
from repro.mpk.analysis import communication_volume, surface_to_volume
from repro.order import (
    block_row_partition,
    kway_partition,
    partition_quality,
    recursive_bisection,
)
from repro.sparse.graph import adjacency_structure

N_GPUS = 3
S = 5


def build_table():
    A = g3_circuit(nx=96, ny=96)
    graph = adjacency_structure(A)
    parts = {
        "natural": block_row_partition(A.n_rows, N_GPUS),
        "recursive bisection": recursive_bisection(A, N_GPUS),
        "k-way": kway_partition(A, N_GPUS),
    }
    rows = []
    metrics = {}
    for label, part in parts.items():
        q = partition_quality(graph, part)
        s2v = float(np.mean(surface_to_volume(A, part, S)))
        vol = communication_volume(A, part, S, 100)
        metrics[label] = (q["edge_cut"], s2v, vol)
        rows.append(
            [label, q["edge_cut"], f"{q['imbalance']:.3f}", s2v, vol]
        )
    return rows, metrics


def test_ablation_partitioner(benchmark, record_output):
    rows, metrics = benchmark.pedantic(build_table, rounds=1, iterations=1)
    table = format_table(
        ["partitioner", "edge cut", "imbalance", f"surface/vol (s={S})",
         "MPK comm vol (m=100)"],
        rows,
        title="Ablation — partitioning algorithm, G3_circuit analog "
              f"({N_GPUS} parts)",
    )
    record_output("ablation_partitioner", table)

    # The paper's claim: k-way beats recursive bisection beats natural.
    assert metrics["k-way"][0] <= metrics["recursive bisection"][0]
    assert metrics["recursive bisection"][0] < metrics["natural"][0]
    assert metrics["k-way"][1] < metrics["natural"][1]
    assert metrics["k-way"][2] < metrics["natural"][2]

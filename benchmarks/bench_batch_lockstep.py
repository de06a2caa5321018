"""Lockstep ``solve_many`` — simulated time and PCIe messages per RHS vs k.

A batch of ``k`` right-hand sides on one plan runs its CA-GMRES cycles in
lockstep and shares every message of a cycle: each MPK block is one fused
kernel call for the whole batch (one halo exchange whose messages carry
``k`` columns, one step launch per step), and the residual's SpMV exchange
and norm, the normalization and update broadcasts and every BOrth and TSQR
reduction and broadcast send one message per device for the whole batch
(see ``SolverSession.solve_many``).  This bench batches k = 1-4
RHS on the perfbench systems — the G3_circuit analog solved to 1e-4 with
CA-GMRES(15, 30), and the cant analog with CA-GMRES(15, 60) and 2x CholQR
capped at 4 restarts — on one node of 3 GPUs and on 2 nodes x 3 GPUs,
where messages cross the network as well.  k = 1 is a single solve.
"""

import numpy as np

from repro import matrices
from repro.gpu.context import MultiGpuContext
from repro.gpu.multinode import MultiNodeContext
from repro.harness import format_table
from repro.serve import SolverSession

SYSTEMS = {
    "G3_circuit": (
        ("g3_circuit", dict(nx=256)),
        dict(ordering="kway", m=30, s=15, tol=1e-4),
    ),
    "cant": (
        ("cant", dict(nx=64, ny=12, nz=12)),
        dict(ordering="natural", m=60, s=15, reorth=2, tol=1e-12, max_restarts=4),
    ),
}
CONTEXTS = {
    "1 node x 3 GPUs": lambda: MultiGpuContext(3),
    "2 nodes x 3 GPUs": lambda: MultiNodeContext(2, 3),
}
BATCH_SIZES = (1, 2, 3, 4)


def sweep():
    rows = []
    per_rhs = {}
    for system, (build, config) in SYSTEMS.items():
        name, kwargs = build
        A = getattr(matrices, name)(**kwargs)
        rng = np.random.default_rng(7)
        bs = [rng.random(A.n_rows) for _ in range(max(BATCH_SIZES))]
        for label, make_ctx in CONTEXTS.items():
            session = SolverSession(
                A, solver="ca", ctx=make_ctx(), basis="newton", **config
            )
            times = []
            for k in BATCH_SIZES:
                batch = session.solve_many(bs[:k])
                first = batch[0]
                messages = first.counters["d2h_messages"] + first.counters["h2d_messages"]
                times.append(1e3 * first.total_time / k)
                rows.append([
                    system, label, k, f"{times[-1]:.3f}",
                    f"{times[-1] / times[0]:.3f}", f"{messages / k:.1f}",
                    sum(r.n_restarts for r in batch),
                ])
            per_rhs[system, label] = times
    return rows, per_rhs


def test_batch_lockstep(benchmark, record_output):
    rows, per_rhs = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_table(
        ["system", "context", "k", "sim ms/RHS", "vs k=1", "msgs/RHS", "restarts"],
        rows,
        title="Lockstep solve_many — simulated time per RHS vs batch size",
    )
    record_output("batch_lockstep", table)
    # Every RHS added to the batch lowers the simulated time per RHS.
    for times in per_rhs.values():
        assert all(b < a for a, b in zip(times, times[1:]))

"""Outlook experiment — CA-GMRES across multiple compute nodes.

The paper closes with: "we would like to study ... the performance of
CA-GMRES on a larger number of GPUs, in particular, the GPUs distributed
over multiple compute nodes, where the communication is more expensive."

This bench runs that experiment on the simulator: GMRES vs CA-GMRES on
2 nodes x 3 GPUs while sweeping the inter-node network latency from
InfiniBand-QDR (2 us) to Ethernet-class (100 us).  Expected shape: the
CA-GMRES speedup grows monotonically with network latency — the more
expensive communication is, the more avoiding it pays.
"""

import numpy as np

from repro.core.ca_gmres import ca_gmres
from repro.core.gmres import gmres
from repro.gpu.multinode import MultiNodeContext, NetworkSpec
from repro.harness import format_table
from repro.matrices import cant

LATENCIES_US = [2, 10, 40, 100]


def sweep():
    A = cant(nx=96, ny=16, nz=16)
    b = np.ones(A.n_rows)
    rows = []
    speedups = []
    for lat_us in LATENCIES_US:
        net = NetworkSpec(latency=lat_us * 1e-6, bandwidth=3.2e9)
        r_g = gmres(
            A, b, ctx=MultiNodeContext(2, 3, network=net), m=30,
            tol=1e-14, max_restarts=1,
        )
        r_c = ca_gmres(
            A, b, ctx=MultiNodeContext(2, 3, network=net), s=10, m=30,
            tol=1e-14, max_restarts=2, basis="monomial",
        )
        speedup = r_g.time_per_restart() / r_c.time_per_restart()
        speedups.append(speedup)
        rows.append(
            [lat_us, 1e3 * r_g.time_per_restart(),
             1e3 * r_c.time_per_restart(), f"{speedup:.2f}"]
        )
    return rows, speedups


def test_multinode_outlook(benchmark, record_output):
    rows, speedups = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_table(
        ["net latency (us)", "GMRES ms/restart", "CA-GMRES ms/restart", "SpdUp"],
        rows,
        title="Outlook — 2 nodes x 3 GPUs, cant analog, network latency sweep",
    )
    record_output("multinode_outlook", table)

    # CA-GMRES always wins across nodes...
    assert all(s > 1.0 for s in speedups)
    # ...and its advantage grows as communication gets more expensive.
    assert all(a <= b + 0.02 for a, b in zip(speedups, speedups[1:]))
    assert speedups[-1] > 1.3 * speedups[0]

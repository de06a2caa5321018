"""Ablation — GPU SpMV storage format: ELLPACK vs JDS vs CSR.

The paper's GPU SpMV uses ELLPACK (Fig. 3 caption), which streams
perfectly but pads every row to the longest one.  This ablation measures
the padding overhead across the suite and on a pathological hub-row matrix,
and evaluates the modeled SpMV time of each format (ELLPACK pays for padded
slots; JDS streams exactly nnz; CSR streams nnz at a lower irregular-access
efficiency).

Expected shape: for the near-uniform stencil matrices ELLPACK's padding is
small and it wins; for skewed row lengths JDS wins decisively.
"""

import numpy as np

from repro.harness import format_table
from repro.matrices import cant, g3_circuit, nlpkkt
from repro.perf.model import PerformanceModel
from repro.sparse.csr import csr_from_dense
from repro.sparse.ellpack import EllpackMatrix
from repro.sparse.jds import JdsMatrix


def hub_matrix(n=4000, seed=0):
    """A few hub rows touching many columns: ELLPACK's worst case."""
    rng = np.random.default_rng(seed)
    dense = np.zeros((n, n))
    dense[np.arange(n), np.arange(n)] = 4.0
    cols = rng.integers(0, n, 3 * n)
    rows = rng.integers(0, n, 3 * n)
    dense[rows, cols] = 1.0
    for hub in rng.choice(n, size=4, replace=False):
        dense[hub, rng.integers(0, n, n // 4)] = 1.0
    return csr_from_dense(dense)


CASES = {
    "cant": lambda: cant(nx=24, ny=8, nz=8),
    "g3_circuit": lambda: g3_circuit(nx=64, ny=64),
    "nlpkkt": lambda: nlpkkt(nx=10),
    "hub (worst case)": hub_matrix,
}


def build_table():
    model = PerformanceModel()
    rows = []
    metrics = {}
    for name, build in CASES.items():
        A = build()
        ell = EllpackMatrix.from_csr(A)
        jds = JdsMatrix.from_csr(A)
        t_ell, _ = model.kernel_cost(
            "spmv", "ellpack", on="gpu", nnz=ell.padded_size, n_rows=A.n_rows
        )
        t_jds, _ = model.kernel_cost("spmv", "ellpack", on="gpu", nnz=jds.nnz, n_rows=A.n_rows)
        t_csr, _ = model.kernel_cost("spmv", "csr", on="gpu", nnz=A.nnz, n_rows=A.n_rows)
        metrics[name] = (ell.padding_ratio(), t_ell, t_jds, t_csr)
        rows.append(
            [name, A.n_rows, round(A.nnz / A.n_rows, 1),
             round(ell.padding_ratio(), 2),
             1e6 * t_ell, 1e6 * t_jds, 1e6 * t_csr]
        )
    return rows, metrics


def test_ablation_spmv_format(benchmark, record_output):
    rows, metrics = benchmark.pedantic(build_table, rounds=1, iterations=1)
    table = format_table(
        ["matrix", "n", "nnz/row", "ELL padding", "ELL us", "JDS us", "CSR us"],
        rows,
        title="Ablation — GPU SpMV format (modeled kernel time per SpMV)",
    )
    record_output("ablation_spmv_format", table)

    # Stencil matrices: modest padding, ELLPACK within ~2x of JDS.
    for name in ("cant", "g3_circuit"):
        pad, t_ell, t_jds, _ = metrics[name]
        assert pad < 2.0, name
        assert t_ell < 2.0 * t_jds, name
    # Hub matrix: padding explodes and JDS wins decisively.
    pad, t_ell, t_jds, t_csr = metrics["hub (worst case)"]
    assert pad > 10.0
    assert t_jds < t_ell / 5.0
    # JDS also beats the irregular CSR kernel (dense streaming).
    assert t_jds < t_csr

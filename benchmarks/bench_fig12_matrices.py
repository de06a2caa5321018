"""Fig. 12 — the test-matrix table.

For each suite analog: size, nnz/row, the dominant Ritz-value ratio
theta_1/theta_2 (the quantity controlling monomial-basis degeneration),
and kappa(B) — the condition number of the last Gram matrix of a restart
cycle generated with the paper's per-matrix (s, m) parameters.

The paper's values are printed alongside for comparison.  Expected shape:
theta_1/theta_2 very close to 1 for every matrix; kappa(B) enormous
(>> 1/eps for cant, large for the others).
"""

import numpy as np

from repro.dist.multivector import DistMultiVector
from repro.gpu.context import MultiGpuContext
from repro.harness import format_table
from repro.matrices.suite import dominant_ritz_ratio, load_suite_matrix
from repro.mpk import MatrixPowersKernel, monomial_shift_ops
from repro.order.partition import block_row_partition
from repro.core.balance import balance_matrix


def gram_condition(matrix, s, m, basis="monomial") -> float:
    """kappa of the Gram matrix of the last MPK block of one restart cycle.

    ``basis="monomial"`` is the shiftless basis (worst case);
    ``basis="newton"`` uses Leja-ordered Ritz shifts from a short Arnoldi
    run, as every Newton-basis CA-GMRES cycle does.
    """
    from repro.core.basis import newton_shift_ops
    from repro.matrices.suite import _arnoldi_ritz

    A = balance_matrix(matrix).matrix
    n = A.n_rows
    ctx = MultiGpuContext(1)
    part = block_row_partition(n, 1)
    V = DistMultiVector(ctx, part, m + 1)
    rng = np.random.default_rng(5)
    v0 = rng.standard_normal(n)
    V.set_column_from_host(0, v0 / np.linalg.norm(v0))
    shifts = _arnoldi_ritz(A, min(m, 40)) if basis == "newton" else None
    j = 0
    last_panel = None
    while j < m:
        s_cur = min(s, m - j)
        mpk = MatrixPowersKernel(ctx, A, part, s_cur)
        ops = (
            newton_shift_ops(shifts, s_cur)
            if shifts is not None
            else monomial_shift_ops(s_cur)
        )
        mpk.run(V, j, ops)
        last_panel = V.local[0].data[:, j : j + s_cur + 1]
        # Normalize the seed of the next block so scales stay bounded.
        col = V.local[0].data[:, j + s_cur]
        col /= np.linalg.norm(col)
        j += s_cur
    gram = last_panel.T @ last_panel
    return float(np.linalg.cond(gram))


def build_table():
    rows = []
    for name in ("cant", "g3_circuit", "dielfilter", "nlpkkt"):
        A, info = load_suite_matrix(name)
        t1, t2 = dominant_ritz_ratio(A, n_iter=40)
        m_eff = min(info.gmres_m, 60)
        kappa_mono = gram_condition(A, info.ca_s, m_eff, basis="monomial")
        kappa_newton = gram_condition(A, info.ca_s, m_eff, basis="newton")
        rows.append(
            [
                name,
                info.source,
                A.n_rows,
                A.nnz / A.n_rows,
                t1 / t2,
                info.paper_theta_ratio,
                kappa_mono,
                kappa_newton,
                info.paper_kappa_gram,
            ]
        )
    return rows


def test_fig12_matrix_table(benchmark, record_output):
    rows = benchmark.pedantic(build_table, rounds=1, iterations=1)
    table = format_table(
        ["name", "source", "n", "nnz/n", "th1/th2", "paper th1/th2",
         "kappa(B) mono", "kappa(B) newton", "paper kappa(B)"],
        rows,
        title="Fig. 12 — test matrices (analogs at reduced scale)",
    )
    record_output("fig12_matrices", table)

    by_name = {row[0]: row for row in rows}
    for name, row in by_name.items():
        theta_ratio = row[4]
        # Clustered dominant eigenvalues, as in the paper (all < 1.1).
        assert 1.0 <= theta_ratio < 1.3, name
        # The monomial Gram matrix is severely ill-conditioned everywhere.
        assert row[6] > 1e6, name
        # Newton-Leja shifts tame the Gram matrix substantially.
        assert row[7] < row[6], name
    # cant's Gram matrix is the worst of the suite in the paper (3.26e16).
    assert by_name["cant"][6] > 1e12

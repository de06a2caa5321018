#!/usr/bin/env python
"""Newton vs monomial basis: why CA-GMRES needs Leja-ordered shifts.

Section IV-A: the monomial basis v, Av, A^2 v, ... converges to the
dominant eigenvector, so the basis condition number grows exponentially
with s and CholQR eventually breaks down.  The Newton basis
(A - theta_k I) v with Leja-ordered Ritz shifts keeps the basis usable.

This example measures, for increasing s:
  * the condition number of the s+1-vector basis each scheme generates;
  * the condition number of its Gram matrix (what CholQR must factor —
    Fig. 12's kappa(B) column);
  * whether CA-GMRES(s, s) with CholQR survives without breakdowns.

Run:  python examples/newton_vs_monomial.py
"""

import numpy as np

from repro.core import ca_gmres
from repro.core.arnoldi import host_ritz_values
from repro.core.basis import newton_shift_ops
from repro.dist.multivector import DistMultiVector
from repro.gpu.context import MultiGpuContext
from repro.harness import format_table
from repro.matrices import poisson2d
from repro.mpk import MatrixPowersKernel, monomial_shift_ops
from repro.order.partition import block_row_partition


def basis_condition(matrix, s, shift_ops):
    """kappa of the MPK basis and of its Gram matrix."""
    n = matrix.n_rows
    ctx = MultiGpuContext(1)
    part = block_row_partition(n, 1)
    mpk = MatrixPowersKernel(ctx, matrix, part, s)
    V = DistMultiVector(ctx, part, s + 1)
    rng = np.random.default_rng(3)
    v0 = rng.standard_normal(n)
    V.set_column_from_host(0, v0 / np.linalg.norm(v0))
    mpk.run(V, 0, shift_ops)
    panel = V.local[0].data
    kappa_v = np.linalg.cond(panel)
    kappa_gram = np.linalg.cond(panel.T @ panel)
    return kappa_v, kappa_gram


def main() -> None:
    A = poisson2d(24)
    n = A.n_rows
    print(f"matrix: 2-D Poisson, n = {n}\n")

    rows = []
    for s in (5, 10, 15, 20, 25):
        mono_v, mono_g = basis_condition(A, s, monomial_shift_ops(s))
        # Ritz values of a short host Arnoldi run drive the Newton shifts
        # (CA-GMRES builds its own once per plan, from m steps).
        shifts = host_ritz_values(A, min(20, s + 5))
        newt_v, newt_g = basis_condition(A, s, newton_shift_ops(shifts, s))
        rows.append([s, mono_v, mono_g, newt_v, newt_g])
    print(
        format_table(
            ["s", "kappa(V) mono", "kappa(B) mono", "kappa(V) newton",
             "kappa(B) newton"],
            rows,
            title="Basis conditioning: monomial vs Newton-Leja "
                  "(B is the Gram matrix CholQR factors)",
        )
    )

    print("\nCA-GMRES(s=25, m=25) with CholQR, tol = 1e-8:")
    for basis in ("monomial", "newton"):
        r = ca_gmres(
            A, np.ones(n), s=25, m=25, basis=basis, tsqr_method="cholqr",
            tol=1e-8, max_restarts=40, on_breakdown="fallback",
        )
        print(
            f"  {basis:9s}: converged={r.converged}  restarts={r.n_restarts}  "
            f"CholQR breakdowns={r.breakdowns}"
        )


if __name__ == "__main__":
    main()

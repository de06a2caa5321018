#!/usr/bin/env python
"""CA-compatible preconditioning: folding M^-1 into the operator.

The paper's related work points at MPK with preconditioning (Hoemmen [4,
Ch. 2]); the catch is that applying M^-1 every iteration reintroduces the
communication MPK removes.  This example demonstrates the folding route:
``A M^-1`` is materialized once, so CA-GMRES (MPK + BOrth + TSQR) runs
unchanged on the preconditioned operator.

A block-structured test problem (strongly coupled 6x6 diagonal blocks plus
weak off-block noise) shows block-Jacobi cutting iterations severalfold for
both GMRES and CA-GMRES at identical per-iteration communication.

Run:  python examples/preconditioned_solve.py
"""

import numpy as np

from repro import ca_gmres, gmres
from repro.harness import format_table
from repro.precond import BlockJacobiPreconditioner, JacobiPreconditioner
from repro.sparse.csr import csr_from_dense


def block_structured_problem(n=600, bs=6, seed=0):
    """Strong dense diagonal blocks + weak sparse off-block coupling."""
    rng = np.random.default_rng(seed)
    dense = np.zeros((n, n))
    # weak random off-block couplings (~6 per row)
    rows = rng.integers(0, n, 6 * n)
    cols = rng.integers(0, n, 6 * n)
    dense[rows, cols] += 0.05 * rng.standard_normal(6 * n)
    for b0 in range(0, n, bs):
        block = rng.standard_normal((bs, bs))
        dense[b0 : b0 + bs, b0 : b0 + bs] = block @ block.T + bs * np.eye(bs)
    A = csr_from_dense(dense)
    x_true = rng.standard_normal(n)
    return A, A.matvec(x_true), x_true


def main() -> None:
    A, b, x_true = block_structured_problem()
    print(f"block-structured matrix: n = {A.n_rows}, nnz/row = {A.nnz / A.n_rows:.1f}\n")

    configs = {
        "GMRES, none": dict(solver="gmres", pre=None),
        "GMRES, Jacobi": dict(solver="gmres", pre=JacobiPreconditioner(A)),
        "GMRES, block-Jacobi(6)": dict(
            solver="gmres", pre=BlockJacobiPreconditioner(A, block_size=6)
        ),
        "CA-GMRES(8,24), none": dict(solver="ca", pre=None),
        "CA-GMRES(8,24), block-Jacobi(6)": dict(
            solver="ca", pre=BlockJacobiPreconditioner(A, block_size=6)
        ),
    }
    rows = []
    for label, cfg in configs.items():
        kwargs = dict(
            n_gpus=2, tol=1e-8, max_restarts=200, balance=False,
            preconditioner=cfg["pre"],
        )
        if cfg["solver"] == "gmres":
            r = gmres(A, b, m=24, **kwargs)
        else:
            # CA-GMRES with the monomial basis.
            r = ca_gmres(A, b, s=8, m=24, basis="monomial", **kwargs)
        err = np.linalg.norm(r.x - x_true) / np.linalg.norm(x_true)
        rows.append(
            [label, r.converged, r.n_iterations,
             f"{err:.1e}", 1e3 * r.total_time]
        )
    print(
        format_table(
            ["configuration", "converged", "iterations", "x error", "sim ms"],
            rows,
        )
    )
    print(
        "\nBlock-Jacobi folding preserves CA structure: the preconditioned\n"
        "CA-GMRES still communicates once per s-block, but needs far fewer\n"
        "blocks to converge."
    )


if __name__ == "__main__":
    main()

"""Ablations — orthogonalization design choices.

1. **Reorthogonalization** ("2x" in Fig. 14): one pass vs two, for CGS and
   CholQR, on a moderately ill-conditioned monomial basis — cost roughly
   doubles, orthogonality error drops by orders of magnitude.
2. **Mixed-precision Gram** (the authors' ref. [23]): CholQR with an fp32
   Gram product — faster Gram, orthogonality limited to fp32 levels.
3. **Newton vs monomial basis** (Section IV-A): same s, same solver;
   Newton avoids CholQR breakdowns and keeps restart counts stable.
"""

import numpy as np

from repro.core.ca_gmres import ca_gmres
from repro.gpu.context import MultiGpuContext
from repro.harness import format_table
from repro.matrices import poisson2d
from repro.matrices.random_sparse import well_conditioned_tall_skinny
from repro.order.partition import block_row_partition
from repro.dist.multivector import DistMultiVector
from repro.orth import orthogonality_error, tsqr


def factor(method, variant, reorth, V):
    ctx = MultiGpuContext(3)
    part = block_row_partition(V.shape[0], 3)
    mv = DistMultiVector(ctx, part, V.shape[1])
    for d in range(3):
        mv.local[d].data[...] = V[part.rows_of(d)]
    ctx.reset_clocks()
    tsqr(ctx, mv.panel(0, V.shape[1]), method=method, variant=variant,
         reorth=reorth)
    Q = np.empty_like(V)
    for d in range(3):
        Q[part.rows_of(d)] = mv.local[d].data
    return orthogonality_error(Q), ctx.current_time()


def test_ablation_reorthogonalization(benchmark, record_output):
    V = well_conditioned_tall_skinny(60_000, 16, condition=3e5, seed=4)

    def run():
        rows = []
        out = {}
        for method in ("cgs", "cholqr"):
            for reorth in (1, 2):
                err, t = factor(method, None, reorth, V)
                label = f"{'2x ' if reorth == 2 else ''}{method.upper()}"
                out[(method, reorth)] = (err, t)
                rows.append([label, err, 1e3 * t])
        return rows, out

    rows, out = benchmark.pedantic(run, rounds=1, iterations=1)
    record_output(
        "ablation_reorth",
        format_table(
            ["config", "||I-Q'Q||", "sim ms"],
            rows,
            title="Ablation — reorthogonalization on a kappa=3e5 panel "
                  "(60k x 16, 3 GPUs)",
        ),
    )
    for method in ("cgs", "cholqr"):
        err1, t1 = out[(method, 1)]
        err2, t2 = out[(method, 2)]
        assert err2 < err1 / 10, method  # much better orthogonality
        assert 1.5 * t1 < t2 < 3.0 * t1, method  # ~2x the cost


def test_ablation_mixed_precision(benchmark, record_output):
    V = well_conditioned_tall_skinny(200_000, 30, condition=10.0, seed=5)

    def run():
        out = {}
        for variant, label in (("batched", "fp64 Gram"), ("batched_sp", "fp32 Gram")):
            err, t = factor("cholqr", variant, 1, V)
            out[label] = (err, t)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[label, err, 1e3 * t] for label, (err, t) in out.items()]
    record_output(
        "ablation_mixed_precision",
        format_table(
            ["config", "||I-Q'Q||", "sim ms"],
            rows,
            title="Ablation — mixed-precision CholQR Gram (200k x 30, 3 GPUs)",
        ),
    )
    assert out["fp32 Gram"][1] < out["fp64 Gram"][1]  # faster
    assert out["fp32 Gram"][0] > 100 * out["fp64 Gram"][0]  # less accurate
    assert out["fp32 Gram"][0] < 1e-2  # still usable


def test_ablation_basis_choice(benchmark, record_output):
    A = poisson2d(18)
    b = np.ones(A.n_rows)

    def run():
        out = {}
        for basis in ("monomial", "newton"):
            r = ca_gmres(
                A, b, s=25, m=25, basis=basis, tsqr_method="cholqr",
                tol=1e-8, max_restarts=30, on_breakdown="fallback",
            )
            out[basis] = r
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [basis, r.converged, r.n_restarts, r.breakdowns]
        for basis, r in out.items()
    ]
    record_output(
        "ablation_basis",
        format_table(
            ["basis", "converged", "restarts", "CholQR breakdowns"],
            rows,
            title="Ablation — monomial vs Newton-Leja basis, "
                  "CA-GMRES(25, 25) on 2-D Poisson",
        ),
    )
    assert out["newton"].breakdowns < out["monomial"].breakdowns
    assert out["newton"].converged

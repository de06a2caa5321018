"""Layout pins: every basis panel is column-major, as cuBLAS/MAGMA store V.

The BLAS-3 updates write panels in place and the SpMV writes its output
column in place only because columns and sub-panels are contiguous; these
tests pin that layout on every path that allocates a ``DistMultiVector``.
"""

import numpy as np
import pytest

import repro.sparse.csr as csr_module
from repro.core import DegradePolicy
from repro.core.ca_gmres import CaGmresRun
from repro.core.gmres import GmresRun
from repro.dist.matrix import DistributedMatrix
from repro.dist.multivector import DistMultiVector, DistVector
from repro.faults import FaultEvent, FaultPlan
from repro.gpu.context import MultiGpuContext
from repro.matrices.stencil import poisson2d
from repro.order.partition import Partition, block_row_partition
from repro.serve.plan import PlanCache
from repro.serve.session import SolverSession


def assert_column_major(mv: DistMultiVector) -> None:
    """Panels, columns and sub-panels of ``mv`` are all F-contiguous."""
    for panel in mv.local:
        assert panel.data.flags.f_contiguous
    for j in range(mv.n_cols):
        for col in mv.column(j):
            assert col.data.flags.f_contiguous and col.data.flags.c_contiguous
    for j0, j1 in ((0, mv.n_cols), (0, 1), (mv.n_cols // 2, mv.n_cols)):
        for part in mv.panel(j0, j1):
            assert part.data.flags.f_contiguous


class TestMultivectorLayout:
    def test_fresh_multivector_is_column_major(self, ctx):
        part = block_row_partition(23, ctx.n_gpus)
        assert_column_major(DistMultiVector(ctx, part, 7))

    def test_dist_vector_is_contiguous(self, ctx, rng):
        part = block_row_partition(23, ctx.n_gpus)
        v = DistVector.from_host(ctx, part, rng.standard_normal(23))
        assert_column_major(v)
        for p in v.parts():
            assert p.data.flags.c_contiguous

    def test_structural_plan_basis_is_column_major(self):
        A = poisson2d(8)
        ctx = MultiGpuContext(3)
        cache = PlanCache()
        plan = cache.structural_plan(ctx, cache.host_plan(A), m=10)
        assert_column_major(plan.V)

    def test_rebuilt_basis_after_degraded_repartition(self, rng):
        A = poisson2d(20)
        b = rng.standard_normal(A.n_rows)
        ctx = MultiGpuContext(
            3, fault_plan=FaultPlan.scripted((FaultEvent("gpu1", "dropout", trigger=40),))
        )
        plan = SolverSession(A, ctx=ctx, s=4, m=12, basis="monomial").plan
        run = CaGmresRun(b, plan, s=4, basis="monomial", degrade=DegradePolicy())
        res = run.result()
        assert res.details["degradation"]["n_repartitions"] == 1
        assert run.st.plan.partition.n_parts == 2
        assert_column_major(run.st.plan.V)
        assert_column_major(run.st.x)


class TestSpmvWritesInPlace:
    def test_output_column_written_in_place(self, ctx, rng, monkeypatch):
        A = poisson2d(9)
        part = block_row_partition(A.n_rows, ctx.n_gpus)
        dmat = DistributedMatrix(ctx, A, part)
        V = DistMultiVector(ctx, part, 4)
        x = rng.standard_normal(A.n_rows)
        V.set_column_from_host(1, x)
        targets = [col.data for col in V.column(2)]
        addresses = [t.__array_interface__["data"][0] for t in targets]

        seen = []
        compiled = csr_module._compiled_csr_matvec

        def spy(n_rows, n_cols, indptr, indices, data, xv, out):
            seen.append(out)
            return compiled(n_rows, n_cols, indptr, indices, data, xv, out)

        monkeypatch.setattr(csr_module, "_compiled_csr_matvec", spy)
        dmat.spmv(V, 1, V, 2)

        # The compiled kernel received contiguous buffers.  A device that
        # keeps its row order is written in place, at the column's own
        # address, with no staging copy; one that stores its interior rows
        # first (so that they can run while the halo is on the bus) scatters
        # each launch's rows into the column.
        assert len(seen) >= ctx.n_gpus
        assert all(out.flags.c_contiguous for out in seen)
        kept = [d for d in range(ctx.n_gpus) if dmat._order[d] is None]
        assert kept  # the first part's boundary rows are its last rows
        for d in kept:
            outs = [out for out in seen if np.shares_memory(out, targets[d])]
            assert outs[0].__array_interface__["data"][0] == addresses[d]
            assert sum(out.size for out in outs) == targets[d].size
        for col, address in zip(V.column(2), addresses):
            assert col.data.__array_interface__["data"][0] == address
        np.testing.assert_allclose(
            V.gather_column_to_host(2), A.matvec(x), rtol=1e-13, atol=1e-13
        )


class TestEmptyPanels:
    @pytest.mark.parametrize("solver", ["ca_gmres", "gmres"])
    def test_devices_without_rows_still_solve(self, solver):
        """A plan's partition may leave devices without rows; their empty
        panels skip the in-place BLAS calls, which reject zero-size arrays."""
        A = poisson2d(3)
        b = np.ones(A.n_rows)
        part = Partition(np.zeros(A.n_rows, dtype=np.int64), 3)
        ca = solver == "ca_gmres"
        cache = PlanCache()
        plan = cache.structural_plan(
            MultiGpuContext(3), cache.host_plan(A), m=4, partition=part
        )
        run = CaGmresRun(b, plan, s=2, tol=1e-8) if ca else GmresRun(b, plan, tol=1e-8)
        res = run.result()
        assert res.converged
        assert np.linalg.norm(b - A.matvec(res.x)) / np.linalg.norm(b) <= 1e-8

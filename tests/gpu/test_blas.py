"""Tests for the device BLAS: numerical results and timing side effects."""

import numpy as np
import pytest
import scipy.linalg

from repro.dist.multivector import DistMultiVector
from repro.faults import FaultEvent, FaultPlan
from repro.gpu import blas
from repro.gpu.context import MultiGpuContext
from repro.order.partition import block_row_partition
from repro.sparse.csr import csr_from_dense
from repro.sparse.ellpack import EllpackMatrix


@pytest.fixture
def ctx():
    return MultiGpuContext(1)


@pytest.fixture
def dev(ctx):
    return ctx.devices[0]


class TestBlas1:
    def test_dot(self, dev):
        x = dev.adopt(np.array([1.0, 2.0, 3.0]))
        y = dev.adopt(np.array([4.0, 5.0, 6.0]))
        out = blas.dot(x, y)
        assert out.data[0] == pytest.approx(32.0)
        assert out.device is dev

    def test_dot_shape_mismatch(self, dev):
        with pytest.raises(ValueError):
            blas.dot(dev.zeros(3), dev.zeros(4))

    def test_dot_cross_device_rejected(self):
        ctx = MultiGpuContext(2)
        x = ctx.devices[0].zeros(3)
        y = ctx.devices[1].zeros(3)
        with pytest.raises(ValueError, match="move it with an explicit transfer"):
            blas.dot(x, y)

    def test_nrm2_is_squared_norm(self, dev):
        x = dev.adopt(np.array([3.0, 4.0]))
        assert blas.nrm2(x).data[0] == pytest.approx(25.0)

    def test_axpy(self, dev):
        x = dev.adopt(np.array([1.0, 2.0]))
        y = dev.adopt(np.array([10.0, 20.0]))
        blas.axpy(2.0, x, y)
        np.testing.assert_array_equal(y.data, [12.0, 24.0])

    def test_scal(self, dev):
        x = dev.adopt(np.array([2.0, 4.0]))
        blas.scal(0.5, x)
        np.testing.assert_array_equal(x.data, [1.0, 2.0])

    def test_copy_into(self, dev):
        src = dev.adopt(np.array([1.0, 2.0]))
        dst = dev.zeros(2)
        blas.copy_into(dst, src)
        np.testing.assert_array_equal(dst.data, [1.0, 2.0])

    def test_kernels_advance_clock(self, ctx, dev):
        x = dev.zeros(1000)
        y = dev.zeros(1000)
        t0 = dev.clock
        blas.axpy(1.0, x, y)
        assert dev.clock > t0


class TestBlas23:
    def test_gemv_t(self, dev, rng):
        V = dev.adopt(rng.standard_normal((20, 4)))
        x = dev.adopt(rng.standard_normal(20))
        out = blas.gemv_t(V, x)
        np.testing.assert_allclose(out.data, V.data.T @ x.data, atol=1e-14)

    def test_gemv_n_update(self, dev, rng):
        V = dev.adopt(rng.standard_normal((10, 3)))
        r = dev.adopt(rng.standard_normal(3))
        x = dev.adopt(rng.standard_normal(10))
        expected = x.data - V.data @ r.data
        blas.gemv_n_update(V, r, x)
        np.testing.assert_allclose(x.data, expected, atol=1e-14)

    def test_gemm_tn(self, dev, rng):
        V = dev.adopt(rng.standard_normal((15, 3)))
        W = dev.adopt(rng.standard_normal((15, 5)))
        out = blas.gemm_tn(V, W)
        np.testing.assert_allclose(out.data, V.data.T @ W.data, atol=1e-14)

    def test_gemm_nn(self, dev, rng):
        V = dev.adopt(rng.standard_normal((8, 3)))
        B = dev.adopt(rng.standard_normal((3, 4)))
        out = blas.gemm_nn(V, B)
        np.testing.assert_allclose(out.data, V.data @ B.data, atol=1e-14)

    def test_gemm_nn_update(self, dev, rng):
        V = dev.adopt(rng.standard_normal((8, 3)))
        B = dev.adopt(rng.standard_normal((3, 4)))
        W = dev.adopt(rng.standard_normal((8, 4)))
        expected = W.data - V.data @ B.data
        blas.gemm_nn_update(V, B, W)
        np.testing.assert_allclose(W.data, expected, atol=1e-14)

    def test_ger_update(self, dev, rng):
        x = dev.adopt(rng.standard_normal(6))
        y = dev.adopt(rng.standard_normal(4))
        W = dev.adopt(rng.standard_normal((6, 4)))
        expected = W.data - np.outer(x.data, y.data)
        blas.ger_update(x, y, W)
        np.testing.assert_allclose(W.data, expected, atol=1e-14)

    def test_trsm_right(self, dev, rng):
        V = rng.standard_normal((12, 4))
        R = np.triu(rng.standard_normal((4, 4))) + 4.0 * np.eye(4)
        Vd = dev.adopt(V.copy())
        blas.trsm_right(Vd, R)
        np.testing.assert_allclose(Vd.data @ R, V, atol=1e-12)

    def test_trsm_shape_check(self, dev):
        with pytest.raises(ValueError):
            blas.trsm_right(dev.zeros((5, 3)), np.eye(4))

    def test_qr_panel(self, dev, rng):
        V = rng.standard_normal((10, 4))
        Q, R = blas.qr_panel(dev.adopt(V.copy()))
        np.testing.assert_allclose(Q.data @ R, V, atol=1e-12)
        np.testing.assert_allclose(Q.data.T @ Q.data, np.eye(4), atol=1e-12)

    def test_inner_dim_mismatch(self, dev):
        with pytest.raises(ValueError):
            blas.gemm_nn(dev.zeros((4, 3)), dev.zeros((2, 2)))


class TestSpmv:
    def test_spmv_ell(self, dev, rng):
        dense = rng.standard_normal((6, 6))
        dense[rng.random((6, 6)) < 0.6] = 0.0
        ell = EllpackMatrix.from_csr(csr_from_dense(dense))
        vals = dev.adopt(ell.values)
        cols = dev.adopt(ell.col_idx)
        x = dev.adopt(rng.standard_normal(6))
        out = dev.zeros(6)
        blas.spmv_ell(vals, cols, x, out)
        np.testing.assert_allclose(out.data, dense @ x.data, atol=1e-13)

    def test_spmv_ell_nan_reaches_the_same_rows(self, dev):
        # Row 0 stores column 2; rows 1 and 3 are padded and their padded
        # slots read x[1] and x[3] (0.0 * x).  A NaN in x[2] reaches row 0
        # only; a NaN in x[3] also reaches padded row 3, exactly as the
        # padded-column loop (and a GPU streaming the slots) propagates it.
        ell = EllpackMatrix.from_csr(csr_from_dense(np.array([
            [1.0, 0.0, 2.0, 0.0],
            [0.0, 3.0, 0.0, 0.0],
            [4.0, 0.0, 0.0, 5.0],
            [0.0, 0.0, 0.0, 6.0],
        ])))
        assert ell.width == 2
        for nan_at, nan_rows in ((2, [0]), (3, [2, 3])):
            x = np.arange(1.0, 5.0)
            x[nan_at] = np.nan
            ref = np.zeros(4)
            for j in range(ell.width):
                ref += ell.values[:, j] * x[ell.col_idx[:, j]]
            out = dev.zeros(4)
            blas.spmv_ell(dev.adopt(ell.values), dev.adopt(ell.col_idx), dev.adopt(x), out)
            np.testing.assert_array_equal(np.flatnonzero(np.isnan(out.data)), nan_rows)
            np.testing.assert_array_equal(np.isnan(ref), np.isnan(out.data))
            assert out.data.tobytes() == ref.tobytes()

    def test_spmv_ell_width_zero(self, dev):
        out = dev.adopt(np.full(3, 9.0))
        blas.spmv_ell(
            dev.adopt(np.zeros((3, 0))), dev.adopt(np.zeros((3, 0), dtype=np.int64)),
            dev.adopt(np.ones(1)), out,
        )
        np.testing.assert_array_equal(out.data, 0.0)

    def test_spmv_csr_prefix(self, dev, rng):
        dense = rng.standard_normal((8, 8))
        dense[rng.random((8, 8)) < 0.5] = 0.0
        csr = csr_from_dense(dense)
        indptr = dev.adopt(csr.indptr)
        indices = dev.adopt(csr.indices)
        data = dev.adopt(csr.data)
        x = dev.adopt(rng.standard_normal(8))
        out = dev.zeros(8)
        blas.spmv_csr_prefix(indptr, indices, data, x, out, 5)
        np.testing.assert_allclose(out.data[:5], (dense @ x.data)[:5], atol=1e-13)

    def test_spmv_csr_prefix_bounds(self, dev):
        indptr = dev.adopt(np.array([0, 1], dtype=np.int64))
        indices = dev.adopt(np.array([0], dtype=np.int64))
        data = dev.adopt(np.array([1.0]))
        x = dev.adopt(np.ones(1))
        out = dev.zeros(1)
        with pytest.raises(ValueError):
            blas.spmv_csr_prefix(indptr, indices, data, x, out, 2)


class TestVariantTiming:
    def test_magma_gemv_faster_than_cublas(self):
        """The paper's optimized tall-skinny DGEMV is ~5x CUBLAS."""
        ctx = MultiGpuContext(1)
        t_cublas = ctx.perf.kernel_cost("gemv_t", "cublas", on="gpu", n=500_000, k=30)[0]
        t_magma = ctx.perf.kernel_cost("gemv_t", "magma", on="gpu", n=500_000, k=30)[0]
        assert t_cublas / t_magma > 3.0

    def test_batched_gemm_faster_than_cublas(self):
        ctx = MultiGpuContext(1)
        t_cublas = ctx.perf.kernel_cost("gemm_tn", "cublas", on="gpu", n=500_000, k=30, j=30)[0]
        t_batched = ctx.perf.kernel_cost("gemm_tn", "batched", on="gpu", n=500_000, k=30, j=30)[0]
        assert t_cublas / t_batched > 2.0

    def test_variants_numerically_identical(self, rng):
        ctx = MultiGpuContext(1)
        dev = ctx.devices[0]
        V = dev.adopt(rng.standard_normal((50, 5)))
        x = dev.adopt(rng.standard_normal(50))
        a = blas.gemv_t(V, x, variant="cublas")
        b = blas.gemv_t(V, x, variant="magma")
        np.testing.assert_array_equal(a.data, b.data)


EPS = np.finfo(np.float64).eps


def basis_panel(dev, rng, n=40, n_cols=9):
    """A column-major ``(n, n_cols)`` basis panel, as DistMultiVector stores V."""
    V = dev.zeros((n, n_cols))
    V.data[...] = rng.standard_normal((n, n_cols))
    return V


def gemm_update_bound(V, B, W):
    """Componentwise rounding bound of ``W - V @ B`` (k products + 1 sum)."""
    k = V.shape[1]
    return (k + 2) * EPS * (np.abs(W) + np.abs(V) @ np.abs(B))


def upper_r(rng, k):
    return np.triu(rng.standard_normal((k, k))) + 4.0 * np.eye(k)


class TestInPlaceUpdates:
    """gemm_nn_update, trsm_right and gemv_n_update overwrite F-contiguous
    panels through BLAS; other layouts go through the copy-back fallback."""

    def test_gemm_nn_update_in_place_on_basis_panel(self, dev, rng):
        V = basis_panel(dev, rng)
        base = V.data
        q, w = V.view((slice(None), slice(0, 5))), V.view((slice(None), slice(5, 9)))
        B = dev.adopt(rng.standard_normal((5, 4)))
        expected = w.data - q.data @ B.data
        bound = gemm_update_bound(q.data, B.data, w.data)
        before = base[:, :5].copy()
        blas.gemm_nn_update(q, B, w)
        assert w.data.flags.f_contiguous
        assert np.shares_memory(w.data, base)
        assert np.all(np.abs(base[:, 5:] - expected) <= bound)
        np.testing.assert_array_equal(base[:, :5], before)

    def test_trsm_right_in_place_on_basis_panel(self, dev, rng):
        V = basis_panel(dev, rng)
        base = V.data
        p = V.view((slice(None), slice(2, 7)))
        R = upper_r(rng, 5)
        expected = scipy.linalg.solve_triangular(R.T, p.data.T, lower=True).T
        blas.trsm_right(p, R)
        assert np.shares_memory(p.data, base)
        scale = np.abs(expected).max()
        np.testing.assert_allclose(base[:, 2:7], expected, rtol=0, atol=8 * EPS * scale)

    def test_gemv_n_update_in_place_on_basis_column(self, dev, rng):
        V = basis_panel(dev, rng)
        q, x = V.view((slice(None), slice(0, 6))), V.view((slice(None), 6))
        r = dev.adopt(rng.standard_normal(6))
        expected = x.data - q.data @ r.data
        bound = gemm_update_bound(q.data, r.data[:, None], x.data[:, None])[:, 0]
        blas.gemv_n_update(q, r, x)
        assert np.shares_memory(x.data, V.data)
        assert np.all(np.abs(V.data[:, 6] - expected) <= bound)

    @pytest.mark.parametrize("layout", ["c_order", "strided"])
    def test_gemm_nn_update_fallback_layouts(self, dev, rng, layout):
        V = dev.adopt(rng.standard_normal((30, 5)))
        B = dev.adopt(rng.standard_normal((5, 3)))
        if layout == "c_order":
            base = rng.standard_normal((30, 3))
            W = dev.adopt(base)
        else:
            base = rng.standard_normal((30, 6))
            W = dev.adopt(base).view((slice(None), slice(0, 6, 2)))
        expected = W.data - V.data @ B.data
        bound = gemm_update_bound(V.data, B.data, W.data)
        blas.gemm_nn_update(V, B, W)
        assert np.shares_memory(W.data, base)
        assert np.all(np.abs(W.data - expected) <= bound)

    @pytest.mark.parametrize("layout", ["c_order", "strided"])
    def test_trsm_right_fallback_layouts(self, dev, rng, layout):
        R = upper_r(rng, 4)
        if layout == "c_order":
            base = rng.standard_normal((25, 4))
            V = dev.adopt(base)
        else:
            base = rng.standard_normal((25, 8))
            V = dev.adopt(base).view((slice(None), slice(1, 8, 2)))
        original = V.data.copy()
        blas.trsm_right(V, R)
        assert np.shares_memory(V.data, base)
        np.testing.assert_allclose(V.data @ R, original, rtol=0, atol=1e-13)

    def test_gemv_n_update_strided_fallback(self, dev, rng):
        V = dev.adopt(rng.standard_normal((20, 3)))
        r = dev.adopt(rng.standard_normal(3))
        base = rng.standard_normal((20, 2))
        x = dev.adopt(base).view((slice(None), 1))
        expected = x.data - V.data @ r.data
        blas.gemv_n_update(V, r, x)
        assert not x.data.flags.c_contiguous
        np.testing.assert_allclose(base[:, 1], expected, rtol=0, atol=1e-13)

    def test_empty_operands_are_no_ops(self, dev):
        W = dev.adopt(np.ones((0, 3)))
        blas.gemm_nn_update(dev.zeros((0, 2)), dev.zeros((2, 3)), W)
        x = dev.adopt(np.ones(4))
        blas.gemv_n_update(dev.zeros((4, 0)), dev.zeros(0), x)
        np.testing.assert_array_equal(x.data, np.ones(4))
        V = dev.adopt(np.ones((0, 2)))
        blas.trsm_right(V, np.eye(2))
        assert V.data.shape == (0, 2)

    def test_bad_shapes_raise(self, dev):
        V = dev.zeros((6, 3))
        with pytest.raises(ValueError, match="gemm_nn_update"):
            blas.gemm_nn_update(V, dev.zeros((2, 2)), dev.zeros((6, 2)))
        with pytest.raises(ValueError, match="gemm_nn_update"):
            blas.gemm_nn_update(V, dev.zeros((3, 2)), dev.zeros((5, 2)))
        with pytest.raises(ValueError, match="gemv_n_update"):
            blas.gemv_n_update(V, dev.zeros(2), dev.zeros(6))
        with pytest.raises(ValueError, match="R must be"):
            blas.trsm_right(V, np.eye(2))

    @pytest.mark.parametrize("kernel", ["gemm_nn_update", "trsm_right"])
    def test_scripted_poison_lands_in_updated_panel(self, rng, kernel):
        event = FaultEvent("gpu0", "poison", trigger=0, position=7)
        ctx = MultiGpuContext(1, fault_plan=FaultPlan.scripted((event,)))
        dev = ctx.devices[0]
        V = basis_panel(dev, rng)
        target = V.view((slice(None), slice(5, 9)))
        if kernel == "gemm_nn_update":
            q = V.view((slice(None), slice(0, 5)))
            blas.gemm_nn_update(q, dev.adopt(rng.standard_normal((5, 4))), target)
        else:
            blas.trsm_right(target, upper_r(rng, 4))
        row, col = np.unravel_index(event.position % target.data.size, target.data.shape)
        assert np.isinf(V.data[row, 5 + col])  # odd position: +Inf
        assert np.isfinite(np.delete(V.data.ravel(order="F"), (5 + col) * 40 + row)).all()
        assert ctx.faults.schedule() == [("gpu0", "poison", 0)]


class TestGramSymmetry:
    def test_gram_of_basis_panel_is_exactly_symmetric(self, ctx1, rng):
        """CholQR's Gram ``p.T @ p`` is exactly symmetric on an F panel.

        ``gemm_tn`` keeps numpy's matmul, which takes BLAS's symmetric path
        for ``p.T @ p`` on a contiguous panel; CholQR's breakdown on the
        ill-conditioned panels it must reject depends on that path
        (tests/orth/test_tsqr_properties.py::TestSvqrSurvivesWhereCholqrBreaks).
        """
        mv = DistMultiVector(ctx1, block_row_partition(501, 1), 16)
        mv.local[0].data[...] = rng.standard_normal((501, 16))
        p = mv.panel(1, 13)[0]
        assert p.data.flags.f_contiguous
        G = blas.gemm_tn(p, p).data
        assert np.array_equal(G, G.T)

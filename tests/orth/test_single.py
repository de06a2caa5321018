"""Tests for single-vector Arnoldi orthogonalization."""

import numpy as np
import pytest

from repro.orth.errors import OrthogonalizationError
from repro.orth.single import orthogonalize_vector

from ..conftest import gather_multivector, make_dist_multivector


def setup(ctx, rng, n=40, j=4):
    Q, _ = np.linalg.qr(rng.standard_normal((n, j)))
    v = rng.standard_normal(n)
    mv, _ = make_dist_multivector(ctx, np.hstack([Q, v[:, None]]))
    return mv, Q, v, j


class TestOrthogonalizeVector:
    @pytest.mark.parametrize("method", ["cgs", "mgs"])
    def test_hessenberg_column(self, method, rng, ctx):
        mv, Q, v, j = setup(ctx, rng)
        h = orthogonalize_vector(ctx, mv.panel(0, j), mv.column(j), method=method)
        np.testing.assert_allclose(h[:j], Q.T @ v, atol=1e-12)
        w = v - Q @ (Q.T @ v)
        assert h[j] == pytest.approx(np.linalg.norm(w), rel=1e-12)

    @pytest.mark.parametrize("method", ["cgs", "mgs"])
    def test_result_unit_norm_and_orthogonal(self, method, rng, ctx):
        mv, Q, v, j = setup(ctx, rng)
        orthogonalize_vector(ctx, mv.panel(0, j), mv.column(j), method=method)
        q_new = gather_multivector(mv)[:, j]
        assert np.linalg.norm(q_new) == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(Q.T @ q_new, np.zeros(j), atol=1e-12)

    def test_first_vector_just_normalized(self, rng, ctx1):
        v = rng.standard_normal(20)
        mv, _ = make_dist_multivector(ctx1, v[:, None])
        h = orthogonalize_vector(ctx1, None, mv.column(0))
        assert h.shape == (1,)
        assert h[0] == pytest.approx(np.linalg.norm(v))

    def test_zero_vector_breakdown(self, ctx1):
        mv, _ = make_dist_multivector(ctx1, np.zeros((10, 1)))
        with pytest.raises(OrthogonalizationError, match="breakdown"):
            orthogonalize_vector(ctx1, None, mv.column(0))

    def test_unknown_method(self, rng, ctx1):
        mv, Q, v, j = setup(ctx1, rng)
        with pytest.raises(ValueError, match="unknown"):
            orthogonalize_vector(ctx1, mv.panel(0, j), mv.column(j), method="xxx")

    def test_methods_agree(self, rng):
        from repro.gpu.context import MultiGpuContext

        results = {}
        for method in ("cgs", "mgs"):
            ctx = MultiGpuContext(2)
            mv, Q, v, j = setup(ctx, np.random.default_rng(11))
            results[method] = orthogonalize_vector(
                ctx, mv.panel(0, j), mv.column(j), method=method
            )
        np.testing.assert_allclose(results["cgs"], results["mgs"], atol=1e-12)

    def test_cgs_fewer_messages_than_mgs(self, rng):
        from repro.gpu.context import MultiGpuContext

        counts = {}
        for method in ("cgs", "mgs"):
            ctx = MultiGpuContext(2)
            mv, Q, v, j = setup(ctx, np.random.default_rng(3), j=6)
            ctx.reset_clocks()
            orthogonalize_vector(ctx, mv.panel(0, j), mv.column(j), method=method)
            counts[method] = ctx.counters.total_messages
        assert counts["cgs"] < counts["mgs"]

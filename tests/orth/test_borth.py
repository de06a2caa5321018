"""Tests for block orthogonalization (BOrth) and the combined Orth step
(:func:`repro.core.ca_gmres._orthogonalize`)."""

import numpy as np
import pytest

from repro.core.ca_gmres import _orthogonalize, ca_gmres
from repro.gpu.context import MultiGpuContext
from repro.matrices.stencil import poisson2d
from repro.orth.borth import borth

from ..conftest import gather_multivector, make_dist_multivector


def setup_panels(ctx, rng, n=60, j=5, k=4):
    """An orthonormal Q (j cols) and a random panel V (k cols)."""
    Q_dense, _ = np.linalg.qr(rng.standard_normal((n, j)))
    V_dense = rng.standard_normal((n, k))
    full = np.hstack([Q_dense, V_dense])
    mv, part = make_dist_multivector(ctx, full)
    return mv, part, Q_dense, V_dense, j, k


class TestBorthMethods:
    @pytest.mark.parametrize("method", ["cgs", "mgs"])
    def test_projection_coefficients(self, method, rng, ctx):
        mv, _, Q, V, j, k = setup_panels(ctx, rng)
        C = borth(ctx, mv.panel(0, j), mv.panel(j, j + k), method=method)
        np.testing.assert_allclose(C, Q.T @ V, atol=1e-12)

    @pytest.mark.parametrize("method", ["cgs", "mgs"])
    def test_panel_orthogonal_to_basis_after(self, method, rng, ctx):
        mv, _, Q, V, j, k = setup_panels(ctx, rng)
        borth(ctx, mv.panel(0, j), mv.panel(j, j + k), method=method)
        result = gather_multivector(mv)[:, j : j + k]
        np.testing.assert_allclose(Q.T @ result, np.zeros((j, k)), atol=1e-12)

    @pytest.mark.parametrize("method", ["cgs", "mgs"])
    def test_reconstruction(self, method, rng, ctx1):
        mv, _, Q, V, j, k = setup_panels(ctx1, rng)
        C = borth(ctx1, mv.panel(0, j), mv.panel(j, j + k), method=method)
        W = gather_multivector(mv)[:, j : j + k]
        np.testing.assert_allclose(Q @ C + W, V, atol=1e-12)

    def test_methods_agree(self, rng):
        ctx_a, ctx_b = MultiGpuContext(2), MultiGpuContext(2)
        rng_a = np.random.default_rng(0)
        rng_b = np.random.default_rng(0)
        mv_a, _, _, _, j, k = setup_panels(ctx_a, rng_a)
        mv_b, _, _, _, _, _ = setup_panels(ctx_b, rng_b)
        C_a = borth(ctx_a, mv_a.panel(0, j), mv_a.panel(j, j + k), method="cgs")
        C_b = borth(ctx_b, mv_b.panel(0, j), mv_b.panel(j, j + k), method="mgs")
        np.testing.assert_allclose(C_a, C_b, atol=1e-12)

    def test_unknown_method(self, rng, ctx1):
        mv, _, _, _, j, k = setup_panels(ctx1, rng)
        with pytest.raises(ValueError, match="unknown BOrth"):
            borth(ctx1, mv.panel(0, j), mv.panel(j, j + k), method="nope")

    def test_cgs_communication_constant_in_j(self, rng):
        """Block CGS: 2 phases regardless of how many previous vectors."""
        for j in (2, 8):
            ctx = MultiGpuContext(2)
            mv, _, _, _, _, k = setup_panels(ctx, rng, j=j)
            ctx.reset_clocks()
            borth(ctx, mv.panel(0, j), mv.panel(j, j + k), method="cgs")
            assert ctx.counters.total_messages == 2 * 2  # 2 phases x 2 devices

    def test_mgs_communication_linear_in_j(self, rng):
        """Column-wise MGS: j phases (Section V-A: BOrth communicates j times)."""
        counts = {}
        for j in (2, 6):
            ctx = MultiGpuContext(2)
            mv, _, _, _, _, k = setup_panels(ctx, rng, j=j)
            ctx.reset_clocks()
            borth(ctx, mv.panel(0, j), mv.panel(j, j + k), method="mgs")
            counts[j] = ctx.counters.total_messages
        assert counts[6] == 3 * counts[2]


class TestOrthogonalizeBlock:
    """``_orthogonalize(ctx, V, j, k)`` orthogonalizes ``V[:, j+1 : j+k+1]``
    against ``Q = V[:, :j+1]``, so a ``j``-column Q is passed as ``j - 1``."""

    @pytest.mark.parametrize("tsqr_method", ["cholqr", "cgs", "caqr"])
    def test_full_decomposition(self, tsqr_method, rng, ctx):
        mv, _, Q, V, j, k = setup_panels(ctx, rng)
        C, R, _ = _orthogonalize(ctx, mv, j - 1, k, tsqr_method=tsqr_method)
        Q_new = gather_multivector(mv)[:, j : j + k]
        np.testing.assert_allclose(Q @ C + Q_new @ R, V, atol=1e-11)
        np.testing.assert_allclose(Q_new.T @ Q_new, np.eye(k), atol=1e-11)
        np.testing.assert_allclose(Q.T @ Q_new, np.zeros((j, k)), atol=1e-11)

    def test_reorth_improves_orthogonality(self, rng, ctx1):
        from repro.matrices.random_sparse import well_conditioned_tall_skinny

        n, j, k = 300, 4, 6
        Q_dense, _ = np.linalg.qr(rng.standard_normal((n, j)))
        V_dense = well_conditioned_tall_skinny(n, k, condition=3e4, seed=3)
        # Mix in components along Q so BOrth has real work to do.
        V_dense = V_dense + Q_dense @ rng.standard_normal((j, k))
        errs = {}
        for reorth in (1, 2):
            mv, _ = make_dist_multivector(ctx1, np.hstack([Q_dense, V_dense]))
            C, R, _ = _orthogonalize(
                ctx1, mv, j - 1, k, tsqr_method="cgs", reorth=reorth
            )
            full = gather_multivector(mv)
            errs[reorth] = np.linalg.norm(
                np.eye(j + k) - full.T @ full
            )
            # decomposition holds for both
            np.testing.assert_allclose(
                Q_dense @ C + full[:, j:] @ R, V_dense, atol=1e-9
            )
        assert errs[2] <= errs[1]

    def test_invalid_reorth(self):
        """The pass count is validated at the CA-GMRES boundary."""
        A = poisson2d(16)
        for reorth in (0, -5):
            with pytest.raises(ValueError, match="reorth"):
                ca_gmres(A, np.ones(A.n_rows), s=4, m=8, reorth=reorth)

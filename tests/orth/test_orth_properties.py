"""Property-based tests (hypothesis) for the orthogonalization kernels."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.gpu.context import MultiGpuContext
from repro.orth.tsqr import tsqr

from ..conftest import gather_multivector, make_dist_multivector


@st.composite
def panels(draw):
    n = draw(st.integers(12, 80))
    k = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, k))


@settings(max_examples=25, deadline=None)
@given(panels(), st.sampled_from(["mgs", "cgs", "cholqr", "svqr"]))
def test_tsqr_invariants_random_panels(V, method):
    """For any random (well-conditioned w.h.p.) panel: V = QR, Q^T Q = I,
    R upper triangular with positive diagonal."""
    ctx = MultiGpuContext(2)
    mv, _ = make_dist_multivector(ctx, V.copy())
    R = tsqr(ctx, mv.panel(0, V.shape[1]), method=method)
    Q = gather_multivector(mv)
    k = V.shape[1]
    assert np.linalg.norm(Q @ R - V) <= 1e-8 * max(np.linalg.norm(V), 1.0)
    assert np.linalg.norm(Q.T @ Q - np.eye(k)) < 1e-8
    assert np.allclose(R, np.triu(R))
    assert np.all(np.diag(R) > 0)


@settings(max_examples=20, deadline=None)
@given(panels())
def test_tsqr_methods_produce_same_r(V):
    """All variants factor the same panel: R agrees across methods."""
    assume(V.shape[0] >= V.shape[1])
    rs = []
    for method in ("mgs", "cholqr", "caqr"):
        ctx = MultiGpuContext(1)
        mv, _ = make_dist_multivector(ctx, V.copy())
        rs.append(tsqr(ctx, mv.panel(0, V.shape[1]), method=method))
    np.testing.assert_allclose(rs[0], rs[1], atol=1e-7)
    np.testing.assert_allclose(rs[0], rs[2], atol=1e-7)


@settings(max_examples=20, deadline=None)
@given(panels(), st.integers(1, 3))
def test_tsqr_device_count_invariance(V, n_gpus):
    """R must not depend on how rows are distributed."""
    # Blocks too short for a CAQR-style distribution are not drawn.
    assume(V.shape[0] >= n_gpus * V.shape[1])
    results = []
    for g in (1, n_gpus):
        ctx = MultiGpuContext(g)
        mv, _ = make_dist_multivector(ctx, V.copy())
        results.append(tsqr(ctx, mv.panel(0, V.shape[1]), method="cholqr"))
    np.testing.assert_allclose(results[0], results[1], atol=1e-8)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 5))
def test_scaling_equivariance(seed, k):
    """TSQR(alpha V) gives (Q, alpha R)."""
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((30, k))
    alpha = 3.5
    r_factors = []
    for scale in (1.0, alpha):
        ctx = MultiGpuContext(1)
        mv, _ = make_dist_multivector(ctx, scale * V)
        r_factors.append(tsqr(ctx, mv.panel(0, k), method="cholqr"))
    np.testing.assert_allclose(alpha * r_factors[0], r_factors[1], rtol=1e-9)

"""Property-based tests (hypothesis) for the combined Orth step
(:func:`repro.core.ca_gmres._orthogonalize`)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.ca_gmres import _orthogonalize
from repro.gpu.context import MultiGpuContext

from ..conftest import gather_multivector, make_dist_multivector


@st.composite
def orth_problems(draw):
    n = draw(st.integers(20, 80))
    # Every CA block projects against at least the cycle's first vector.
    j = draw(st.integers(1, 6))
    k = draw(st.integers(1, 5))
    n_gpus = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**31 - 1))
    # CAQR needs local blocks at least k rows tall.
    if n < n_gpus * (j + k) + n_gpus:
        n = n_gpus * (j + k) + n_gpus
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, j)))
    V = rng.standard_normal((n, k))
    return Q, V, n_gpus


@settings(max_examples=30, deadline=None)
@given(
    orth_problems(),
    st.sampled_from(["cholqr", "cgs", "mgs", "svqr", "caqr"]),
    st.sampled_from(["cgs", "mgs"]),
    st.integers(1, 2),
)
def test_blockorth_decomposition_invariants(problem, tsqr_method, borth_method, reorth):
    """For any previous basis, panel, device count, methods, and reorth:

    V = Q C + Q_new R,  Q_new orthonormal,  Q^T Q_new = 0,  R upper tri.
    """
    Q, V, n_gpus = problem
    j, k = Q.shape[1], V.shape[1]
    ctx = MultiGpuContext(n_gpus)
    mv, _ = make_dist_multivector(ctx, np.hstack([Q, V]))
    C, R, _ = _orthogonalize(
        ctx, mv, j - 1, k,
        tsqr_method=tsqr_method, borth_method=borth_method, reorth=reorth,
    )
    full = gather_multivector(mv)
    Q_new = full[:, j : j + k]
    # Reconstruction.
    np.testing.assert_allclose(Q @ C + Q_new @ R, V, atol=1e-8)
    # Orthonormality of the new block.
    np.testing.assert_allclose(Q_new.T @ Q_new, np.eye(k), atol=1e-8)
    # Orthogonality to the previous basis.
    np.testing.assert_allclose(Q.T @ Q_new, np.zeros((j, k)), atol=1e-8)
    # R upper triangular with positive diagonal.
    np.testing.assert_allclose(R, np.triu(R), atol=0)
    assert np.all(np.diag(R) > 0)

"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dist.multivector import DistMultiVector
from repro.gpu.context import MultiGpuContext
from repro.order.partition import Partition, block_row_partition
from repro.sparse.csr import CsrMatrix


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(params=[1, 2, 3], ids=["1gpu", "2gpu", "3gpu"])
def ctx(request):
    """A context for each GPU count the paper evaluates."""
    return MultiGpuContext(request.param)


@pytest.fixture
def ctx1():
    return MultiGpuContext(1)


@pytest.fixture
def ctx2():
    return MultiGpuContext(2)


@pytest.fixture
def ctx3():
    return MultiGpuContext(3)


def row_scaled(A: CsrMatrix, seed: int = 0) -> CsrMatrix:
    """``A`` with its rows scaled by ``10**U(-2, 2)``: same pattern, new values."""
    scale = 10.0 ** np.random.default_rng(seed).uniform(-2, 2, A.n_rows)
    return CsrMatrix(A.shape, A.indptr, A.indices,
                     A.data * np.repeat(scale, np.diff(A.indptr)))


def make_dist_multivector(
    ctx: MultiGpuContext, dense: np.ndarray, partition: Partition | None = None
) -> tuple[DistMultiVector, Partition]:
    """Distribute a dense n x k array as a multivector."""
    n, k = dense.shape
    if partition is None:
        partition = block_row_partition(n, ctx.n_gpus)
    mv = DistMultiVector(ctx, partition, k)
    for d in range(ctx.n_gpus):
        mv.local[d].data[...] = dense[partition.rows_of(d)]
    return mv, partition


def gather_multivector(mv: DistMultiVector) -> np.ndarray:
    """Host copy of a distributed multivector (test-side, uncosted)."""
    out = np.empty((mv.n_rows, mv.n_cols))
    for d in range(mv.ctx.n_gpus):
        out[mv.partition.rows_of(d)] = mv.local[d].data
    return out

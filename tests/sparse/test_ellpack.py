"""Tests for the ELLPACK format."""

import numpy as np
import pytest

from repro.sparse.coo import CooMatrix
from repro.sparse.csr import csr_from_dense, eye_csr
from repro.sparse.ellpack import EllpackMatrix


def random_csr(n_rows, n_cols, nnz, seed=0):
    rng = np.random.default_rng(seed)
    return CooMatrix(
        (n_rows, n_cols),
        rng.integers(0, n_rows, nnz),
        rng.integers(0, n_cols, nnz),
        rng.standard_normal(nnz),
    ).to_csr()


class TestConversion:
    def test_roundtrip_dense(self):
        A = random_csr(7, 5, 20, seed=1)
        ell = EllpackMatrix.from_csr(A)
        np.testing.assert_array_equal(ell.to_dense(), A.to_dense())

    def test_roundtrip_csr(self):
        A = random_csr(6, 6, 18, seed=2)
        back = EllpackMatrix.from_csr(A).to_csr()
        np.testing.assert_array_equal(back.to_dense(), A.to_dense())

    def test_width_is_max_row_length(self):
        A = csr_from_dense(np.array([[1.0, 2.0, 3.0], [4.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        assert EllpackMatrix.from_csr(A).width == 3

    def test_identity(self):
        ell = EllpackMatrix.from_csr(eye_csr(4))
        assert ell.width == 1
        np.testing.assert_array_equal(ell.to_dense(), np.eye(4))

    def test_padding_indices_in_range(self):
        A = csr_from_dense(np.array([[1.0, 1.0], [0.0, 0.0]]))
        ell = EllpackMatrix.from_csr(A)
        assert ell.col_idx.max() < 2
        assert ell.col_idx.min() >= 0

    def test_nnz_excludes_padding(self):
        A = csr_from_dense(np.array([[1.0, 2.0], [3.0, 0.0]]))
        ell = EllpackMatrix.from_csr(A)
        assert ell.nnz == 3
        assert ell.padded_size == 4

    def test_padding_ratio(self):
        A = csr_from_dense(np.array([[1.0, 2.0], [3.0, 0.0]]))
        assert EllpackMatrix.from_csr(A).padding_ratio() == pytest.approx(4 / 3)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same shape"):
            EllpackMatrix((2, 2), np.zeros((2, 1)), np.zeros((2, 2), dtype=np.int64))

    def test_col_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="column index"):
            EllpackMatrix((2, 2), np.ones((2, 1)), np.full((2, 1), 5, dtype=np.int64))


class TestMatvec:
    def test_against_csr(self):
        A = random_csr(9, 9, 30, seed=3)
        ell = EllpackMatrix.from_csr(A)
        x = np.random.default_rng(4).standard_normal(9)
        np.testing.assert_allclose(ell.matvec(x), A.matvec(x), atol=1e-14)

    def test_rectangular(self):
        A = random_csr(5, 8, 16, seed=5)
        ell = EllpackMatrix.from_csr(A)
        x = np.random.default_rng(6).standard_normal(8)
        np.testing.assert_allclose(ell.matvec(x), A.to_dense() @ x, atol=1e-14)

    def test_out_parameter(self):
        ell = EllpackMatrix.from_csr(eye_csr(3, 3.0))
        out = np.full(3, -1.0)
        y = ell.matvec(np.ones(3), out=out)
        assert y is out
        np.testing.assert_array_equal(out, [3.0, 3.0, 3.0])

    def test_dimension_mismatch(self):
        ell = EllpackMatrix.from_csr(eye_csr(3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            ell.matvec(np.ones(4))

    def test_empty_matrix(self):
        A = CooMatrix((3, 3)).to_csr()
        ell = EllpackMatrix.from_csr(A)
        np.testing.assert_array_equal(ell.matvec(np.ones(3)), np.zeros(3))

    @pytest.mark.parametrize("size", [2, 4])
    def test_out_must_match_rows(self, size):
        ell = EllpackMatrix.from_csr(eye_csr(3))
        with pytest.raises(ValueError, match="out must have shape"):
            ell.matvec(np.ones(3), out=np.zeros(size))

    def test_width_zero(self):
        ell = EllpackMatrix((3, 2), np.zeros((3, 0)), np.zeros((3, 0), dtype=np.int64))
        out = np.full(3, 5.0)
        np.testing.assert_array_equal(ell.matvec(np.ones(2), out=out), np.zeros(3))

    def test_equals_padded_column_loop(self):
        # The padded-column loop is the ELLPACK reference: each row is summed
        # over its padded slots in order, which the compiled kernel keeps.
        A = random_csr(40, 40, 150, seed=11)
        ell = EllpackMatrix.from_csr(A)
        x = np.random.default_rng(12).standard_normal(40)
        ref = np.zeros(40)
        for j in range(ell.width):
            ref += ell.values[:, j] * x[ell.col_idx[:, j]]
        assert ell.matvec(x).tobytes() == ref.tobytes()
        assert A.matvec(x).tobytes() == ref.tobytes()

"""Tests for the CSR matrix."""

import numpy as np
import pytest

from repro.sparse.coo import CooMatrix
from repro.sparse import csr as csr_module
from repro.sparse.csr import CsrMatrix, csr_from_dense, csr_matvec, eye_csr


def random_csr(n_rows, n_cols, nnz, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n_rows, nnz)
    cols = rng.integers(0, n_cols, nnz)
    vals = rng.standard_normal(nnz)
    return CooMatrix((n_rows, n_cols), rows, cols, vals).to_csr()


class TestConstruction:
    def test_eye(self):
        np.testing.assert_array_equal(eye_csr(3).to_dense(), np.eye(3))

    def test_eye_scaled(self):
        np.testing.assert_array_equal(eye_csr(2, 5.0).to_dense(), 5.0 * np.eye(2))

    def test_from_dense_roundtrip(self):
        rng = np.random.default_rng(1)
        dense = rng.standard_normal((6, 4))
        dense[rng.random((6, 4)) < 0.5] = 0.0
        np.testing.assert_array_equal(csr_from_dense(dense).to_dense(), dense)

    def test_from_dense_tolerance(self):
        dense = np.array([[1e-12, 1.0], [0.0, 2.0]])
        assert csr_from_dense(dense, tol=1e-10).nnz == 2

    def test_rejects_bad_indptr_length(self):
        with pytest.raises(ValueError, match="indptr"):
            CsrMatrix((2, 2), [0, 1], [0], [1.0])

    def test_rejects_decreasing_indptr(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            CsrMatrix((3, 3), [0, 2, 1, 2], [0, 1], [1.0, 2.0])

    def test_rejects_indptr_nnz_mismatch(self):
        with pytest.raises(ValueError, match="end at nnz"):
            CsrMatrix((2, 2), [0, 1, 3], [0, 1], [1.0, 2.0])

    def test_rejects_col_out_of_range(self):
        with pytest.raises(ValueError, match="column index"):
            CsrMatrix((2, 2), [0, 1, 2], [0, 2], [1.0, 2.0])

    def test_rejects_negative_col_index(self):
        # A negative index would silently wrap in matvec's fancy indexing
        # (selecting the *last* column) instead of failing construction.
        with pytest.raises(ValueError, match="indices.*negative"):
            CsrMatrix((2, 2), [0, 1, 2], [0, -1], [1.0, 2.0])

    def test_rejects_negative_indptr_start(self):
        with pytest.raises(ValueError, match="indptr.*negative"):
            CsrMatrix((2, 2), [-1, 1, 2], [0, 1], [1.0, 2.0])

    def test_extract_rows_rejects_negative(self):
        A = random_csr(4, 4, 8)
        with pytest.raises(ValueError, match="row_ids.*negative"):
            A.extract_rows([1, -2])

    def test_permute_rejects_negative(self):
        A = random_csr(3, 3, 5)
        with pytest.raises(ValueError, match="perm.*negative"):
            A.permute([0, -1, 2])

    def test_permute_rejects_out_of_range(self):
        A = random_csr(3, 3, 5)
        with pytest.raises(ValueError, match="perm entries"):
            A.permute([0, 3, 2])


class TestMatvec:
    def test_against_dense(self):
        A = random_csr(8, 6, 30)
        x = np.random.default_rng(2).standard_normal(6)
        np.testing.assert_allclose(A.matvec(x), A.to_dense() @ x, atol=1e-14)

    def test_empty_rows_give_zero(self):
        A = CooMatrix((3, 3), [0], [0], [5.0]).to_csr()
        y = A.matvec(np.ones(3))
        np.testing.assert_array_equal(y, [5.0, 0.0, 0.0])

    def test_out_parameter(self):
        A = eye_csr(3, 2.0)
        out = np.full(3, 99.0)
        y = A.matvec(np.ones(3), out=out)
        assert y is out
        np.testing.assert_array_equal(out, [2.0, 2.0, 2.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            eye_csr(3).matvec(np.ones(4))

    def test_empty_matrix(self):
        A = CooMatrix((3, 3)).to_csr()
        np.testing.assert_array_equal(A.matvec(np.ones(3)), np.zeros(3))

    def test_matvec_rows_prefix(self):
        A = random_csr(10, 10, 40, seed=3)
        x = np.random.default_rng(4).standard_normal(10)
        full = A.matvec(x)
        out = np.full(10, 7.0)
        csr_matvec(A.indptr, A.indices, A.data, x, out, 6, 10)
        np.testing.assert_array_equal(out[:6], full[:6])
        np.testing.assert_array_equal(out[6:], 7.0)

    def test_matvec_rows_out_of_range(self):
        A = eye_csr(3)
        for n_rows in (4, -1):
            with pytest.raises(ValueError, match="n_rows out of range"):
                csr_matvec(A.indptr, A.indices, A.data, np.ones(3), np.zeros(4), n_rows, 3)

    @pytest.mark.parametrize("size", [2, 4])
    def test_out_must_match_rows(self, size):
        with pytest.raises(ValueError, match="out must have shape"):
            eye_csr(3).matvec(np.ones(3), out=np.zeros(size))

    def test_rmatvec_against_dense(self):
        A = random_csr(8, 6, 30, seed=5)
        y = np.random.default_rng(6).standard_normal(8)
        np.testing.assert_allclose(A.rmatvec(y), A.to_dense().T @ y, atol=1e-14)


class TestStructuralOps:
    def test_extract_rows(self):
        A = random_csr(9, 5, 25, seed=7)
        rows = np.array([4, 1, 7])
        sub = A.extract_rows(rows)
        np.testing.assert_array_equal(sub.to_dense(), A.to_dense()[rows])

    def test_extract_rows_empty_selection(self):
        A = random_csr(5, 5, 10)
        sub = A.extract_rows(np.array([], dtype=np.int64))
        assert sub.shape == (0, 5)

    def test_extract_rows_with_empty_rows(self):
        A = CooMatrix((4, 4), [0, 3], [1, 2], [1.0, 2.0]).to_csr()
        sub = A.extract_rows(np.array([1, 3]))
        np.testing.assert_array_equal(
            sub.to_dense(), [[0, 0, 0, 0], [0, 0, 2.0, 0]]
        )

    def test_extract_rows_out_of_range(self):
        with pytest.raises(ValueError):
            eye_csr(3).extract_rows(np.array([3]))

    def test_transpose(self):
        A = random_csr(7, 4, 15, seed=8)
        np.testing.assert_array_equal(A.transpose().to_dense(), A.to_dense().T)

    def test_transpose_twice_identity(self):
        A = random_csr(6, 6, 18, seed=9)
        np.testing.assert_array_equal(
            A.transpose().transpose().to_dense(), A.to_dense()
        )

    def test_permute(self):
        A = random_csr(6, 6, 20, seed=10)
        perm = np.array([3, 0, 5, 1, 4, 2])
        P = A.permute(perm)
        np.testing.assert_array_equal(P.to_dense(), A.to_dense()[np.ix_(perm, perm)])

    def test_permute_requires_square(self):
        A = random_csr(3, 4, 5)
        with pytest.raises(ValueError, match="square"):
            A.permute(np.arange(3))

    def test_permute_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            eye_csr(3).permute(np.arange(2))

    def test_sort_indices(self):
        A = CsrMatrix((1, 4), [0, 3], [3, 0, 2], [1.0, 2.0, 3.0])
        S = A.sort_indices()
        np.testing.assert_array_equal(S.indices, [0, 2, 3])
        np.testing.assert_array_equal(S.to_dense(), A.to_dense())

    def test_diagonal(self):
        A = csr_from_dense(np.array([[1.0, 2.0], [0.0, 0.0]]))
        np.testing.assert_array_equal(A.diagonal(), [1.0, 0.0])

    def test_add_scaled_identity(self):
        A = random_csr(5, 5, 12, seed=11)
        B = A.add_scaled_identity(2.5)
        np.testing.assert_allclose(B.to_dense(), A.to_dense() + 2.5 * np.eye(5))

    def test_copy_is_deep(self):
        A = eye_csr(3)
        B = A.copy()
        B.data[0] = 99.0
        assert A.data[0] == 1.0


class TestScalingAndNorms:
    def test_scale_rows(self):
        A = random_csr(4, 4, 10, seed=12)
        s = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(
            A.scale_rows(s).to_dense(), np.diag(s) @ A.to_dense()
        )

    def test_scale_cols(self):
        A = random_csr(4, 4, 10, seed=13)
        s = np.array([1.0, 0.5, 2.0, 3.0])
        np.testing.assert_allclose(
            A.scale_cols(s).to_dense(), A.to_dense() @ np.diag(s)
        )

    def test_scale_rows_wrong_length(self):
        with pytest.raises(ValueError):
            eye_csr(3).scale_rows(np.ones(2))

    @pytest.mark.parametrize("ord", [1.0, 2.0, np.inf])
    def test_row_norms(self, ord):
        A = random_csr(5, 6, 15, seed=14)
        dense = A.to_dense()
        expected = np.linalg.norm(dense, ord=ord, axis=1)
        # row_norms only sees stored entries; with random duplicates summed
        # the dense comparison is exact.
        np.testing.assert_allclose(A.row_norms(ord), expected, atol=1e-14)

    @pytest.mark.parametrize("ord", [1.0, 2.0, np.inf])
    def test_col_norms(self, ord):
        A = random_csr(5, 6, 15, seed=15)
        dense = A.to_dense()
        expected = np.linalg.norm(dense, ord=ord, axis=0)
        np.testing.assert_allclose(A.col_norms(ord), expected, atol=1e-14)

    def test_row_norms_bad_order(self):
        with pytest.raises(ValueError):
            eye_csr(2).row_norms(3.0)


class TestCsrMatvecKernel:
    """Bounds and types checked before the unchecked compiled kernel runs."""

    def arrays(self):
        A = random_csr(5, 4, 12, seed=8)
        x = np.random.default_rng(9).standard_normal(4)
        return A, x

    def test_compiled_kernel_is_pinned(self):
        # The kernel lives in a private scipy module: an upgrade that moves
        # it or changes its calling convention must fail here, loudly.
        import scipy.sparse._sparsetools as sparsetools

        kernel = csr_module._compiled_csr_matvec
        assert kernel is sparsetools.csr_matvec
        y = np.array([1.0, 0.0])
        kernel(2, 2, np.array([0, 1, 2]), np.array([1, 0]), np.array([2.0, 3.0]),
               np.array([5.0, 7.0]), y)
        np.testing.assert_array_equal(y, [15.0, 15.0])  # accumulates into y

    def test_short_out_rejected(self):
        A, x = self.arrays()
        with pytest.raises(ValueError, match="fewer than n_rows"):
            csr_matvec(A.indptr, A.indices, A.data, x, np.zeros(4), 5, 4)

    def test_short_x_rejected(self):
        A, x = self.arrays()
        with pytest.raises(ValueError, match="fewer than n_cols"):
            csr_matvec(A.indptr, A.indices, A.data, x[:3], np.zeros(5), 5, 4)

    @pytest.mark.parametrize(
        "name, bad",
        [
            ("indptr", lambda A, x: (A.indptr.astype(np.int32), A.indices, A.data, x)),
            ("indices", lambda A, x: (A.indptr, A.indices.astype(np.int32), A.data, x)),
            ("data", lambda A, x: (A.indptr, A.indices, A.data.astype(np.float32), x)),
            ("x", lambda A, x: (A.indptr, A.indices, A.data, np.repeat(x, 2)[::2])),
            ("x", lambda A, x: (A.indptr, A.indices, A.data, x.astype(np.int64))),
        ],
    )
    def test_types_checked(self, name, bad):
        A, x = self.arrays()
        with pytest.raises(ValueError, match=f"^{name} must be a contiguous"):
            csr_matvec(*bad(A, x), np.zeros(5), 5, 4)

    def test_out_type_checked(self):
        A, x = self.arrays()
        with pytest.raises(ValueError, match="^out must be a 1-D float64"):
            csr_matvec(A.indptr, A.indices, A.data, x, np.zeros(5, dtype=np.float32), 5, 4)

    def test_strided_out_written_in_place(self):
        # Distributed SpMV writes into one column of a row-major multivector.
        A, x = self.arrays()
        panel = np.full((5, 3), 7.0)
        csr_matvec(A.indptr, A.indices, A.data, x, panel[:, 1], 5, 4)
        assert panel[:, 1].tobytes() == A.matvec(x).tobytes()
        np.testing.assert_array_equal(panel[:, [0, 2]], 7.0)

    def test_mismatched_nonzero_counts_rejected(self):
        A, x = self.arrays()
        with pytest.raises(ValueError, match="different nonzero counts"):
            csr_matvec(A.indptr, A.indices[:-1], A.data, x, np.zeros(5), 5, 4)

    def test_zero_row_prefix_writes_nothing(self):
        A, x = self.arrays()
        out = np.full(5, 3.0)
        csr_matvec(A.indptr, A.indices, A.data, x, out, 0, 4)
        np.testing.assert_array_equal(out, 3.0)

    def test_no_nonzeros(self):
        A = CooMatrix((3, 2)).to_csr()
        out = np.full(3, 3.0)
        csr_matvec(A.indptr, A.indices, A.data, np.ones(2), out, 3, 2)
        np.testing.assert_array_equal(out, 0.0)

    def test_sums_each_row_in_storage_order(self):
        # Sequential accumulation from zero, not pairwise: (0 + 1) + 1e16
        # + -1e16 is 0 in float64, while 1 + (1e16 + -1e16) would be 1.
        A = CsrMatrix((1, 3), [0, 3], [0, 1, 2], [1.0, 1e16, -1e16])
        np.testing.assert_array_equal(A.matvec(np.ones(3)), [0.0])

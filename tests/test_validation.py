"""Tests for repro._validation helpers."""

import numpy as np
import pytest

from repro._validation import as_float64_array, as_index_array


class TestAsFloat64Array:
    def test_converts_list(self):
        out = as_float64_array([1, 2, 3])
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, [1.0, 2.0, 3.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_float64_array([1.0, np.nan])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            as_float64_array([np.inf])

    def test_no_copy_when_already_float64(self):
        arr = np.array([1.0, 2.0])
        assert as_float64_array(arr) is arr


class TestAsIndexArray:
    def test_converts(self):
        out = as_index_array([0, 1, 2])
        assert out.dtype == np.int64

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            as_index_array([0, -1])

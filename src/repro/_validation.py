"""Small argument-validation helpers shared across the library.

These are deliberately tiny: validation failures raise early with a message
that names the offending argument, which keeps the numerical kernels free of
ad-hoc ``assert`` statements while still failing loudly on misuse.
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_float64_array", "as_index_array"]


def as_float64_array(x, name: str = "array") -> np.ndarray:
    """Return ``x`` as a contiguous float64 ndarray (no copy when possible)."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_index_array(x, name: str = "index array") -> np.ndarray:
    """Return ``x`` as a contiguous int64 ndarray, checking non-negativity."""
    arr = np.ascontiguousarray(x, dtype=np.int64)
    if arr.size and arr.min() < 0:
        raise ValueError(f"{name} contains negative indices")
    return arr

"""Orthogonalization kernels (Section V of the paper).

Five TSQR (intra-block) strategies — MGS, CGS, CholQR, SVQR, CAQR — plus the
block orthogonalization (*BOrth*) of a new panel against the previously
orthonormalized basis, single-vector Arnoldi orthogonalization for standard
GMRES, error metrics (Fig. 13) and the analytic cost table (Fig. 10).  The
combined Orth step that chains BOrth and TSQR (with reorthogonalization,
the "2x" of the paper's tables) lives with its callers in
:mod:`repro.core.ca_gmres`.

All routines operate on per-device panels (``list[DeviceArray]``, one block
row per GPU) and communicate exclusively through the context's host-staged
reductions/broadcasts, so every GPU-CPU message of the paper's pseudocode
(Fig. 9) appears in the counters.  BOrth and every TSQR but CAQR are
written as collective programs (:mod:`repro.gpu.collective`), so ``borth``
and ``tsqr`` also take a batch of panels and send each of its reductions
and broadcasts once per device.
"""

from .errors import (
    OrthogonalizationError,
    CholeskyBreakdown,
    orthogonality_error,
    factorization_error,
    elementwise_error,
)
from .tsqr import tsqr, TSQR_METHODS
from .mgs import tsqr_mgs
from .cgs import tsqr_cgs
from .cholqr import tsqr_cholqr
from .svqr import tsqr_svqr
from .caqr import tsqr_caqr
from .borth import borth, BORTH_METHODS
from .single import orthogonalize_vector
from .costs import tsqr_properties, TSQR_PROPERTY_TABLE

__all__ = [
    "OrthogonalizationError",
    "CholeskyBreakdown",
    "orthogonality_error",
    "factorization_error",
    "elementwise_error",
    "tsqr",
    "TSQR_METHODS",
    "tsqr_mgs",
    "tsqr_cgs",
    "tsqr_cholqr",
    "tsqr_svqr",
    "tsqr_caqr",
    "borth",
    "BORTH_METHODS",
    "orthogonalize_vector",
    "tsqr_properties",
    "TSQR_PROPERTY_TABLE",
]

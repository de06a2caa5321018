"""Exceptions raised by injected (or genuinely detected) faults.

These are deliberately *not* subclasses of the orthogonalization errors in
:mod:`repro.orth.errors`: a :class:`CholeskyBreakdown` is a numerical
property of the panel that the CholQR->CAQR fallback handles, while the
exceptions here describe the simulated machine misbehaving.  The solvers
treat :class:`TransferCorruption` as recoverable (retry the transfer, the
panel, or the restart cycle).  :class:`DeviceLost` is terminal by default
(finish with a structured failure report instead of raising), but a
solver given a :class:`~repro.core.degrade.DegradePolicy` absorbs it by
repartitioning the solve over the surviving devices and resuming (see
:mod:`repro.core.degrade`).
"""

from __future__ import annotations

__all__ = [
    "FaultError",
    "DeviceLost",
    "SilentDataCorruption",
    "TransferCorruption",
]


class FaultError(RuntimeError):
    """Base class for simulated-machine fault conditions."""


class DeviceLost(FaultError):
    """A device dropped off the bus; all further work on it is impossible.

    Without a degrade policy the solve finishes early with a structured
    ``details["faults"]`` report; with one, the loss is absorbed by a
    live repartition onto the survivors.

    Attributes
    ----------
    site
        The lane name of the lost device (``"gpu0"``, ...).
    """

    def __init__(self, site: str, message: str | None = None):
        super().__init__(message or f"device {site} was lost")
        self.site = site


class TransferCorruption(FaultError):
    """A PCIe payload arrived with non-finite entries.

    Raised by ``MultiGpuContext.h2d``/``d2h`` when the delivered buffer
    fails the always-armed ``np.isfinite`` arrival guard — whether the
    corruption was injected by a :class:`~repro.faults.plan.FaultPlan` or
    produced by real divergent arithmetic upstream.
    """


class SilentDataCorruption(FaultError):
    """A solver-level guard caught NaN/Inf in host-side solver state.

    Raised by the (uncosted) finiteness guards on residual norms,
    Hessenberg columns, and block coefficients when resilience is enabled
    — the signal that a kernel-poisoning fault slipped past the transfer
    checks and must be handled by a panel retry or a cycle redo.
    """

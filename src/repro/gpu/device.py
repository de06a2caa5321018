"""Simulated devices: GPU, host CPU, and the arrays they own.

A :class:`Device` is a clocked execution resource.  Kernels run "on" a device
by performing the real float64 arithmetic with NumPy and advancing the
device's clock by the modeled kernel time.  :class:`DeviceArray` tags an
ndarray with its owning device; mixing arrays from different devices raises
immediately, which is how the simulator enforces the paper's explicit
communication structure.
"""

from __future__ import annotations

import numpy as np

from ..perf.model import PerformanceModel

__all__ = ["Device", "DeviceArray", "Host"]


class DeviceArray:
    """An ndarray resident on one simulated device.

    Thin wrapper: ``.data`` is the real NumPy buffer (views of it are cheap
    and encouraged, mirroring on-device sub-panels), ``.device`` is the
    owner.  All arithmetic must go through :mod:`repro.gpu.blas` so that
    every operation is costed.
    """

    __slots__ = ("data", "device")

    def __init__(self, data: np.ndarray, device: "Device"):
        self.data = data
        self.device = device

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def view(self, key) -> "DeviceArray":
        """A sub-array view on the same device (no copy, no cost)."""
        return DeviceArray(self.data[key], self.device)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DeviceArray(shape={self.data.shape}, device={self.device.name})"


class _Clocked:
    """Shared clock behavior for devices and the host."""

    #: Which machine rates price this resource's kernels (``"gpu"``/``"cpu"``).
    rates = "gpu"

    def __init__(self, name: str, perf: PerformanceModel, trace, faults=None):
        self.name = name
        self.perf = perf
        self.trace = trace
        #: Optional :class:`~repro.faults.injector.FaultInjector` shared by
        #: the owning context; consulted on every kernel charge when active.
        self.faults = faults
        #: Poison event armed by the injector, delivered by the BLAS layer
        #: into the next kernel's output (see :meth:`apply_pending_faults`).
        self._poison_pending = None
        self.clock = 0.0

    def charge_kernel(self, op: str, variant: str, **shape) -> float:
        """Advance this resource's clock by one kernel's modeled time."""
        t, flops = self.perf.kernel_cost(op, variant, on=self.rates, **shape)
        return self._charge(op, variant, t, flops=flops)

    def _charge(self, op: str, variant: str, t: float, **args) -> float:
        """Run the fault hook (stall/poison/dropout) on one kernel of modeled
        time ``t``, advance the clock and record the interval in the trace."""
        start = self.clock
        fi = self.faults
        if fi is not None and fi.active:
            t = fi.on_kernel(self, op, variant, start, t)
        self.advance(t)
        self.trace.record(
            f"{op}/{variant}", self.name, "kernel", start, t, op=op,
            variant=variant, **args,
        )
        return t

    def apply_pending_faults(self, *outputs) -> None:
        """Deliver an armed poison event into the first non-empty output.

        Called by every :mod:`repro.gpu.blas` routine after it has written
        its result; a no-op unless the fault injector armed a poison on
        this resource's last kernel charge.  ``outputs`` may be
        ``DeviceArray`` or plain ndarrays.
        """
        event = self._poison_pending
        if event is None:
            return
        from ..faults.injector import poison_array

        self._poison_pending = None
        for out in outputs:
            data = out.data if isinstance(out, DeviceArray) else out
            if data.size:
                poison_array(data, event)
                return

    def advance(self, seconds: float) -> None:
        """Move this resource's clock forward."""
        if seconds < 0:
            raise ValueError("cannot advance a clock backwards")
        self.clock += seconds

    def wait_until(self, t: float) -> None:
        """Block until simulated time ``t`` (no-op if already past)."""
        if t > self.clock:
            self.clock = t


class Device(_Clocked):
    """One simulated GPU.

    Parameters
    ----------
    device_id
        Index of this GPU (0-based).
    perf
        Shared performance model.
    trace
        The context's event trace (and counter tally).
    """

    def __init__(self, device_id: int, perf: PerformanceModel, trace, faults=None):
        super().__init__(f"gpu{device_id}", perf, trace, faults=faults)
        self.device_id = int(device_id)

    # -- array management -------------------------------------------------
    def zeros(self, shape, dtype=np.float64) -> DeviceArray:
        """Zeroed column-major device allocation (uncosted).

        Column-major, as cuBLAS and MAGMA lay out matrices: the columns and
        sub-panels of a 2-D allocation are contiguous views.
        """
        return DeviceArray(np.zeros(shape, dtype=dtype, order="F"), self)

    def adopt(self, array: np.ndarray) -> DeviceArray:
        """Declare ``array`` resident on this device *without* a transfer.

        Used for one-time setup (matrix distribution) which the paper's
        per-restart timings exclude.  Timed data movement must go through
        ``MultiGpuContext.h2d``.
        """
        return DeviceArray(np.asarray(array), self)

    def require_resident(self, *arrays: DeviceArray) -> None:
        """Raise unless every array lives on this device."""
        for arr in arrays:
            if not isinstance(arr, DeviceArray):
                raise TypeError(
                    f"expected DeviceArray on {self.name}, got {type(arr).__name__}"
                )
            if arr.device is not self:
                raise ValueError(
                    f"array on {arr.device.name} used in a kernel on {self.name}; "
                    "move it with an explicit transfer first"
                )


class Host(_Clocked):
    """The 16-core host CPU: reductions and small dense factorizations."""

    rates = "cpu"

    def __init__(self, perf: PerformanceModel, trace, faults=None):
        super().__init__("host", perf, trace, faults=faults)

    def charge_small_dense(self, op: str, k: int) -> float:
        """Advance the host clock by a small k x k LAPACK factorization."""
        return self._charge(op, "lapack", self.perf.host_small_dense(op, k))

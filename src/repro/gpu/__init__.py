"""Simulated multi-GPU runtime.

This package substitutes for CUDA + 3x NVIDIA M2090 (see DESIGN.md): it
executes every kernel numerically in float64 NumPy while charging *modeled*
time to per-device clocks.  The programming model mirrors the paper's code
structure:

* each :class:`Device` owns its arrays (:class:`DeviceArray`); arrays on
  different devices cannot be mixed — data moves only through explicit
  host-staged PCIe transfers, which are counted and costed;
* the host CPU is a separate clocked entity that performs reductions and
  small dense factorizations;
* a shared PCIe bus serializes transfers, reproducing the gather/scatter
  bottleneck of Section IV;
* async copy semantics: a transfer never blocks its producer, only its
  consumer (copy-engine overlap).

``MultiGpuContext`` is the entry point; ``repro.gpu.blas`` holds the device
BLAS with per-variant cost models (cublas / magma / batched), and
``repro.gpu.collective`` the collective programs whose reductions and
broadcasts the members of a batch share.
"""

from .counters import Counters
from .device import Device, DeviceArray, Host
from .pcie import PcieBus
from .trace import TraceEvent, TraceRecorder
from .context import MultiGpuContext
from .multinode import MultiNodeContext, NetworkSpec, infiniband_qdr

__all__ = [
    "Counters",
    "Device",
    "DeviceArray",
    "Host",
    "PcieBus",
    "TraceEvent",
    "TraceRecorder",
    "MultiGpuContext",
    "MultiNodeContext",
    "NetworkSpec",
    "infiniband_qdr",
]

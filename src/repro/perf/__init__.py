"""Performance (cost) models for the simulated machine.

The paper's testbed is a Keeneland compute node: two 8-core Intel Sandy
Bridge (Xeon E5) CPUs and three NVIDIA M2090 (Fermi) GPUs on PCIe gen-2.
This package describes that machine (:mod:`~repro.perf.machine`) and provides
roofline-style cost models for every kernel the solvers issue
(:mod:`~repro.perf.kernels`), calibrated against the paper's own Fig. 11
kernel measurements.  The simulated GPU runtime (:mod:`repro.gpu`) charges
device/host clocks using :class:`~repro.perf.model.PerformanceModel`.

Numerical results never depend on this package — it only produces *time*.
"""

from .machine import (
    CpuSpec,
    GpuSpec,
    MachineSpec,
    PcieSpec,
    cpu_reference_node,
    keeneland_node,
)
from .kernels import KernelModel, KERNEL_TABLE
from .model import PerformanceModel

__all__ = [
    "CpuSpec",
    "GpuSpec",
    "PcieSpec",
    "MachineSpec",
    "keeneland_node",
    "cpu_reference_node",
    "KernelModel",
    "KERNEL_TABLE",
    "PerformanceModel",
]

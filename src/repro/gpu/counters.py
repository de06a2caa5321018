"""Event counters for the simulated runtime.

The paper's analysis is phrased in communication *counts* and *volumes*
(Fig. 10: number of GPU-CPU communications per TSQR; Section IV: gathered /
scattered element counts for MPK).  Every transfer and kernel launch in the
simulator is an event of the trace, and these counters are folded from
those events (:meth:`repro.gpu.trace.TraceRecorder.fold`), so tests can
check the implementation against the paper's closed-form counts exactly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

__all__ = ["Counters"]


@dataclass
class Counters:
    """Runtime event counts, as folded from one trace."""

    h2d_messages: int = 0
    h2d_bytes: int = 0
    d2h_messages: int = 0
    d2h_bytes: int = 0
    kernel_launches: int = 0
    device_flops: float = 0.0
    host_flops: float = 0.0
    host_small_ops: int = 0
    device_deactivations: int = 0
    repartitions: int = 0
    kernel_counts: dict = field(default_factory=dict)  # "op/variant" -> launches

    @property
    def total_messages(self) -> int:
        """All PCIe messages in both directions."""
        return self.h2d_messages + self.d2h_messages

    @property
    def total_bytes(self) -> int:
        """All PCIe bytes in both directions."""
        return self.h2d_bytes + self.d2h_bytes

    def snapshot(self) -> dict:
        """Plain-dict copy of the values, in field order."""
        return asdict(self)

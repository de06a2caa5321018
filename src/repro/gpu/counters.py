"""Event counters for the simulated runtime.

The paper's analysis is phrased in communication *counts* and *volumes*
(Fig. 10: number of GPU-CPU communications per TSQR; Section IV: gathered /
scattered element counts for MPK).  Every transfer and kernel launch in the
simulator is tallied into these counters by the trace that records it
(:meth:`repro.gpu.trace.TraceRecorder.record`), so tests can check the
implementation against the paper's closed-form counts exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Counters"]


@dataclass
class Counters:
    """Mutable tally of runtime events."""

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
    _marks: dict = field(default_factory=dict, repr=False)

    @property
    def total_messages(self) -> int:
        """All PCIe messages in both directions."""
        return self.h2d_messages + self.d2h_messages

    @property
    def total_bytes(self) -> int:
        """All PCIe bytes in both directions."""
        return self.h2d_bytes + self.d2h_bytes

    def reset(self) -> None:
        """Zero every counter and drop all marks.

        Marks are snapshots of counter state, so a mark taken before a
        reset would make :meth:`since` report negative deltas against the
        rebased counters.  Resetting therefore invalidates all marks; a
        later :meth:`since` for a pre-reset mark raises ``KeyError``
        instead of silently returning nonsense.
        """
        self.h2d_messages = 0
        self.h2d_bytes = 0
        self.d2h_messages = 0
        self.d2h_bytes = 0
        self.kernel_launches = 0
        self.device_flops = 0.0
        self.host_flops = 0.0
        self.host_small_ops = 0
        self.device_deactivations = 0
        self.repartitions = 0
        self.kernel_counts = {}
        self._marks.clear()

    def snapshot(self) -> dict:
        """Immutable view of the current values."""
        return {
            "h2d_messages": self.h2d_messages,
            "h2d_bytes": self.h2d_bytes,
            "d2h_messages": self.d2h_messages,
            "d2h_bytes": self.d2h_bytes,
            "kernel_launches": self.kernel_launches,
            "device_flops": self.device_flops,
            "host_flops": self.host_flops,
            "host_small_ops": self.host_small_ops,
            "device_deactivations": self.device_deactivations,
            "repartitions": self.repartitions,
            "kernel_counts": dict(self.kernel_counts),
        }

    def mark(self, name: str) -> None:
        """Remember the current snapshot under ``name`` (for later diffing)."""
        self._marks[name] = self.snapshot()

    def since(self, name: str) -> dict:
        """Difference between now and the snapshot saved by :meth:`mark`."""
        base = self._marks.get(name)
        if base is None:
            raise KeyError(f"no counter mark named {name!r}")
        now = self.snapshot()
        return {key: _diff(now[key], base.get(key, 0)) for key in now}


def _diff(now, base):
    """Numeric difference; dict-valued counters diff per key."""
    if isinstance(now, dict):
        base = base if isinstance(base, dict) else {}
        return {k: now.get(k, 0) - base.get(k, 0) for k in set(now) | set(base)}
    return now - base

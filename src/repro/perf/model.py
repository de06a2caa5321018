"""The performance model facade used by the simulated runtime.

:class:`PerformanceModel` binds a :class:`~repro.perf.machine.MachineSpec` to
the kernel cost table and answers two questions:

* what does kernel X with shape S cost on the GPU or on the threaded host
  (``kernel_cost``: seconds and flops, memoized per shape),
* which numerics-preserving GPU variant of X is fastest at shape S
  (``best_variant``, the autotuning direction of the paper's footnotes 7-8),

plus small-dense host LAPACK costs (Cholesky/QR/SVD/eig of the s x s Gram
and Hessenberg matrices), which the paper runs on the CPU.
"""

from __future__ import annotations

from .kernels import KERNEL_TABLE
from .machine import MachineSpec, keeneland_node

__all__ = ["PerformanceModel"]

# Device variants ``best_variant`` may pick: every device implementation
# except ``batched_sp``, whose fp32 Gram product changes the numerics.
_TUNABLE_VARIANTS = ("cublas", "magma", "batched", "ellpack", "csr")


class PerformanceModel:
    """Cost oracle for one machine.

    Parameters
    ----------
    machine
        Machine description; defaults to the paper's Keeneland node.
        Read-only afterwards, so memoized costs never go stale.
    """

    def __init__(self, machine: MachineSpec | None = None):
        self._machine = machine if machine is not None else keeneland_node()
        gpu, cpu = self._machine.gpu, self._machine.cpu
        #: ``on`` -> (peak flop/s, memory bandwidth, per-launch overhead).
        self._rates = {
            "gpu": (gpu.peak_gflops * 1e9, gpu.mem_bandwidth, gpu.kernel_overhead),
            "cpu": (cpu.peak_gflops * 1e9, cpu.mem_bandwidth, cpu.small_op_overhead),
        }
        self._costs: dict[tuple, tuple[float, float]] = {}

    @property
    def machine(self) -> MachineSpec:
        return self._machine

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def kernel_cost(self, op: str, variant: str, *, on: str, **shape) -> tuple[float, float]:
        """Modeled ``(seconds, flops)`` of one kernel on the GPU or the host.

        ``on`` is ``"gpu"`` or ``"cpu"`` and selects the machine rates.
        Results are memoized per ``(on, op, variant, shape)``.
        """
        key = (on, op, variant, *shape.items())
        cost = self._costs.get(key)
        if cost is None:
            try:
                model = KERNEL_TABLE[(op, variant)]
            except KeyError:
                raise KeyError(
                    f"no kernel model for op={op!r} variant={variant!r}"
                ) from None
            try:
                rates = self._rates[on]
            except KeyError:
                raise ValueError(f"on must be 'gpu' or 'cpu', got {on!r}") from None
            cost = (model.time(*rates, **shape), float(model.flops(**shape)))
            self._costs[key] = cost
        return cost

    def best_variant(self, op: str, **shape) -> str:
        """The fastest numerics-preserving GPU variant of ``op`` at this shape.

        Ties go to the variant listed first in ``KERNEL_TABLE``.
        """
        options = [
            variant
            for (table_op, variant) in KERNEL_TABLE
            if table_op == op and variant in _TUNABLE_VARIANTS
        ]
        if not options:
            raise KeyError(f"no device variants for op {op!r}")
        return min(options, key=lambda v: self.kernel_cost(op, v, on="gpu", **shape)[0])

    # ------------------------------------------------------------------
    # Host small-dense LAPACK (s x s / (m+1) x m problems)
    # ------------------------------------------------------------------
    def host_small_dense(self, op: str, k: int) -> float:
        """Cost of a small k x k dense factorization on the host.

        Small problems are latency-dominated; the flop term uses a modest
        sequential rate (~8 Gflop/s) because threaded LAPACK does not scale
        at these sizes.
        """
        flops = {
            "chol": k**3 / 3.0,
            "qr": 4.0 * k**3 / 3.0,
            "svd": 20.0 * k**3,
            "eig": 25.0 * k**3,
            "lstsq_hessenberg": 3.0 * k**2,  # Givens on an upper Hessenberg
            "trsv": k**2,
        }.get(op)
        if flops is None:
            raise KeyError(f"unknown host small-dense op {op!r}")
        return self._machine.cpu.small_op_overhead + flops / 8.0e9

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PerformanceModel({self._machine.name!r})"

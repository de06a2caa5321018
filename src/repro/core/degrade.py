"""Degraded-mode recovery: survive device loss via live repartitioning.

PR 2's resilience stack treats :class:`~repro.faults.errors.DeviceLost` as
terminal — the solve aborts and returns the last checkpoint.  But the
paper's algorithms partition cleanly across 1-3 GPUs: MPK, BOrth, and TSQR
are all defined over *any* block-row partition, so losing a GPU should
shrink the partition, not kill the solve.  This module implements that
state machine::

    detect ──▶ checkpoint-restore ──▶ repartition ──▶ resume
    (DeviceLost        (host-side           (survivors      (restart loop
     raised by          cycle checkpoint,    get a fresh      continues on
     the injector)      already taken)       Partition)       n-1 GPUs)

The pieces:

* :class:`DegradePolicy` — pure data: how many repartitions are allowed,
  the minimum surviving device count, the repartitioning strategy, and
  what to do when the budget is exhausted.
* :class:`DegradationManager` — one per solve.  Owned by the solver, hooked
  into :func:`repro.core.resilience.run_cycle_resilient`: when a cycle
  raises ``DeviceLost`` it deactivates the dead devices on the context
  (:meth:`~repro.gpu.context.MultiGpuContext.deactivate_device` tears down
  their PCIe lanes and removes them from the clock set), derives a new
  :class:`~repro.order.partition.Partition` over the survivors, and calls
  the solver's ``rebuild`` callback to reconstruct the distributed state
  (matrix, basis, MPK plans, vectors) from the host-side cycle checkpoint.
  It also runs the **deadline watchdog**: a simulated-time budget checked
  at every restart boundary.
* :func:`derive_partition` — the repartitioning step, reusing the
  block-row / k-way machinery from :mod:`repro.order`.

Everything is deterministic and bit-replayable: the degradation schedule
is a pure function of the fault plan, and ``ctx.reset_clocks()`` restores
the full device roster along with the injector streams, so rerunning a
solve on the same context replays the identical repartition sequence.
The trace is the record: ``degraded`` / ``repartition`` /
``deadline-exceeded`` events land on the ``"faults"`` trace lane next to
the dropout that caused them, and ``SolveResult.details["degradation"]``
is built from those events.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..faults.errors import DeviceLost
from ..order.partition import Partition, block_row_partition

__all__ = [
    "DegradePolicy",
    "DegradationManager",
    "derive_partition",
]

#: Valid repartitioning strategies (see :func:`derive_partition`).
STRATEGIES = ("block", "kway")

#: Valid budget-exhaustion actions.
EXHAUSTED_ACTIONS = ("abort", "raise")


@dataclass(frozen=True)
class DegradePolicy:
    """How far a solve may degrade before giving up.

    Attributes
    ----------
    max_repartitions
        Repartition budget per solve (``None`` = bounded only by
        ``min_devices``).
    min_devices
        The solve never shrinks below this many devices; a loss that
        would violate it triggers ``on_exhausted`` instead.
    strategy
        ``"block"`` (equal contiguous slabs, the natural/RCM
        distribution) or ``"kway"`` (graph repartitioning; pays host-side
        setup but preserves a low edge cut on the survivors).
    on_exhausted
        ``"abort"`` — stop with the structured
        ``details["faults"]`` report exactly as a policy-less run would;
        ``"raise"`` — let :class:`DeviceLost` propagate to the caller.
    """

    max_repartitions: int | None = None
    min_devices: int = 1
    strategy: str = "block"
    on_exhausted: str = "abort"

    def __post_init__(self):
        if self.max_repartitions is not None and self.max_repartitions < 0:
            raise ValueError("max_repartitions must be >= 0")
        if self.min_devices < 1:
            raise ValueError("min_devices must be >= 1")
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; choose from {STRATEGIES}"
            )
        if self.on_exhausted not in EXHAUSTED_ACTIONS:
            raise ValueError(
                f"unknown on_exhausted {self.on_exhausted!r}; "
                f"choose from {EXHAUSTED_ACTIONS}"
            )

    def describe(self) -> dict:
        """JSON-friendly summary (recorded in the degradation report)."""
        return {
            "max_repartitions": self.max_repartitions,
            "min_devices": self.min_devices,
            "strategy": self.strategy,
            "on_exhausted": self.on_exhausted,
        }


def derive_partition(matrix, n_parts: int, strategy: str = "block") -> Partition:
    """A fresh row partition over ``n_parts`` surviving devices.

    ``"block"`` reuses :func:`~repro.order.partition.block_row_partition`
    (bit-identical to what a fresh ``n_parts``-device solve would build);
    ``"kway"`` reruns the graph partitioner on the survivors.
    """
    if strategy == "block":
        return block_row_partition(matrix.n_rows, n_parts)
    if strategy == "kway":
        from ..order.kway import kway_partition

        return kway_partition(matrix, n_parts)
    raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")


class DegradationManager:
    """Per-solve coordinator for device-loss absorption and deadlines.

    Parameters
    ----------
    ctx
        The execution context (devices are deactivated on it).
    matrix
        The operator being solved (already balanced/preconditioned) —
        repartitioning derives the new row distribution from it.
    rebuild
        Solver callback ``rebuild(partition, x_host) -> new_x``:
        reconstructs every distributed object (matrix, basis multivector,
        RHS, MPK plans) on the shrunken context and returns the new
        solution vector initialized from the host checkpoint ``x_host``.
        Transfers it issues are costed normally — recovery takes
        simulated time, deterministically — and may fault like any other
        (:func:`~repro.core.resilience.run_cycle_resilient` replays it).
    policy
        The :class:`DegradePolicy`, or ``None`` to run only the deadline
        watchdog (device loss then stays terminal, as without a manager).
    deadline
        Simulated-time budget in seconds (``None`` = no deadline).  The
        watchdog trips at the first restart boundary past the budget.
    """

    def __init__(self, ctx, matrix, rebuild, policy: DegradePolicy | None = None,
                 deadline: float | None = None):
        if deadline is not None and deadline < 0:
            raise ValueError("deadline must be >= 0")
        self.ctx = ctx
        self.matrix = matrix
        self.rebuild = rebuild
        self.policy = policy
        self.deadline = deadline
        self.initial_devices = ctx.n_gpus

    # ------------------------------------------------------------------
    # Device-loss absorption
    # ------------------------------------------------------------------
    def _dead_active_devices(self, exc: DeviceLost) -> list:
        """Active devices the injector marked dead (ordered by id)."""
        dead_names = set(self.ctx.faults.dead)
        if exc.site is not None:
            dead_names.add(exc.site)
        return [d for d in self.ctx.devices if d.name in dead_names]

    def can_absorb(self, n_lost: int = 1) -> bool:
        """Whether policy budgets allow absorbing ``n_lost`` more losses."""
        if self.policy is None or n_lost < 1:
            return False
        if self.ctx.n_gpus - n_lost < self.policy.min_devices:
            return False
        budget = self.policy.max_repartitions
        return budget is None or self.ctx.counters.repartitions < budget

    def absorb(self, exc: DeviceLost, old_x, checkpoint: list[np.ndarray]):
        """Try to absorb a :class:`DeviceLost`; returns the pending rebuild.

        Returns ``None`` when the policy forbids it (``on_exhausted ==
        "abort"``) so the caller falls through to the structured-abort
        path; re-raises ``exc`` when ``on_exhausted == "raise"``.  On
        success the dead devices are deactivated, a new partition is
        derived over the survivors, the repartition is logged on the fault
        lane, and ``(partition, x_host)`` — the arguments of the
        ``rebuild`` callback, ``x_host`` assembled from the checkpoint — is
        returned for the caller to apply (and replay, should the rebuild's
        own transfers fault).
        """
        dead = self._dead_active_devices(exc)
        if not self.can_absorb(len(dead)):
            if self.policy is not None and self.policy.on_exhausted == "raise":
                raise exc
            return None
        now = self.ctx.current_time()
        for dev in dead:
            self.ctx.deactivate_device(dev)
        survivors = self.ctx.n_gpus
        partition = derive_partition(self.matrix, survivors, self.policy.strategy)
        self.ctx.faults.note_degradation(
            "repartition", now,
            lost=sorted(d.name for d in dead),
            devices_before=survivors + len(dead),
            devices_after=survivors,
            strategy=self.policy.strategy,
            part_sizes=partition.part_sizes().tolist(),
        )
        return partition, _assemble_global(old_x, checkpoint)

    # ------------------------------------------------------------------
    # Deadline watchdog
    # ------------------------------------------------------------------
    def deadline_reached(self) -> bool:
        """Check the simulated-time budget (call at restart boundaries).

        A trip is logged on the fault trace lane as ``deadline-exceeded``;
        the solve stops there, so it trips at most once.  The check reads
        the simulated clock only — it is uncosted, so a solve with no
        deadline (or one that never trips) is bit-identical to a
        watchdog-free run.
        """
        if self.deadline is None:
            return False
        now = self.ctx.current_time()
        if now <= self.deadline:
            return False
        self.ctx.faults.note_degradation(
            "deadline-exceeded", now, deadline=self.deadline
        )
        return True

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self, events) -> dict:
        """The ``SolveResult.details["degradation"]`` payload, built from
        the ``repartition`` and ``deadline-exceeded`` fault-lane events."""
        repartitions = [
            {"time": e.start, **e.args} for e in events if e.kind == "repartition"
        ]
        trips = [e.start for e in events if e.kind == "deadline-exceeded"]
        return {
            "policy": None if self.policy is None else self.policy.describe(),
            "deadline": self.deadline,
            "initial_devices": self.initial_devices,
            "final_devices": self.ctx.n_gpus,
            "repartitions": repartitions,
            "n_repartitions": len(repartitions),
            "deadline_exceeded": bool(trips),
            "deadline_exceeded_at": trips[0] if trips else None,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DegradationManager(devices={self.ctx.n_gpus}/"
            f"{self.initial_devices}, deadline={self.deadline})"
        )


def _assemble_global(old_x, checkpoint: list[np.ndarray]) -> np.ndarray:
    """Host-side global vector from a per-part cycle checkpoint."""
    out = np.empty(old_x.n_rows, dtype=np.float64)
    partition = old_x.partition
    for d in range(partition.n_parts):
        out[partition.rows_of(d)] = checkpoint[d]
    return out

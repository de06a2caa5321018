"""Structural plans: the reusable, RHS-independent half of a solve.

A solve against a fixed operator splits cleanly into

* **structure** — ordering permutation, balancing, row partition, the
  distributed ELLPACK matrix with its halo index sets, the basis
  multivector, the MPK dependency closures, and the staged-exchange
  staging buffers.  Functions of the matrix (pattern *and* values: the
  balanced, folded operator is what the distributed matrix and the MPK
  closures hold) + config + device roster; *expensive* on the host (k-way
  partitioning and the MPK closure dominate) and wholly uncosted in the
  simulated timeline.
* **numerics** — everything touching ``b``: the RHS/solution vectors and
  the iteration itself.

:class:`StructuralPlan` owns the first half.  :class:`PlanCache` builds
plans on demand, keyed by :class:`~repro.serve.fingerprint.HostKey` and
:class:`~repro.serve.fingerprint.Fingerprint`, and splits the
roster-independent host work (:class:`HostPlan`) from the roster-dependent
device state so a mid-solve repartition invalidates only the latter.  It
is the library's one structural setup path: every solve builds its plan
through a :class:`~repro.serve.session.SolverSession`'s cache (the solver
functions are one-request sessions).  A host plan also carries the Newton
shifts of every restart length a CA-GMRES solve has asked it for
(:meth:`HostPlan.newton_shifts`).

Bit-identity
------------
Reusing a plan across solves is numerically safe by construction: every
device buffer a plan holds is either fully rewritten before it is read
(basis columns, the SpMV extended vector) or carries the prefix-write /
prefix-read closure property (MPK ping-pong buffers), so stale contents
from a previous solve can never leak into a later one.  The serving tests
assert byte-for-byte equality of warm and cold solves.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field

import numpy as np

from ..core.arnoldi import host_arnoldi
from ..core.balance import balance_matrix
from ..core.basis import ritz_values
from ..dist.matrix import DistributedMatrix
from ..dist.multivector import DistMultiVector
from ..gpu.trace import REGION_LANE
from ..mpk.matrix_powers import MatrixPowersKernel
from ..mpk.shifts import ShiftOp, newton_shift_ops
from ..order.kway import kway_partition
from ..order.partition import Partition, block_row_partition
from ..order.rcm import rcm
from ..sparse.csr import CsrMatrix
from .fingerprint import Fingerprint, HostKey, pattern_hash, value_hash

__all__ = ["HostPlan", "StructuralPlan", "PlanCache"]

#: Orderings the serving layer understands.
ORDERINGS = ("natural", "rcm", "kway")

#: Seed of the Newton shifts' Arnoldi start vector,
#: ``default_rng(NEWTON_SEED).standard_normal(n)``.
NEWTON_SEED = 7


@dataclass
class HostPlan:
    """Roster-independent structural state (survives any repartition).

    Attributes
    ----------
    key
        The :class:`~repro.serve.fingerprint.HostKey` this entry is cached
        under.
    perm
        RCM permutation (``perm[k]`` = original index at position ``k``),
        or ``None`` for orderings that keep the native row order.
    matrix
        The (possibly permuted) matrix in solve ordering.
    bal
        :class:`~repro.core.balance.BalanceResult` or ``None``.
    operator
        The folded + balanced operator the iteration runs on.
    preconditioner
        The preconditioner folded into ``operator`` (or ``None``).
    """

    key: HostKey
    perm: np.ndarray | None
    matrix: CsrMatrix
    bal: object | None
    operator: CsrMatrix
    preconditioner: object | None
    _shifts: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _ops: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def newton_shifts(self, m: int) -> np.ndarray:
        """The Newton-basis shifts of CA-GMRES(s, ``m``) on :attr:`operator`.

        The Ritz values of ``m`` host Arnoldi steps
        (:func:`~repro.core.arnoldi.host_arnoldi`) from the fixed start
        vector ``default_rng(NEWTON_SEED).standard_normal(n)``: a function
        of this plan's key and ``m`` only, built on the first request and
        shared by every structural plan, roster and session derived from
        this host plan.  The build runs on the host alone, so it charges no
        simulated time, records no trace event and draws no fault.

        An operator too small for Arnoldi (``n < 2``), or one on which
        Arnoldi stops early on an invariant subspace, gets no shifts: the
        solve runs the monomial basis, since shifting by all the exact
        eigenvalues of that subspace would annihilate the basis.
        """
        shifts = self._shifts.get(m)
        if shifts is None:
            shifts = np.empty(0, dtype=np.complex128)
            if self.operator.n_rows >= 2:
                _, H = host_arnoldi(self.operator, m, seed=NEWTON_SEED)
                k = H.shape[1]
                if H.shape[0] > k:
                    shifts = ritz_values(H[:k, :k])
            shifts.setflags(write=False)
            self._shifts[m] = shifts
        return shifts

    def newton_ops(self, m: int, s: int) -> tuple[ShiftOp, ...]:
        """The MPK operations of one ``s``-vector block of a Newton
        CA-GMRES(s, ``m``) cycle: :func:`~repro.mpk.shifts.newton_shift_ops`
        of :meth:`newton_shifts` (monomial operations when there are no
        shifts), memoized because their modified Leja ordering is the
        same for every block and costs milliseconds per call."""
        ops = self._ops.get((m, s))
        if ops is None:
            ops = self._ops[m, s] = tuple(newton_shift_ops(self.newton_shifts(m), s))
        return ops

    def to_solve_order(self, v: np.ndarray) -> np.ndarray:
        """Map a vector from original ordering into solve ordering."""
        return v if self.perm is None else v[self.perm]

    def from_solve_order(self, v: np.ndarray) -> np.ndarray:
        """Map a vector from solve ordering back to the original."""
        if self.perm is None:
            return v
        out = np.empty_like(v)
        out[self.perm] = v
        return out


class StructuralPlan:
    """Roster-dependent structural state for one (host plan, partition).

    Exposes exactly the attributes the solvers consume:
    ``partition`` / ``dmat`` / ``V`` / ``mpk`` plus the host-plan
    delegates ``bal`` / ``operator`` / ``preconditioner``, and
    :meth:`derive` for degraded-mode repartitions.  ``mpk`` maps block
    length to kernel; :meth:`mpk_kernel` fills it on demand, so MPK
    closures built during the first solve persist for every later one.
    ``V`` is the basis of batch slot 0; :meth:`basis` gives every slot of
    a ``solve_many`` batch its own, since the batch's solves hold their
    bases across each other's blocks, and :meth:`release_batch` frees them
    when the batch is done.
    """

    def __init__(
        self,
        key: Fingerprint,
        host: HostPlan,
        ctx,
        partition: Partition,
        cache: "PlanCache",
    ):
        self.key = key
        self.host = host
        self.ctx = ctx
        self.partition = partition
        self.dmat = DistributedMatrix(ctx, host.operator, partition)
        self.V = DistMultiVector(ctx, partition, key.m + 1)
        self._bases = [self.V]
        self.mpk: dict[int, MatrixPowersKernel] = {}
        # Weak: the cache holds its plans, and a strong back-reference would
        # leave a dropped cache (and every plan on it) to the cycle
        # collector instead of freeing it at once.
        self._cache = weakref.ref(cache)

    @property
    def m(self) -> int:
        return self.key.m

    @property
    def bal(self):
        return self.host.bal

    @property
    def operator(self) -> CsrMatrix:
        return self.host.operator

    @property
    def preconditioner(self):
        return self.host.preconditioner

    def basis(self, slot: int = 0) -> DistMultiVector:
        """The ``(m+1)``-column basis of batch slot ``slot``, built on first
        request and kept until :meth:`release_batch` (slot 0 is :attr:`V`)."""
        while len(self._bases) <= slot:
            self._bases.append(
                DistMultiVector(self.ctx, self.partition, self.key.m + 1)
            )
        return self._bases[slot]

    def release_batch(self) -> None:
        """Free what a finished batch added to the plan: the bases of slots
        1 and up and the extra columns of the SpMV expand buffers and the
        MPK ping-pong buffers, so the plan holds its single-request memory
        again."""
        del self._bases[1:]
        self.dmat.release_batch()
        for mpk in self.mpk.values():
            mpk.release_batch()

    def mpk_kernel(self, length: int) -> MatrixPowersKernel:
        """The MPK kernel for one block length, built on first request."""
        if length not in self.mpk:
            self.mpk[length] = MatrixPowersKernel(
                self.ctx, self.operator, self.partition, int(length)
            )
        return self.mpk[length]

    def ensure_mpk(self, lengths) -> None:
        """Prebuild MPK closures for the given block lengths."""
        for length in lengths:
            self.mpk_kernel(length)

    def derive(self, new_partition: Partition) -> "StructuralPlan":
        """Plan for the current (shrunken) roster after a repartition.

        Routed through the owning :class:`PlanCache`: the first
        degradation to a given roster builds the survivor plan, later
        degradations to the same roster reuse it.  A cached entry whose
        partition disagrees with ``new_partition`` is invalidated and
        rebuilt.  The survivor plan prebuilds the MPK kernels this plan
        holds.  If that cache is gone, a private one builds the plan:
        nothing could reuse it anyway.
        """
        cache = self._cache() or PlanCache()
        plan = cache.structural_plan(
            self.ctx, self.host, self.key.m, partition=new_partition
        )
        plan.ensure_mpk(self.mpk)
        return plan

    def device_memory_bytes(self) -> list[int]:
        """Per-device resident bytes of the plan's distributed state."""
        total = list(self.dmat.device_memory_bytes())
        for d in range(len(total)):
            total[d] += sum(int(V.local[d].nbytes) for V in self._bases)
        for mpk in self.mpk.values():
            for d, nbytes in enumerate(mpk.device_memory_bytes()):
                total[d] += nbytes
        return total


def _same_partition(a: Partition, b: Partition) -> bool:
    return a.n_parts == b.n_parts and np.array_equal(a.assignment, b.assignment)


@dataclass
class PlanCache:
    """Two-level plan cache with roster-aware invalidation.

    Level 1 caches :class:`HostPlan` entries (ordering + balancing), keyed
    by the roster-independent :class:`~repro.serve.fingerprint.HostKey`
    (pattern and value hashes + ordering, balance, preconditioner).
    Level 2 caches :class:`StructuralPlan` entries keyed by the full
    :class:`Fingerprint` — these hold device-resident state, so an entry is
    replaced when its context goes away or a repartition changes its
    assignment, while the host entries survive untouched.

    ``stats`` counts lookups per level.  A
    :class:`~repro.serve.session.SolverSession` resolves its host plan once,
    at its first plan access, so ``host_hits`` counts host plans reused
    *across sessions*, not solves; ``plan_hits`` counts structural-plan
    reuse per solve.

    With a :class:`~repro.metrics.registry.MetricsRegistry` attached via
    :attr:`metrics`, every lookup increments
    ``repro_plan_cache_requests_total{level,outcome}``, every drop
    ``repro_plan_cache_invalidations_total``, and every miss observes its
    *host wall-clock* build time in ``repro_plan_build_seconds{level}``
    (flagged nondeterministic).  Structural-plan builds additionally leave
    a zero-duration ``plan-build`` marker on the trace's region lane
    (kind ``"plan"``) carrying the measured ``host_seconds`` — visible in
    Chrome-trace exports without perturbing ``ctx.timers`` or the
    simulated timeline, so warm/cold solves stay bit-identical.
    """

    host_plans: dict = field(default_factory=dict)
    plans: dict = field(default_factory=dict)
    stats: dict = field(
        default_factory=lambda: {
            "host_hits": 0,
            "host_misses": 0,
            "plan_hits": 0,
            "plan_misses": 0,
            "invalidations": 0,
        }
    )
    metrics: object | None = None
    #: Args of the most recent structural-plan build's trace marker.  The
    #: solver run constructors reset the context clocks (wiping the trace),
    #: so :class:`~repro.serve.session.SolverSession` re-emits the marker
    #: from this stash once the run — and its fresh trace — exists.
    last_structural_build: dict | None = field(default=None, compare=False)

    def _note_request(self, level: str, outcome: str) -> None:
        if self.metrics is not None:
            from ..metrics.collect import plan_cache_requests_total

            plan_cache_requests_total(self.metrics).inc(level=level, outcome=outcome)

    def _note_build(self, level: str, seconds: float) -> None:
        if self.metrics is not None:
            from ..metrics.collect import plan_build_seconds

            plan_build_seconds(self.metrics).observe(seconds, level=level)

    # -- level 1: host plans ------------------------------------------------
    def host_plan(
        self,
        matrix: CsrMatrix,
        ordering: str = "natural",
        balance: bool = True,
        preconditioner=None,
    ) -> HostPlan:
        """Fetch or build the ordering/balance plan for ``matrix``.

        Hashes the matrix pattern and values, so call it once per matrix
        and keep the result.
        """
        if ordering not in ORDERINGS:
            raise ValueError(
                f"unknown ordering {ordering!r}; choose from {ORDERINGS}"
            )
        key = HostKey(
            pattern=pattern_hash(matrix),
            values=value_hash(matrix),
            ordering=ordering,
            balance=bool(balance),
            preconditioner=None if preconditioner is None else repr(preconditioner),
        )
        cached = self.host_plans.get(key)
        if cached is not None:
            self.stats["host_hits"] += 1
            self._note_request("host", "hit")
            return cached
        self.stats["host_misses"] += 1
        self._note_request("host", "miss")
        build_start = time.perf_counter()
        perm = rcm(matrix) if ordering == "rcm" else None
        A_p = matrix.permute(perm) if perm is not None else matrix
        A_pre = preconditioner.fold(A_p) if preconditioner is not None else A_p
        bal = balance_matrix(A_pre) if balance else None
        plan = HostPlan(
            key=key,
            perm=perm,
            matrix=A_p,
            bal=bal,
            operator=bal.matrix if bal is not None else A_pre,
            preconditioner=preconditioner,
        )
        self.host_plans[key] = plan
        self._note_build("host", time.perf_counter() - build_start)
        return plan

    # -- level 2: roster-dependent plans ------------------------------------
    def structural_plan(
        self,
        ctx,
        host: HostPlan,
        m: int,
        partition: Partition | None = None,
    ) -> StructuralPlan:
        """Fetch or build the device-level plan for the *active* roster."""
        roster = tuple(dev.name for dev in ctx.devices)
        key = Fingerprint(host=host.key, m=int(m), roster=roster)
        cached = self.plans.get(key)
        if cached is not None:
            stale = cached.ctx is not ctx or (
                partition is not None
                and not _same_partition(cached.partition, partition)
            )
            if not stale:
                self.stats["plan_hits"] += 1
                self._note_request("structural", "hit")
                return cached
            self.invalidate(key)
        self.stats["plan_misses"] += 1
        self._note_request("structural", "miss")
        build_start = time.perf_counter()
        if partition is None:
            if host.key.ordering == "kway":
                partition = kway_partition(host.operator, len(roster))
            else:
                partition = block_row_partition(host.operator.n_rows, len(roster))
        plan = StructuralPlan(key, host, ctx, partition, self)
        self.plans[key] = plan
        host_seconds = time.perf_counter() - build_start
        self._note_build("structural", host_seconds)
        # Zero-duration marker on the region lane: plan construction is host
        # work outside the simulated timeline, so it must not shift clocks or
        # region totals — kind "plan" keeps it out of region aggregation.
        self.last_structural_build = dict(
            host_seconds=host_seconds,
            level="structural",
            m=int(m),
            roster=list(roster),
        )
        ctx.trace.record(
            "plan-build",
            REGION_LANE,
            "plan",
            ctx.current_time(),
            0.0,
            **self.last_structural_build,
        )
        return plan

    # -- invalidation --------------------------------------------------------
    def invalidate(self, key: Fingerprint) -> bool:
        """Drop one structural plan (host plans are never affected)."""
        if key in self.plans:
            del self.plans[key]
            self.stats["invalidations"] += 1
            if self.metrics is not None:
                from ..metrics.collect import plan_cache_invalidations_total

                plan_cache_invalidations_total(self.metrics).inc()
            return True
        return False

"""PlanCache: two-level caching, stats, invalidation, and keys that hold
every input of a plan."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.context import MultiGpuContext
from repro.matrices import poisson2d
from repro.order.partition import Partition
from repro.serve import PlanCache, SolverSession

from ..conftest import row_scaled


@pytest.fixture
def A():
    return poisson2d(8)


class TestHostPlans:
    def test_shared_across_m_and_roster(self, A):
        cache = PlanCache()
        h1 = cache.host_plan(A, "natural", balance=True)
        h2 = cache.host_plan(A, "natural", balance=True)
        assert h1 is h2
        assert cache.stats["host_hits"] == 1
        assert cache.stats["host_misses"] == 1

    def test_distinct_per_ordering_and_balance(self, A):
        cache = PlanCache()
        plans = {
            cache.host_plan(A, "natural", balance=True).key,
            cache.host_plan(A, "natural", balance=False).key,
            cache.host_plan(A, "rcm", balance=True).key,
            cache.host_plan(A, "kway", balance=True).key,
        }
        assert len(plans) == 4
        assert cache.stats["host_misses"] == 4

    def test_rcm_permutation_roundtrip(self, A, rng):
        cache = PlanCache()
        h = cache.host_plan(A, "rcm", balance=False)
        assert h.perm is not None
        v = rng.standard_normal(A.n_rows)
        np.testing.assert_array_equal(
            h.from_solve_order(h.to_solve_order(v)), v
        )

    def test_unknown_ordering_rejected(self, A):
        with pytest.raises(ValueError, match="unknown ordering"):
            PlanCache().host_plan(A, "metis")


class TestStructuralPlans:
    def test_hit_on_same_context_and_roster(self, A):
        cache = PlanCache()
        ctx = MultiGpuContext(2)
        host = cache.host_plan(A, "natural")
        p1 = cache.structural_plan(ctx, host, m=12, mpk_lengths=(4,))
        p2 = cache.structural_plan(ctx, host, m=12, mpk_lengths=(4,))
        assert p1 is p2
        assert cache.stats["plan_hits"] == 1
        assert cache.stats["plan_misses"] == 1

    def test_distinct_per_m_and_mpk_lengths(self, A):
        cache = PlanCache()
        ctx = MultiGpuContext(2)
        host = cache.host_plan(A, "natural")
        p1 = cache.structural_plan(ctx, host, m=12, mpk_lengths=(4,))
        p2 = cache.structural_plan(ctx, host, m=20, mpk_lengths=(4,))
        p3 = cache.structural_plan(ctx, host, m=12, mpk_lengths=(5,))
        assert len({p1.key, p2.key, p3.key}) == 3
        assert p2.V.n_cols == 21

    def test_replaced_context_invalidates(self, A):
        cache = PlanCache()
        host = cache.host_plan(A, "natural")
        p1 = cache.structural_plan(MultiGpuContext(2), host, m=12)
        p2 = cache.structural_plan(MultiGpuContext(2), host, m=12)
        assert p1 is not p2
        assert cache.stats["invalidations"] == 1
        assert len(cache.plans) == 1  # stale entry replaced, not leaked

    def test_partition_mismatch_invalidates(self, A):
        cache = PlanCache()
        ctx = MultiGpuContext(2)
        host = cache.host_plan(A, "natural")
        p1 = cache.structural_plan(ctx, host, m=12)
        # Same roster, different assignment: a degraded-mode repartition.
        mid = A.n_rows // 3
        assignment = np.where(np.arange(A.n_rows) < mid, 0, 1)
        skew = Partition(assignment=assignment, n_parts=2)
        p2 = cache.structural_plan(ctx, host, m=12, partition=skew)
        assert p2 is not p1
        assert cache.stats["invalidations"] == 1
        # Asking again with the same partition now hits.
        p3 = cache.structural_plan(ctx, host, m=12, partition=skew)
        assert p3 is p2

    def test_prebuild_mpk_fills_the_plan_dict(self, A):
        cache = PlanCache()
        ctx = MultiGpuContext(2)
        host = cache.host_plan(A, "natural")
        p = cache.structural_plan(ctx, host, m=12, mpk_lengths=(4, 2),
                                  prebuild_mpk=(4, 2))
        assert sorted(p.mpk) == [2, 4]
        # A cache hit must not rebuild existing closures.
        mpk4 = p.mpk[4]
        p2 = cache.structural_plan(ctx, host, m=12, mpk_lengths=(4, 2),
                                   prebuild_mpk=(4,))
        assert p2.mpk[4] is mpk4

    def test_device_memory_accounting_positive(self, A):
        cache = PlanCache()
        ctx = MultiGpuContext(2)
        host = cache.host_plan(A, "natural")
        p = cache.structural_plan(ctx, host, m=12, mpk_lengths=(4,),
                                  prebuild_mpk=(4,))
        mem = p.device_memory_bytes()
        assert len(mem) == 2 and all(x > 0 for x in mem)


    def test_batch_slot_bases_counted_in_device_memory(self, A):
        cache = PlanCache()
        p = cache.structural_plan(MultiGpuContext(2), cache.host_plan(A, "natural"), m=12)
        one = p.device_memory_bytes()
        extra = p.basis(2)
        assert p.basis(0) is p.V and p.basis(2) is extra
        grown = p.device_memory_bytes()
        assert [b - a for a, b in zip(one, grown)] == [
            2 * panel.nbytes for panel in extra.local
        ]


class TestRelease:
    def test_dropped_session_frees_its_plan_without_the_cycle_collector(self, A):
        session = SolverSession(A, n_gpus=2, s=4, m=8, max_restarts=2)
        session.solve(np.ones(A.n_rows))
        plan = weakref.ref(session.plan)
        gc.disable()
        try:
            del session
            assert plan() is None
        finally:
            gc.enable()

    def test_a_batch_leaves_the_plan_at_its_single_request_memory(self):
        A = poisson2d(32)
        rng = np.random.default_rng(0)
        session = SolverSession(A, n_gpus=2, s=4, m=8)
        session.solve(rng.standard_normal(A.n_rows))
        plan = session.plan
        single = plan.device_memory_bytes()
        session.solve_many(rng.standard_normal((3, A.n_rows)))
        assert plan.device_memory_bytes() == single
        session.solve(rng.standard_normal(A.n_rows))
        assert plan.device_memory_bytes() == single

    def test_derive_after_the_cache_is_gone_builds_on_a_private_cache(self, A):
        ctx = MultiGpuContext(3)
        cache = PlanCache()
        plan = cache.structural_plan(ctx, cache.host_plan(A, "natural"), m=12,
                                     mpk_lengths=(4,))
        del cache
        ctx.devices = [d for d in ctx.all_devices if d.name != "gpu1"]
        survivors = Partition(np.minimum(np.arange(A.n_rows) // 32, 1), 2)
        derived = plan.derive(survivors)
        assert derived.partition is survivors and sorted(derived.mpk) == [4]


class TestInvalidation:
    def _two_roster_plans(self, A, cache):
        ctx3 = MultiGpuContext(3)
        host = cache.host_plan(A, "natural")
        full = cache.structural_plan(ctx3, host, m=12)
        # A survivor-roster plan on the same context, gpu1 dropped.
        ctx3.devices = [d for d in ctx3.all_devices if d.name != "gpu1"]
        survivors = cache.structural_plan(ctx3, host, m=12)
        ctx3.devices = list(ctx3.all_devices)
        return full, survivors

    def test_invalidate_missing_key_is_noop(self, A):
        cache = PlanCache()
        full, _ = self._two_roster_plans(A, cache)
        assert cache.invalidate(full.key) is True
        assert cache.invalidate(full.key) is False
        assert cache.stats["invalidations"] == 1


def result_bytes(r):
    """Every output of a solve, as comparable bytes/values."""
    return (
        r.x.tobytes(), r.converged, r.n_restarts, r.n_iterations,
        r.history.rhs_norm, r.history.estimates,
        r.history.true_residuals, r.timers, r.counters, r.breakdowns,
        repr(r.details),
    )


class TestValueKeys:
    """Sessions sharing a cache must not share plans of different values."""

    def test_row_scaled_matrix_gets_its_own_plan(self):
        A = poisson2d(16)
        S = row_scaled(A)
        b = np.ones(A.n_rows)
        cfg = dict(solver="gmres", m=20, tol=1e-6)
        ctx, cache = MultiGpuContext(2), PlanCache()
        first = SolverSession(A, ctx=ctx, cache=cache, **cfg).solve(b)
        shared = SolverSession(S, ctx=ctx, cache=cache, **cfg).solve(b)
        private = SolverSession(S, n_gpus=2, **cfg).solve(b)
        assert result_bytes(shared) == result_bytes(private)
        assert not np.array_equal(shared.x, first.x)
        assert cache.stats["host_misses"] == 2

    @settings(max_examples=12, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(["poisson", "scaled", "other"]),
                  st.booleans(), st.integers(1, 2)),
        min_size=2, max_size=4,
    ))
    def test_shared_cache_equals_private_caches(self, sessions):
        matrices = {
            "poisson": poisson2d(8),
            "scaled": row_scaled(poisson2d(8)),
            "other": poisson2d(9),
        }
        cache = PlanCache()
        contexts = {g: MultiGpuContext(g) for g in (1, 2)}
        for name, balance, g in sessions:
            A = matrices[name]
            b = np.ones(A.n_rows)
            cfg = dict(solver="gmres", m=12, tol=1e-6, max_restarts=30,
                       balance=balance)
            shared = SolverSession(A, ctx=contexts[g], cache=cache, **cfg).solve(b)
            private = SolverSession(A, n_gpus=g, **cfg).solve(b)
            assert result_bytes(shared) == result_bytes(private)

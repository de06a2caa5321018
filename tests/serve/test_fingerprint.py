"""Plan-cache keys: pattern and value hashing and key composition."""

import numpy as np
import pytest

from repro.gpu.context import MultiGpuContext
from repro.matrices import poisson2d
from repro.serve import PlanCache
from repro.serve.fingerprint import pattern_hash, value_hash
from repro.sparse.csr import CsrMatrix


class TestPatternHash:
    def test_deterministic(self):
        A = poisson2d(6)
        assert pattern_hash(A) == pattern_hash(A)
        assert pattern_hash(A) == pattern_hash(A.copy())

    def test_value_changes_do_not_move_pattern(self):
        A = poisson2d(6)
        B = CsrMatrix(A.shape, A.indptr, A.indices, 2.0 * A.data)
        assert pattern_hash(A) == pattern_hash(B)
        assert value_hash(A) != value_hash(B)

    def test_pattern_changes_move_hash(self):
        A = poisson2d(6)
        B = poisson2d(7)
        assert pattern_hash(A) != pattern_hash(B)

    def test_shape_included(self):
        # Same (empty) index arrays, different shapes.
        a = CsrMatrix((2, 2), np.zeros(3, dtype=np.int64),
                      np.empty(0, dtype=np.int64), np.empty(0))
        b = CsrMatrix((3, 3), np.zeros(4, dtype=np.int64),
                      np.empty(0, dtype=np.int64), np.empty(0))
        assert pattern_hash(a) != pattern_hash(b)


def plan_key(A, ordering="natural", m=20, n_gpus=2, balance=True):
    cache = PlanCache()
    host = cache.host_plan(A, ordering, balance=balance)
    return cache.structural_plan(MultiGpuContext(n_gpus), host, m).key


class TestFingerprint:
    def test_roundtrip_fields(self):
        A = poisson2d(6)
        fp = plan_key(A, "kway", 20)
        assert fp.host.ordering == "kway"
        assert fp.m == 20
        assert fp.roster == ("gpu0", "gpu1")
        assert fp.host.balance is True
        assert fp.host.preconditioner is None

    def test_hashable_and_distinct_by_roster(self):
        A = poisson2d(6)
        f2 = plan_key(A, n_gpus=2)
        f3 = plan_key(A, n_gpus=3)
        assert f2 != f3
        assert len({f2, f3, f2}) == 2

    def test_host_key_drops_roster_and_m(self):
        A = poisson2d(6)
        f2 = plan_key(A, "rcm", 20, n_gpus=1)
        f3 = plan_key(A, "rcm", 30, n_gpus=2)
        assert f2 != f3
        assert f2.host == f3.host

    def test_mpk_kernels_stay_out_of_the_key(self):
        """The plan builds its MPK kernels on demand; the lengths a solve
        asks for (Newton shift pairs decide them without MPK) never move
        the key, so every solver configuration with one ``m`` shares it."""
        A = poisson2d(6)
        cache = PlanCache()
        ctx = MultiGpuContext(1)
        host = cache.host_plan(A)
        plan = cache.structural_plan(ctx, host, 20)
        key = plan.key
        plan.ensure_mpk((5, 1, 2))
        assert plan.key == key
        assert cache.structural_plan(ctx, host, 20) is plan

    def test_frozen(self):
        A = poisson2d(6)
        fp = plan_key(A, n_gpus=1)
        with pytest.raises(AttributeError):
            fp.m = 99
        with pytest.raises(AttributeError):
            fp.host.values = "0"

    def test_values_move_the_key(self):
        A = poisson2d(6)
        B = CsrMatrix(A.shape, A.indptr, A.indices, 2.0 * A.data)
        fa, fb = plan_key(A), plan_key(B)
        assert fa.host.pattern == fb.host.pattern
        assert fa.host.values != fb.host.values
        assert fa != fb
        for balance in (True, False):
            assert plan_key(A, balance=balance) != plan_key(B, balance=balance)

"""Newton shifts are a host-plan artifact, built once per restart length.

:meth:`~repro.serve.plan.HostPlan.newton_shifts` runs a host Arnoldi from a
fixed start vector on the plan's operator.  These tests pin what follows
from that: one build per ``(host plan, m)`` however many sessions, solves
or repartitions read it; the usual serving invariants (warm == cold,
``solve_many`` == sequential, zero-rate fault plans bit-inert) on Newton
sessions; a build that leaves the simulated context untouched; and the
monomial fallback when Arnoldi cannot supply shifts.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.serve.plan as plan_module
from repro.core.degrade import DegradePolicy
from repro.faults import FaultEvent, FaultPlan
from repro.gpu.context import MultiGpuContext
from repro.matrices import convection_diffusion2d, poisson2d
from repro.mpk.shifts import monomial_shift_ops, newton_shift_ops
from repro.serve import PlanCache, SolverSession
from repro.sparse.csr import CsrMatrix

from .test_session import assert_identical

NEWTON = dict(solver="ca", s=4, m=12, basis="newton", tol=1e-8, max_restarts=20)


@pytest.fixture
def arnoldi_calls(monkeypatch):
    """Counts the host Arnoldi runs behind ``HostPlan.newton_shifts``."""
    calls = []
    original = plan_module.host_arnoldi

    def counting(matrix, m, **kwargs):
        calls.append(m)
        return original(matrix, m, **kwargs)

    monkeypatch.setattr(plan_module, "host_arnoldi", counting)
    return calls


def _rhs(A, seed=0):
    return np.random.default_rng(seed).standard_normal(A.n_rows)


class TestBuiltOncePerPlanAndM:
    def test_sessions_on_one_cache_share_the_shifts(self, arnoldi_calls):
        A = poisson2d(10)
        b = _rhs(A)
        cache = PlanCache()
        first = SolverSession(A, n_gpus=2, cache=cache, **NEWTON)
        second = SolverSession(A, n_gpus=3, cache=cache, **NEWTON)
        first.solve(b)
        first.solve(b)
        second.solve(b)
        assert arnoldi_calls == [12]
        assert first.plan.host is second.plan.host
        assert first.plan.host.newton_shifts(12) is second.plan.host.newton_shifts(12)
        ops = first.plan.host.newton_ops(12, 4)
        assert ops is second.plan.host.newton_ops(12, 4)
        assert ops == tuple(newton_shift_ops(first.plan.host.newton_shifts(12), 4))

    def test_a_different_m_builds_new_shifts(self, arnoldi_calls):
        A = poisson2d(10)
        cache = PlanCache()
        SolverSession(A, n_gpus=2, cache=cache, **NEWTON).solve(_rhs(A))
        other = dict(NEWTON, m=8)
        SolverSession(A, n_gpus=2, cache=cache, **other).solve(_rhs(A))
        assert arnoldi_calls == [12, 8]
        host = next(iter(cache.host_plans.values()))
        assert len(host.newton_shifts(12)) == 12
        assert len(host.newton_shifts(8)) == 8
        assert arnoldi_calls == [12, 8]

    def test_monomial_sessions_build_no_shifts(self, arnoldi_calls):
        A = poisson2d(10)
        SolverSession(A, n_gpus=2, **dict(NEWTON, basis="monomial")).solve(_rhs(A))
        assert arnoldi_calls == []

    def test_shifts_are_read_only(self):
        A = poisson2d(10)
        session = SolverSession(A, n_gpus=1, **NEWTON)
        shifts = session.plan.host.newton_shifts(12)
        with pytest.raises(ValueError):
            shifts[0] = 0.0

    def test_degraded_run_reuses_its_host_plans_shifts(self, arnoldi_calls):
        A = poisson2d(10)
        session = SolverSession(A, n_gpus=3, **NEWTON)
        session.arm_fault_plan(
            FaultPlan.scripted([FaultEvent("gpu1", "dropout", trigger=40)])
        )
        host = session.plan.host
        result = session.solve(_rhs(A), degrade=DegradePolicy())
        assert result.details["degradation"]["n_repartitions"] == 1
        assert result.converged
        plans = session.cache.plans.values()
        assert any(plan.partition.n_parts == 2 for plan in plans)
        assert all(plan.host is host for plan in plans)
        assert arnoldi_calls == [12]


class TestServingInvariantsOnNewtonSessions:
    @settings(max_examples=8, deadline=None)
    @given(
        n_gpus=st.integers(1, 3),
        s=st.integers(2, 5),
        seed=st.integers(0, 2**16),
    )
    def test_warm_equals_cold(self, n_gpus, s, seed):
        A = convection_diffusion2d(10)
        b = _rhs(A, seed)
        cfg = dict(NEWTON, n_gpus=n_gpus, s=s)
        session = SolverSession(A, **cfg)
        cold = session.solve(b)
        warm = session.solve(b)
        assert_identical(cold, warm)
        # A fresh session whose cache already holds the shifts.
        cache = PlanCache()
        SolverSession(A, cache=cache, **cfg).plan.host.newton_shifts(12)
        assert_identical(cold, SolverSession(A, cache=cache, **cfg).solve(b))

    @settings(max_examples=5, deadline=None)
    @given(n_gpus=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_solve_many_equals_sequential(self, n_gpus, seed):
        A = convection_diffusion2d(10)
        bs = np.random.default_rng(seed).standard_normal((3, A.n_rows))
        cfg = dict(NEWTON, n_gpus=n_gpus)
        batch = SolverSession(A, **cfg).solve_many(bs)
        reference = SolverSession(A, **cfg)
        for got, b in zip(batch, bs):
            want = reference.solve(b)
            assert got.x.tobytes() == want.x.tobytes()
            assert got.history.estimates == want.history.estimates
            assert got.history.true_residuals == want.history.true_residuals
            assert got.converged == want.converged
            assert got.n_iterations == want.n_iterations

    @pytest.mark.parametrize("n_gpus", [1, 3])
    def test_zero_rate_fault_plan_is_bit_inert(self, n_gpus):
        A = convection_diffusion2d(10)
        b = _rhs(A, 3)
        plain = SolverSession(A, n_gpus=n_gpus, **NEWTON).solve(b)
        ctx = MultiGpuContext(n_gpus, fault_plan=FaultPlan(seed=9, rate=0.0))
        armed = SolverSession(A, ctx=ctx, **NEWTON).solve(b)
        assert_identical(plain, armed)
        assert armed.details == plain.details


class TestBuildLeavesTheContextAlone:
    def test_no_trace_event_clock_charge_or_fault_draw(self):
        A = poisson2d(10)
        ctx = MultiGpuContext(
            2, fault_plan=FaultPlan(seed=1, rate=0.5, kinds=("corrupt", "poison", "stall"))
        )
        session = SolverSession(A, ctx=ctx, **NEWTON)
        plan = session.plan
        # Give the context a timeline and some fault draws first.
        plan.dmat.spmv(plan.V, 0, plan.V, 1)
        events = list(ctx.trace.events)
        draws = dict(ctx.faults._counts)
        now = ctx.current_time()
        shifts = plan.host.newton_shifts(12)
        assert len(shifts) == 12
        assert ctx.trace.events == events
        assert dict(ctx.faults._counts) == draws
        assert ctx.current_time() == now


def _diagonal(values) -> CsrMatrix:
    n = len(values)
    return CsrMatrix((n, n), np.arange(n + 1), np.arange(n), values)


class TestMonomialFallback:
    def test_single_row_system_gets_no_shifts(self):
        A = _diagonal([4.0])
        session = SolverSession(A, n_gpus=1, solver="ca", s=1, m=1, basis="newton")
        assert session.plan.host.newton_shifts(1).size == 0
        result = session.solve(np.array([2.0]))
        assert result.converged
        assert result.x == pytest.approx([0.5])

    def test_invariant_subspace_falls_back_to_the_monomial_basis(self):
        # Three distinct eigenvalues: Arnoldi stops after three steps.
        A = _diagonal(np.tile([1.0, 2.0, 5.0], 10))
        b = _rhs(A, 1)
        cfg = dict(n_gpus=2, s=4, m=12, balance=False, tol=1e-10, max_restarts=5)
        newton = SolverSession(A, basis="newton", **cfg)
        assert newton.plan.host.newton_shifts(12).size == 0
        assert newton.plan.host.newton_ops(12, 4) == tuple(monomial_shift_ops(4))
        monomial = SolverSession(A, basis="monomial", **cfg)
        got, want = newton.solve(b), monomial.solve(b)
        assert got.converged
        assert_identical(got, want)

"""The restart-loop driver shared by GMRES, CA-GMRES and pipelined GMRES.

Every solver runs on :class:`repro.core.gmres.RestartedRun`, so the
boundary checks, the trivial zero right-hand side, the trace's cycle windows,
the deadline and the ``step()`` interface are tested once, for each run
class.  The runs are built directly over a session's structural plan.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ca_gmres import CaGmresRun, ca_gmres
from repro.core.degrade import DegradePolicy
from repro.core.gmres import GmresRun, gmres
from repro.core.pipelined import PipelinedRun, pipelined_gmres
from repro.faults import FaultEvent, FaultPlan
from repro.gpu.context import MultiGpuContext
from repro.gpu.multinode import MultiNodeContext
from repro.matrices.stencil import poisson2d
from repro.serve.session import SolverSession
from repro.sparse.csr import csr_from_dense

#: name -> (run class, solver function, session solver, configuration).
SOLVERS = {
    "gmres": (GmresRun, gmres, "gmres", {"m": 8}),
    "ca_gmres": (CaGmresRun, ca_gmres, "ca", {"s": 4, "m": 8}),
    "pipelined_gmres": (PipelinedRun, pipelined_gmres, "pipelined", {"m": 8}),
}


def make_run(solver, A, b, n_gpus=1, **overrides):
    """A run over the plan of a session with the solver's configuration."""
    run_cls, _, session_solver, kw = solver
    kw = {**kw, **overrides}
    plan = SolverSession(A, solver=session_solver, n_gpus=n_gpus, **kw).plan
    kw.pop("m")
    return run_cls(b, plan, **kw)


@pytest.fixture(params=list(SOLVERS))
def solver(request):
    return SOLVERS[request.param]


@pytest.fixture
def problem():
    A = poisson2d(10)
    b = np.random.default_rng(3).standard_normal(A.n_rows)
    return A, b


def test_rectangular_rejected(solver):
    _, solve, _, kw = solver
    with pytest.raises(ValueError, match="square"):
        solve(csr_from_dense(np.ones((3, 4))), np.ones(3), **kw)


def test_wrong_b_shape(solver, problem):
    A, _ = problem
    with pytest.raises(ValueError, match="b must have shape"):
        make_run(solver, A, np.ones(A.n_rows + 1))


def test_zero_restart_length_rejected(solver, problem):
    A, b = problem
    with pytest.raises(ValueError):
        make_run(solver, A, b, m=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_b(solver, problem, bad):
    A, b = problem
    b = b.copy()
    b[5] = bad
    with pytest.raises(ValueError, match="non-finite"):
        make_run(solver, A, b)


@pytest.mark.parametrize("x0", [np.nan, np.inf, "short"])
def test_bad_x0(solver, problem, x0):
    A, b = problem
    x0 = np.ones(A.n_rows - 1) if x0 == "short" else np.full(A.n_rows, x0)
    with pytest.raises(ValueError, match="x0 must be a finite vector"):
        make_run(solver, A, b, x0=x0)


def test_zero_rhs_converged_without_restarts(solver, problem):
    A, _ = problem
    run = make_run(solver, A, np.zeros(A.n_rows), n_gpus=2)
    assert run.finished and not run.step()
    r = run.result()
    assert r.converged and r.n_restarts == 0 and r.n_iterations == 0
    np.testing.assert_array_equal(r.x, np.zeros(A.n_rows))


def test_cycle_windows(solver, problem):
    _, solve, _, kw = solver
    A, b = problem
    ctx = MultiGpuContext(2)
    r = solve(A, b, ctx=ctx, **kw)
    windows = [(c["start"], c["end"]) for c in ctx.trace.fold().cycles]
    assert r.n_restarts > 1 and len(windows) == r.n_restarts
    times = [t for start, end in windows for t in (start, end)]
    assert times == sorted(times)
    assert windows[-1][1] == r.details["profile"]["total_time"]


def test_deadline_stops_at_restart_boundary(solver, problem):
    _, solve, _, kw = solver
    A, b = problem
    full = solve(A, b, n_gpus=2, **kw)
    deadline = full.details["profile"]["cycles"][1]["end"] * 0.99
    ctx = MultiGpuContext(2)
    r = solve(A, b, ctx=ctx, deadline=deadline, **kw)
    deg = r.details["degradation"]
    assert deg["deadline_exceeded"] and not r.converged
    # The cycle in flight at the deadline completes; no further one starts.
    windows = [(c["start"], c["end"]) for c in ctx.trace.fold().cycles]
    assert r.n_restarts == 2 == len(windows) == len(r.history.true_residuals) - 1
    assert windows[0][1] < deadline <= windows[1][1]


def test_step_to_completion_equals_function_call(solver, problem):
    _, solve, _, kw = solver
    A, b = problem
    run = make_run(solver, A, b, n_gpus=3)
    steps = 0
    while run.step():
        steps += 1
    stepped, called = run.result(), solve(A, b, n_gpus=3, **kw)
    assert run.result() is stepped
    # Every step but the converging one reports more work to do.
    assert called.converged and steps == stepped.n_restarts - 1
    np.testing.assert_array_equal(stepped.x, called.x)
    assert stepped.converged == called.converged
    assert stepped.n_iterations == called.n_iterations
    assert stepped.history == called.history
    assert stepped.timers == called.timers
    assert stepped.counters == called.counters


def assert_one_time_base(r):
    """The exclusive region times cover the timeline, whose end is the
    result's ``total_time``."""
    fold = r.fold
    assert abs(fold.end_time - sum(fold.timers.values())) <= 1e-12 * fold.end_time
    assert r.total_time == r.details["profile"]["total_time"] == fold.end_time


@settings(max_examples=60, deadline=None)
@given(
    solver=st.sampled_from(sorted(SOLVERS)),
    n_gpus=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    dropout=st.booleans(),
    degrade=st.booleans(),
    deadline=st.sampled_from([None, 2e-3]),
)
def test_regions_cover_the_timeline(solver, n_gpus, seed, dropout, degrade, deadline):
    _, solve, _, kw = SOLVERS[solver]
    A = poisson2d(12)
    b = np.random.default_rng(seed).standard_normal(A.n_rows)
    kinds = ("corrupt", "poison", "stall") + (("dropout",) if dropout else ())
    ctx = MultiGpuContext(n_gpus, fault_plan=FaultPlan(seed=seed, rate=5e-3, kinds=kinds))
    with np.errstate(all="ignore"):
        r = solve(
            A, b, ctx=ctx, tol=1e-8, max_restarts=20, deadline=deadline,
            degrade=DegradePolicy() if degrade else None, **kw,
        )
    assert_one_time_base(r)


def _two_dropouts():
    """Two device losses, each absorbed by a repartition."""
    A = poisson2d(16)
    b = np.random.default_rng(7).standard_normal(A.n_rows)
    plan = FaultPlan.scripted(
        [FaultEvent("gpu1", "dropout", trigger=40), FaultEvent("gpu0", "dropout", trigger=90)]
    )
    r = ca_gmres(
        A, b, ctx=MultiGpuContext(3, fault_plan=plan), s=4, m=12,
        basis="monomial", degrade=DegradePolicy(),
    )
    assert r.details["degradation"]["n_repartitions"] == 2
    return [r]


def _two_nodes():
    A = poisson2d(12)
    b = np.random.default_rng(2).standard_normal(A.n_rows)
    plan = FaultPlan(seed=3, rate=5e-3, kinds=("corrupt", "stall", "dropout"))
    ctx = MultiNodeContext(2, 2, fault_plan=plan)
    return [ca_gmres(A, b, ctx=ctx, s=4, m=8, tol=1e-8, degrade=DegradePolicy())]


def _batch():
    A = poisson2d(12)
    bs = np.random.default_rng(4).standard_normal((3, A.n_rows))
    return SolverSession(A, n_gpus=3, s=4, m=8, tol=1e-8).solve_many(bs)


@pytest.mark.parametrize("case", [_two_dropouts, _two_nodes, _batch])
def test_regions_cover_the_timeline_of(case):
    for r in case():
        assert_one_time_base(r)

"""``solve_many`` runs its batch in lockstep on shared communication.

The restart cycles of a batch yield their MPK block requests and their
residual, normalization, BOrth, TSQR and update phases, and
:func:`~repro.core.gmres.run_lockstep` fulfils the requests that match
with one call: one fused :meth:`~repro.mpk.MatrixPowersKernel.run`, or one
phase whose reductions and broadcasts each send one message per device for
the whole batch.  Only the simulated timeline is shared: every solution,
history and fault report must equal a sequential ``solve``'s.
"""

from collections import Counter


import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.core.ca_gmres import _sub_blocks
from repro.core.gmres import BlockRequest, run_lockstep
from repro.dist.multivector import DistMultiVector
from repro.gpu.context import MultiGpuContext
from repro.gpu.trace import TraceRecorder
from repro.gpu.trace import REGION_LANE
from repro.matrices import convection_diffusion2d, g3_circuit, poisson2d
from repro.metrics import MetricsRegistry
from repro.mpk.matrix_powers import MatrixPowersKernel
from repro.mpk.shifts import ShiftOp, monomial_shift_ops
from repro.order.partition import block_row_partition
from repro.serve import SolverSession
from repro.sparse.csr import CsrMatrix

from .test_session import without_times


def overflowing_block(n: int) -> tuple[CsrMatrix, int]:
    """``diag(1e160 P, P)`` for a Poisson matrix ``P`` of ``n`` rows: an
    unbalanced monomial basis overflows on any right-hand side with a
    component in the first block, and never on one without."""
    P = poisson2d(int(round(np.sqrt(n))))
    block = sp.csr_matrix((P.data, P.indices, P.indptr), shape=P.shape)
    B = sp.block_diag([block * 1e160, block], format="csr")
    A = CsrMatrix(B.shape, B.indptr.astype(np.int64), B.indices.astype(np.int64), B.data)
    return A, P.n_rows


def assert_same_solve(got, want):
    assert got.x.tobytes() == want.x.tobytes()
    assert got.history.rhs_norm == want.history.rhs_norm
    assert got.history.estimates == want.history.estimates
    assert got.history.true_residuals == want.history.true_residuals
    assert got.converged == want.converged
    assert got.n_iterations == want.n_iterations
    assert got.n_restarts == want.n_restarts
    assert got.breakdowns == want.breakdowns
    assert got.details.get("s_history") == want.details.get("s_history")
    # repr: an error entry may be NaN (a panel that overflowed).
    assert repr(got.details.get("tsqr_errors")) == repr(want.details.get("tsqr_errors"))
    assert without_times(got.details.get("faults")) == without_times(
        want.details.get("faults")
    )


def messages_by_region(trace) -> Counter:
    """PCIe messages per ``(region, direction)``.  A region's span is
    recorded when it closes, after the transfers inside it; the CA-GMRES
    regions do not nest, and no transfer runs outside them."""
    counts, pending = Counter(), Counter()
    for event in trace.events:
        if event.kind in ("d2h", "h2d"):
            pending[event.kind] += 1
        elif event.lane == REGION_LANE:
            for kind, n in pending.items():
                counts[event.name, kind] += n
            pending.clear()
    assert not pending
    return counts


class TestLockstepEqualsSequential:
    @settings(max_examples=30, deadline=None)
    @given(
        n_gpus=st.integers(1, 3),
        k=st.integers(1, 4),
        s=st.integers(2, 5),
        extra=st.integers(0, 7),
        basis=st.sampled_from(["newton", "monomial"]),
        adaptive_s=st.booleans(),
        use_mpk=st.booleans(),
        borth_method=st.sampled_from(["cgs", "mgs"]),
        tsqr_method=st.sampled_from(["cholqr", "svqr", "caqr", "mgs", "cgs"]),
        reorth=st.integers(1, 2),
        collect_tsqr_errors=st.booleans(),
        overflow=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_batch_equals_sequential_solves(
        self, n_gpus, k, s, extra, basis, adaptive_s, use_mpk, borth_method,
        tsqr_method, reorth, collect_tsqr_errors, overflow, seed,
    ):
        rng = np.random.default_rng(seed)
        cfg = dict(
            n_gpus=n_gpus, s=s, m=s + extra, basis=basis, adaptive_s=adaptive_s,
            use_mpk=use_mpk, borth_method=borth_method, tsqr_method=tsqr_method,
            reorth=reorth, collect_tsqr_errors=collect_tsqr_errors, tol=1e-8,
            max_restarts=5,
        )
        if overflow:
            # One member overflows its basis and must abort alone.
            A, n = overflowing_block(36)
            cfg.update(basis="monomial", balance=False)
            bs = [np.concatenate([np.zeros(n), rng.standard_normal(n)]) for _ in range(k)]
            bad = int(rng.integers(k))
            bs[bad] = rng.standard_normal(2 * n)
        else:
            A = convection_diffusion2d(8)
            bs = [rng.standard_normal(A.n_rows) for _ in range(k)]
        with np.errstate(over="ignore", invalid="ignore"):
            batch = SolverSession(A, **cfg).solve_many(bs)
            wants = [SolverSession(A, **cfg).solve(b) for b in bs]
        for i, (got, want) in enumerate(zip(batch, wants)):
            assert_same_solve(got, want)
            if overflow:
                faults = got.details.get("faults")
                if i == bad:
                    assert faults["counts"]["unrecovered"] == 1
                    assert not got.converged
                elif tsqr_method != "caqr":
                    # CAQR's Householder Q fills the zero block, so there
                    # every member may overflow (as its sequential solve does).
                    assert faults is None

    def test_in_step_batch_shares_every_mpk_call(self):
        A = g3_circuit(nx=24)
        cfg = dict(n_gpus=3, ordering="kway", s=5, m=10, tol=1e-12, max_restarts=2)
        bs = np.random.default_rng(5).standard_normal((3, A.n_rows))
        batch = SolverSession(A, **cfg).solve_many(bs)
        single = SolverSession(A, **cfg).solve(bs[0])
        profile, alone = batch[0].details["profile"], single.details["profile"]
        # 2 restarts x 2 blocks, once for the whole batch.
        assert profile["regions"]["mpk"]["count"] == alone["regions"]["mpk"]["count"] == 4
        assert profile["bus"]["messages"] < 3 * alone["bus"]["messages"]
        assert batch[0].counters["kernel_launches"] < 3 * single.counters["kernel_launches"]
        assert batch[0].total_time < 3 * single.total_time

    @pytest.mark.parametrize("n_gpus", [1, 2, 3])
    def test_one_runs_breakdown_stays_its_own(self, n_gpus):
        """A batch in which exactly one run's CholQR breaks down: that run
        alone falls back to CAQR; the others keep the fused R broadcast."""
        n = 48
        A = CsrMatrix(
            (n, n), np.arange(n + 1), np.arange(n), np.linspace(1.0, 2.0, n)
        )
        rng = np.random.default_rng(0)
        bs = [rng.standard_normal(n) for _ in range(3)]
        # Two eigenvector components and noise: a nearly two-dimensional
        # Krylov space, whose monomial panel the Gram matrix cannot factor.
        bs[1] = np.eye(n)[0] + np.eye(n)[-1] + 1e-10 * rng.standard_normal(n)
        cfg = dict(
            n_gpus=n_gpus, s=4, m=8, basis="monomial", balance=False, tol=1e-8,
            max_restarts=4,
        )
        batch = SolverSession(A, **cfg).solve_many(bs)
        wants = [SolverSession(A, **cfg).solve(b) for b in bs]
        assert [r.breakdowns for r in wants] == [0, 1, 0]
        for got, want in zip(batch, wants):
            assert_same_solve(got, want)

    def test_in_step_batch_sends_a_single_solves_messages(self):
        """Every phase of an in-step batch of 3 (the BOrth and TSQR
        reductions and broadcasts included) sends as many d2h and h2d
        messages as one solve does."""
        A = g3_circuit(nx=24)
        cfg = dict(n_gpus=3, ordering="kway", s=5, m=10, tol=1e-12, max_restarts=2)
        bs = np.random.default_rng(5).standard_normal((3, A.n_rows))
        batch_session, single_session = SolverSession(A, **cfg), SolverSession(A, **cfg)
        batch_session.solve_many(bs)
        single_session.solve(bs[0])
        batch = messages_by_region(batch_session.ctx.trace)
        single = messages_by_region(single_session.ctx.trace)
        for region in ("borth", "tsqr"):
            assert batch[region, "d2h"] == single[region, "d2h"] > 0
            assert batch[region, "h2d"] == single[region, "h2d"] > 0
        assert batch == single

    def test_depth_one_blocks_fuse_across_the_batch(self):
        """Without MPK a block is a chain of depth-1 requests (depth 2 per
        complex shift pair), and a batch in step shares every one."""
        A = convection_diffusion2d(12, wind=(20.0, 10.0))
        session = SolverSession(
            A, n_gpus=2, s=6, m=12, tol=1e-12, max_restarts=2, use_mpk=False
        )
        bs = list(np.random.default_rng(5).standard_normal((3, A.n_rows)))
        results, sizes = session._serve(bs, {})
        assert sorted(session.plan.mpk) == [1, 2]
        assert sizes and set(sizes) == {3}
        calls_per_block = len(_sub_blocks(session.plan.host.newton_ops(12, 6), 1))
        assert len(sizes) == results[0].n_restarts * 2 * calls_per_block

    def test_each_slot_has_its_own_basis(self):
        A = poisson2d(8)
        session = SolverSession(A, n_gpus=2, s=4, m=8, max_restarts=2)
        plan = session.plan
        bases = [plan.basis(i) for i in range(3)]
        assert bases[0] is plan.V
        assert len({id(V) for V in bases}) == 3
        session.solve_many(np.ones((3, A.n_rows)))
        # The batch frees the bases of slots 1 and up; slot 0 is the plan's.
        assert plan.basis(0) is plan.V
        assert all(plan.basis(i) is not bases[i] for i in (1, 2))


@pytest.mark.parametrize("n_gpus", [1, 2, 3])
@pytest.mark.parametrize(
    "solver, cfg",
    [("gmres", dict(m=8)), ("ca", dict(s=4, m=8)), ("pipelined", dict(m=8))],
)
def test_a_single_solve_is_a_batch_of_one(solver, cfg, n_gpus):
    A = poisson2d(10)
    b = np.random.default_rng(n_gpus).standard_normal(A.n_rows)
    single = SolverSession(A, solver=solver, n_gpus=n_gpus, **cfg).solve(b)
    [batched] = SolverSession(A, solver=solver, n_gpus=n_gpus, **cfg).solve_many([b])
    assert single.n_restarts > 1
    assert single.x.tobytes() == batched.x.tobytes()
    assert single.history == batched.history
    assert single.timers == batched.timers
    assert single.counters == batched.counters
    assert single.details["profile"] == batched.details["profile"]


class TestOneFoldPerRequest:
    @pytest.fixture
    def folds(self, monkeypatch):
        calls = []
        original = TraceRecorder.fold

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(TraceRecorder, "fold", counting)
        return calls

    def test_metered_solve_folds_its_trace_once(self, folds):
        A = poisson2d(8)
        session = SolverSession(A, n_gpus=2, s=4, m=8, metrics=MetricsRegistry())
        result = session.solve(np.ones(A.n_rows))
        assert len(folds) == 1
        assert result.fold.profile() == result.details["profile"]

    def test_metered_batch_folds_its_trace_once(self, folds):
        A = poisson2d(8)
        session = SolverSession(A, n_gpus=2, s=4, m=8, metrics=MetricsRegistry())
        results = session.solve_many(np.random.default_rng(1).standard_normal((3, A.n_rows)))
        assert len(folds) == 1
        assert all(r.fold is results[0].fold for r in results)


class FakeRun:
    """A run that asks for a scripted sequence of blocks (None: a restart
    boundary) and records what each request's fulfilment raised."""

    def __init__(self, ctx, request, script):
        self.ctx = ctx
        self.request = request
        self.script = list(script)
        self.outcomes = []
        self.finished = False

    def _resume(self, error=None):
        self.outcomes.append(error)
        if not self.script:
            self.finished = True
            return None
        return self.script.pop(0)


class FakeKernel:
    def __init__(self, fail=None):
        self.calls = []
        self.fail = fail

    def run(self, Vs, j, ops):
        self.calls.append((j, len(Vs)))
        if self.fail is not None:
            raise self.fail


class TestRunLockstep:
    @pytest.fixture
    def ctx(self):
        return MultiGpuContext(2)

    def basis(self, ctx):
        return DistMultiVector(ctx, block_row_partition(8, 2), 9)

    def ask(self, ctx, kernel, j, ops=None):
        return BlockRequest(kernel, self.basis(ctx), j, tuple(ops or monomial_shift_ops(4)))

    def test_matching_requests_share_one_call(self, ctx):
        kernel = FakeKernel()
        runs = [
            FakeRun(ctx, i, [self.ask(ctx, kernel, 0), self.ask(ctx, kernel, 4), None])
            for i in range(3)
        ]
        assert run_lockstep(runs) == [3, 3]
        assert kernel.calls == [(0, 3), (4, 3)]
        assert all(run.finished for run in runs)

    def test_a_run_behind_catches_up(self, ctx):
        kernel = FakeKernel()
        ahead = FakeRun(ctx, 0, [self.ask(ctx, kernel, 4)])
        behind = FakeRun(ctx, 1, [None, self.ask(ctx, kernel, 0), self.ask(ctx, kernel, 4)])
        assert run_lockstep([ahead, behind]) == [1, 2]
        assert kernel.calls == [(0, 1), (4, 2)]

    def test_different_ops_or_kernels_do_not_share(self, ctx):
        one, other = FakeKernel(), FakeKernel()
        shifted = [ShiftOp("real", re=0.5)] * 4
        runs = [
            FakeRun(ctx, 0, [self.ask(ctx, one, 0)]),
            FakeRun(ctx, 1, [self.ask(ctx, one, 0, shifted)]),
            FakeRun(ctx, 2, [self.ask(ctx, other, 0)]),
        ]
        assert run_lockstep(runs) == [1, 1, 1]

    def test_a_non_finite_input_is_fulfilled_alone(self, ctx):
        kernel = FakeKernel()
        poisoned = self.ask(ctx, kernel, 0)
        poisoned.V.local[1].data[0, 0] = np.nan
        runs = [
            FakeRun(ctx, 0, [self.ask(ctx, kernel, 0)]),
            FakeRun(ctx, 1, [poisoned]),
            FakeRun(ctx, 2, [self.ask(ctx, kernel, 0)]),
        ]
        assert run_lockstep(runs) == [2, 1]

    def test_a_failed_call_is_raised_in_every_run_it_carried(self, ctx):
        error = RuntimeError("exchange failed")
        kernel = FakeKernel(fail=error)
        runs = [FakeRun(ctx, i, [self.ask(ctx, kernel, 0)]) for i in range(2)]
        run_lockstep(runs)
        assert [run.outcomes for run in runs] == [[None, error]] * 2

    def test_the_trace_is_tagged_with_the_first_member(self, ctx):
        tags = []

        class Tagging(FakeKernel):
            def run(self, Vs, j, ops):
                tags.append(ctx.trace.request)

        kernel = Tagging()
        runs = [
            FakeRun(ctx, 0, [self.ask(ctx, kernel, 4)]),
            FakeRun(ctx, 1, [self.ask(ctx, kernel, 0)]),
        ]
        run_lockstep(runs)
        assert tags == [1, 0]


def test_a_batch_of_one_runs_the_kernel():
    """A :class:`BlockRequest` carries what :meth:`MatrixPowersKernel.run`
    takes, so a batch of one is today's call."""
    A = poisson2d(6)
    ctx = MultiGpuContext(2)
    part = block_row_partition(A.n_rows, 2)
    kernel = MatrixPowersKernel(ctx, A, part, 3)
    V = DistMultiVector(ctx, part, 4)
    V.set_column_from_host(0, np.ones(A.n_rows))
    request = BlockRequest(kernel, V, 0, tuple(monomial_shift_ops(3)))
    assert run_lockstep([FakeRun(ctx, 0, [request])]) == [1]
    want = A.matvec(A.matvec(A.matvec(np.ones(A.n_rows))))
    got = np.concatenate([p.data[:, 3] for p in V.local])
    np.testing.assert_allclose(got, want)

"""Tests for the executable matrix powers kernel."""

import numpy as np
import pytest

from repro.dist.exchange import StagedExchange
from repro.dist.matrix import DistributedMatrix
from repro.dist.multivector import DistMultiVector
from repro.faults import FaultEvent, FaultPlan
from repro.gpu.context import MultiGpuContext
from repro.gpu.device import DeviceArray
from repro.matrices import cant, poisson2d, g3_circuit
from repro.matrices.random_sparse import random_sparse
from repro.mpk.matrix_powers import MatrixPowersKernel
from repro.mpk.shifts import ShiftOp
from repro.order import kway_partition
from repro.order.partition import block_row_partition
from repro.sparse.coo import CooMatrix
from repro.sparse.csr import csr_matvec


def run_mpk(A, n_gpus, s, v0, shift_ops=None, partition=None):
    ctx = MultiGpuContext(n_gpus)
    part = partition or block_row_partition(A.n_rows, n_gpus)
    mpk = MatrixPowersKernel(ctx, A, part, s)
    V = DistMultiVector(ctx, part, s + 1)
    V.set_column_from_host(0, v0)
    mpk.run(V, 0, shift_ops)
    return ctx, mpk, V


class TestMonomialCorrectness:
    @pytest.mark.parametrize("n_gpus", [1, 2, 3])
    @pytest.mark.parametrize("s", [1, 2, 5])
    def test_matches_repeated_spmv(self, n_gpus, s, rng):
        A = poisson2d(8)
        v0 = rng.standard_normal(A.n_rows)
        _, _, V = run_mpk(A, n_gpus, s, v0)
        ref = v0.copy()
        for k in range(1, s + 1):
            ref = A.matvec(ref)
            np.testing.assert_allclose(
                V.gather_column_to_host(k), ref, rtol=1e-13, atol=1e-13
            )

    def test_unsymmetric_matrix(self, rng):
        A = random_sparse(50, 4.0, seed=9)
        v0 = rng.standard_normal(50)
        _, _, V = run_mpk(A, 2, 4, v0)
        ref = v0.copy()
        for k in range(1, 5):
            ref = A.matvec(ref)
            np.testing.assert_allclose(
                V.gather_column_to_host(k), ref, rtol=1e-11, atol=1e-11
            )

    def test_kway_partition(self, rng):
        A = g3_circuit(nx=14, ny=14)
        part = kway_partition(A, 3)
        v0 = rng.standard_normal(A.n_rows)
        _, _, V = run_mpk(A, 3, 3, v0, partition=part)
        ref = v0.copy()
        for k in range(1, 4):
            ref = A.matvec(ref)
            np.testing.assert_allclose(
                V.gather_column_to_host(k), ref, rtol=1e-12, atol=1e-12
            )

    def test_repeated_invocations(self, rng):
        # MPK is called once per block within a restart loop; buffers must
        # not leak state between invocations.
        A = poisson2d(6)
        ctx = MultiGpuContext(2)
        part = block_row_partition(A.n_rows, 2)
        mpk = MatrixPowersKernel(ctx, A, part, 2)
        V = DistMultiVector(ctx, part, 5)
        v0 = rng.standard_normal(A.n_rows)
        V.set_column_from_host(0, v0)
        mpk.run(V, 0)
        mpk.run(V, 2)
        ref = v0.copy()
        for k in range(1, 5):
            ref = A.matvec(ref)
            np.testing.assert_allclose(
                V.gather_column_to_host(k), ref, rtol=1e-12, atol=1e-12
            )


ONE_ARITHMETIC_MATRICES = {
    "cant": lambda: cant(nx=12, ny=4, nz=4),
    "g3": lambda: g3_circuit(nx=20, ny=20),
    "poisson": lambda: poisson2d(12),
}


class TestOneArithmetic:
    """The MPK step, the distributed SpMV and the host matvec round alike.

    All three sum each row in storage order through one kernel, so ``k``
    MPK powers equal ``k`` chained distributed SpMVs and ``k`` chained host
    products byte for byte: a CA-GMRES basis differs from a GMRES one only
    through orthogonalization, never through the SpMV.
    """

    @pytest.mark.parametrize("name", sorted(ONE_ARITHMETIC_MATRICES))
    @pytest.mark.parametrize("n_gpus", [1, 2, 3])
    @pytest.mark.parametrize("partitioner", ["block", "kway"])
    def test_mpk_equals_chained_spmvs(self, name, n_gpus, partitioner):
        A = ONE_ARITHMETIC_MATRICES[name]()
        s = 4
        part = (
            kway_partition(A, n_gpus)
            if partitioner == "kway"
            else block_row_partition(A.n_rows, n_gpus)
        )
        v0 = np.random.default_rng(n_gpus).standard_normal(A.n_rows)
        ctx, _, V = run_mpk(A, n_gpus, s, v0, partition=part)
        W = DistMultiVector(ctx, part, s + 1)
        W.set_column_from_host(0, v0)
        dmat = DistributedMatrix(ctx, A, part)
        host = v0
        for k in range(1, s + 1):
            dmat.spmv(W, k - 1, W, k)
            host = A.matvec(host)
            mpk_col = V.gather_column_to_host(k).tobytes()
            assert mpk_col == W.gather_column_to_host(k).tobytes(), k
            assert mpk_col == host.tobytes(), k


class TestNewtonBasis:
    def test_real_shifts(self, rng):
        A = poisson2d(6)
        v0 = rng.standard_normal(A.n_rows)
        ops = [ShiftOp("real", re=1.5), ShiftOp("real", re=-0.5), ShiftOp("real", re=2.0)]
        _, _, V = run_mpk(A, 2, 3, v0, shift_ops=ops)
        ref = v0.copy()
        for op in ops:
            ref = A.matvec(ref) - op.re * ref
        np.testing.assert_allclose(
            V.gather_column_to_host(3), ref, rtol=1e-12, atol=1e-12
        )

    def test_complex_pair(self, rng):
        A = poisson2d(6)
        v0 = rng.standard_normal(A.n_rows)
        re, im = 1.2, 0.7
        ops = [
            ShiftOp("complex_first", re=re, im=im),
            ShiftOp("complex_second", re=re, im=im),
        ]
        _, _, V = run_mpk(A, 3, 2, v0, shift_ops=ops)
        v1 = A.matvec(v0) - re * v0
        v2 = A.matvec(v1) - re * v1 + im**2 * v0
        np.testing.assert_allclose(V.gather_column_to_host(1), v1, atol=1e-12)
        np.testing.assert_allclose(V.gather_column_to_host(2), v2, atol=1e-12)

    def test_complex_pair_spans_shifted_product(self, rng):
        # (A - re)^2 + im^2 == (A - theta)(A - conj(theta)) applied to v0.
        A = poisson2d(5)
        v0 = rng.standard_normal(A.n_rows)
        re, im = 0.9, 1.3
        ops = [
            ShiftOp("complex_first", re=re, im=im),
            ShiftOp("complex_second", re=re, im=im),
        ]
        _, _, V = run_mpk(A, 1, 2, v0, shift_ops=ops)
        dense = A.to_dense()
        theta = complex(re, im)
        M = (dense - theta * np.eye(dense.shape[0])) @ (
            dense - np.conj(theta) * np.eye(dense.shape[0])
        )
        np.testing.assert_allclose(
            V.gather_column_to_host(2), (M @ v0).real, atol=1e-11
        )

    def test_bad_pairing_rejected(self, rng):
        A = poisson2d(4)
        v0 = rng.standard_normal(A.n_rows)
        with pytest.raises(ValueError, match="complex_first"):
            run_mpk(A, 1, 2, v0, shift_ops=[
                ShiftOp("complex_first", re=1.0, im=1.0),
                ShiftOp("real", re=0.0),
            ])
        with pytest.raises(ValueError, match="dangling"):
            run_mpk(A, 1, 1, v0, shift_ops=[ShiftOp("complex_first", re=1.0, im=1.0)])


class TestCommunication:
    def test_single_exchange_phase(self):
        """MPK communicates once per invocation regardless of s."""
        A = poisson2d(8)
        for s in (1, 3, 6):
            ctx = MultiGpuContext(3)
            part = block_row_partition(A.n_rows, 3)
            mpk = MatrixPowersKernel(ctx, A, part, s)
            V = DistMultiVector(ctx, part, s + 1)
            V.set_column_from_host(0, np.ones(A.n_rows))
            ctx.reset_clocks()
            mpk.run(V, 0)
            # at most one d2h + one h2d per device, independent of s
            assert ctx.counters.d2h_messages <= 3
            assert ctx.counters.h2d_messages <= 3

    def test_boundary_grows_with_s(self):
        A = poisson2d(10)
        ctx = MultiGpuContext(2)
        part = block_row_partition(A.n_rows, 2)
        sizes = []
        for s in (1, 2, 4):
            mpk = MatrixPowersKernel(ctx, A, part, s)
            sizes.append(sum(mpk.boundary_sizes()))
        assert sizes[0] < sizes[1] < sizes[2]

    def test_extra_nnz_positive_for_multi_gpu(self):
        A = poisson2d(8)
        ctx = MultiGpuContext(2)
        part = block_row_partition(A.n_rows, 2)
        mpk = MatrixPowersKernel(ctx, A, part, 3)
        assert all(x >= 0 for x in mpk.extra_nnz())
        assert sum(mpk.extra_nnz()) > 0

    def test_errors(self):
        A = poisson2d(4)
        ctx = MultiGpuContext(1)
        part = block_row_partition(A.n_rows, 1)
        with pytest.raises(ValueError):
            MatrixPowersKernel(ctx, A, part, 0)
        mpk = MatrixPowersKernel(ctx, A, part, 2)
        V = DistMultiVector(ctx, part, 2)  # too few columns
        with pytest.raises(IndexError):
            mpk.run(V, 0)
        V3 = DistMultiVector(ctx, part, 3)
        with pytest.raises(ValueError, match="shift ops"):
            mpk.run(V3, 0, [ShiftOp("none")])


class TestClosureValidation:
    """The per-device remap must reject columns outside the extended set."""

    def _truncated_deps(self, A, part, s):
        """Real dependencies, with device 1's last boundary shell row
        dropped — a closure violation.  The dropped row is owned by
        device 0, so it sits in device 0's extended set: a lookup scratch
        left over from device 0 maps it to an in-range (but wrong) slot,
        which is exactly the masking the reset guards against."""
        from repro.mpk.dependency import MpkDependency, compute_dependencies

        deps = list(compute_dependencies(A, part, s))
        dep = deps[1]
        assert dep.deltas[0].size > 1
        cut = dep.deltas[0][:-1]
        deps[1] = MpkDependency(
            owned=dep.owned,
            deltas=(cut,) + dep.deltas[1:],
            ext_rows=np.concatenate([dep.owned, cut] + list(dep.deltas[1:])),
            s=s,
        )
        return deps

    def test_closure_violation_detected(self, monkeypatch):
        A = poisson2d(6)
        part = block_row_partition(A.n_rows, 2)
        bad = self._truncated_deps(A, part, 1)
        monkeypatch.setattr(
            "repro.mpk.matrix_powers.compute_dependencies",
            lambda *a, **k: bad,
        )
        ctx = MultiGpuContext(2)
        with pytest.raises(AssertionError, match="closure violated.*gpu1"):
            MatrixPowersKernel(ctx, A, part, 1)

    def test_valid_closure_accepted(self):
        A = poisson2d(6)
        ctx = MultiGpuContext(2)
        part = block_row_partition(A.n_rows, 2)
        MatrixPowersKernel(ctx, A, part, 3)  # must not raise


class TestCostAccounting:
    def test_halo_placement_copies_charged(self):
        """Every element entering the extended vector is a charged copy:
        one own-part copy plus one halo copy per device with a nonempty
        boundary.  The generated columns are stored by the step launches,
        so they add no copy."""
        A = poisson2d(8)
        s = 3
        ctx = MultiGpuContext(3)
        part = block_row_partition(A.n_rows, 3)
        mpk = MatrixPowersKernel(ctx, A, part, s)
        V = DistMultiVector(ctx, part, s + 1)
        V.set_column_from_host(0, np.ones(A.n_rows))
        ctx.reset_clocks()
        mpk.run(V, 0)
        halo_devices = sum(1 for b in mpk.boundary_sizes() if b > 0)
        senders = sum(1 for s_ in mpk.exchange.send_local if s_.size > 0)
        # One gather-compress copy per sender, then per device one own-part
        # copy and one halo-placement copy (halo devices only).
        expected = senders + 3 + halo_devices
        assert ctx.counters.kernel_counts["copy/cublas"] == expected
        assert halo_devices > 0  # the fix is actually exercised


class TestFusedBatch:
    """One call over ``k`` multivectors: one exchange, one step launch per
    step and device, and every column bit-identical to a call of its own."""

    @staticmethod
    def setup(n_gpus, s, k, rng):
        A = g3_circuit(nx=12)
        ctx = MultiGpuContext(n_gpus)
        part = kway_partition(A, n_gpus) if n_gpus > 1 else block_row_partition(A.n_rows, 1)
        mpk = MatrixPowersKernel(ctx, A, part, s)
        Vs = [DistMultiVector(ctx, part, 2 * s + 1) for _ in range(k)]
        for V in Vs:
            V.set_column_from_host(s, rng.standard_normal(A.n_rows))
        return ctx, mpk, Vs

    @pytest.mark.parametrize("n_gpus", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_columns_match_calls_of_their_own(self, n_gpus, k, rng):
        s = 4
        ops = [ShiftOp("real", re=0.5), ShiftOp("complex_first", re=0.1, im=0.7),
               ShiftOp("complex_second", re=0.1, im=0.7), ShiftOp("none")]
        seed = int(rng.integers(2**31))
        _, fused, Vs = self.setup(n_gpus, s, k, np.random.default_rng(seed))
        _, single, Ws = self.setup(n_gpus, s, k, np.random.default_rng(seed))
        fused.run(Vs, s, ops)
        for W in Ws:
            single.run(W, s, ops)
        for V, W in zip(Vs, Ws):
            for a, b in zip(V.local, W.local):
                assert a.data.tobytes() == b.data.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_one_exchange_and_one_spmm_launch_per_step(self, k, rng):
        s, n_gpus = 5, 3
        ctx, mpk, Vs = self.setup(n_gpus, s, k, rng)
        ctx.reset_clocks()
        mpk.run(Vs, s)
        counters = ctx.counters
        senders = sum(1 for send in mpk.exchange.send_local if send.size)
        receivers = sum(1 for b in mpk.boundary_sizes() if b)
        assert counters.d2h_messages == senders
        assert counters.h2d_messages == receivers
        for d, dev in enumerate(ctx.devices):
            launches = [e for e in ctx.trace.events
                        if e.lane == dev.name and e.name == "spmv_step/ellpack"]
            # One launch per step over all k columns, plus one per step whose
            # halo-independent rows ran while the halo was on the bus.
            depth = mpk.phase1_depths[d]
            assert 0 < depth <= s
            assert len(launches) == depth + len(mpk._rest(d, depth))
            assert s <= len(launches) <= s + depth
        # The gather copies, then one own-row and one halo copy per device.
        assert counters.kernel_counts["copy/cublas"] == senders + n_gpus + receivers

    def test_fused_call_is_cheaper_than_separate_calls(self, rng):
        s, k = 5, 3
        ctx, mpk, Vs = self.setup(3, s, k, rng)
        ctx.reset_clocks()
        mpk.run(Vs, s)
        fused = ctx.current_time()
        ctx.reset_clocks()
        for V in Vs:
            mpk.run(V, s)
        assert fused < ctx.current_time()

    def test_too_few_columns_in_any_multivector_rejected(self, rng):
        ctx, mpk, Vs = self.setup(2, 4, 2, rng)
        short = DistMultiVector(ctx, Vs[0].partition, 5)
        with pytest.raises(IndexError):
            mpk.run([Vs[0], short], 1)


STEP_SHIFTS = {
    "none": [ShiftOp("none")] * 4,
    "real": [ShiftOp("real", re=0.5), ShiftOp("real", re=-0.3),
             ShiftOp("real", re=1.1), ShiftOp("real", re=0.2)],
    "complex": [ShiftOp("complex_first", re=0.1, im=0.7),
                ShiftOp("complex_second", re=0.1, im=0.7),
                ShiftOp("complex_first", re=-0.4, im=0.3),
                ShiftOp("complex_second", re=-0.4, im=0.3)],
}


class TestFusedStep:
    """Each MPK step is one launch per device — prefix SpMV, Newton shift
    and basis store — with the arithmetic of the compiled CSR kernel
    followed by the numpy shift updates."""

    S = 4

    def setup(self, n_gpus, k, seed):
        A = g3_circuit(nx=12)
        ctx = MultiGpuContext(n_gpus)
        part = kway_partition(A, n_gpus) if n_gpus > 1 else block_row_partition(A.n_rows, 1)
        mpk = MatrixPowersKernel(ctx, A, part, self.S)
        rng = np.random.default_rng(seed)
        Vs = [DistMultiVector(ctx, part, 2 * self.S + 1) for _ in range(k)]
        starts = [rng.standard_normal(A.n_rows) for _ in range(k)]
        for V, v0 in zip(Vs, starts):
            V.set_column_from_host(self.S, v0)
        ctx.reset_clocks()
        return A, ctx, mpk, Vs, starts

    @staticmethod
    def reference(A, v0, ops):
        """The step recurrence on the host: ``csr_matvec``, then the shifts."""
        n = A.n_rows
        cols, prev, cur = [], None, v0
        for op in ops:
            nxt = np.empty(n)
            csr_matvec(A.indptr, A.indices, A.data, cur, nxt, n, n)
            if op.kind != "none":
                nxt -= op.re * cur
            if op.kind == "complex_second":
                nxt += (op.im**2) * prev
            cols.append(nxt)
            prev, cur = cur, nxt
        return cols

    @pytest.mark.parametrize("n_gpus", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("kind", sorted(STEP_SHIFTS))
    def test_bit_identical_to_csr_matvec_and_numpy_shifts(self, n_gpus, k, kind):
        ops = STEP_SHIFTS[kind]
        A, _, mpk, Vs, starts = self.setup(n_gpus, k, seed=n_gpus * 10 + k)
        mpk.run(Vs if k > 1 else Vs[0], self.S, ops)
        for V, v0 in zip(Vs, starts):
            for step, want in enumerate(self.reference(A, v0, ops), start=1):
                got = V.gather_column_to_host(self.S + step)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_gpus", [1, 2, 3])
    @pytest.mark.parametrize("kind", sorted(STEP_SHIFTS))
    def test_one_step_launch_per_step_and_device(self, n_gpus, kind):
        _, ctx, mpk, Vs, _ = self.setup(n_gpus, 2, seed=1)
        mpk.run(Vs, self.S, STEP_SHIFTS[kind])
        counts = ctx.counters.kernel_counts
        # Without a halo (one GPU) a step is one launch; with one, a step
        # is split in two when its halo-independent rows ran early.
        launches = [
            mpk.phase1_depths[d] + len(mpk._rest(d, mpk.phase1_depths[d]))
            if mpk.boundary_sizes()[d] else self.S
            for d in range(n_gpus)
        ]
        assert counts["spmv_step/ellpack"] == sum(launches)
        for dev, n_launches in zip(ctx.devices, launches):
            steps = [e for e in ctx.trace.events
                     if e.lane == dev.name and e.name == "spmv_step/ellpack"]
            assert len(steps) == n_launches
            assert self.S <= n_launches <= 2 * self.S
        if n_gpus > 1:
            assert sum(launches) > self.S * n_gpus
        # The shifts and stores ride in the step: no BLAS-1 update and no
        # SpMV launch of their own.
        assert "axpy/cublas" not in counts
        assert not any(name.startswith("spmv/") for name in counts)

    @pytest.mark.parametrize("n_gpus", [1, 3])
    def test_step_seconds_prices_the_charged_launches(self, n_gpus):
        _, ctx, mpk, Vs, _ = self.setup(n_gpus, 1, seed=2)
        mpk.run(Vs[0], self.S)
        charged = []
        for dev in ctx.devices:
            total = 0.0
            for e in ctx.trace.events:
                if e.lane == dev.name and e.name == "spmv_step/ellpack":
                    total += e.duration
            charged.append(total)
        assert mpk.step_seconds() == charged

    @pytest.mark.parametrize("launch", ["own", "step", "halo", "rest"])
    def test_poison_lands_in_the_launch_output(self, launch, monkeypatch):
        """A poison armed on an MPK launch is delivered by that launch, into
        the slice it wrote, and the block turns non-finite."""
        A = poisson2d(8)
        part = block_row_partition(A.n_rows, 2)
        # gpu1's launches: the gather copy of its boundary, the own-row
        # copy, the halo-independent rows of the first ``depth`` steps
        # (while its halo is on the bus), the halo copy, then the rest.
        clean = MatrixPowersKernel(MultiGpuContext(2), A, part, self.S)
        V = DistMultiVector(clean.ctx, part, self.S + 1)
        V.set_column_from_host(0, np.ones(A.n_rows))
        clean.run(V, 0)
        depth = clean.phase1_depths[1]
        assert depth >= 1
        trigger = {"own": 1, "step": 2, "halo": 2 + depth, "rest": 3 + depth}[launch]
        plan = FaultPlan.scripted([FaultEvent("gpu1", "poison", trigger=trigger)])
        ctx = MultiGpuContext(2, fault_plan=plan)
        mpk = MatrixPowersKernel(ctx, A, part, self.S)
        V = DistMultiVector(ctx, part, self.S + 1)
        V.set_column_from_host(0, np.ones(A.n_rows))
        ctx.reset_clocks()
        deliveries = []
        apply = type(ctx.devices[1]).apply_pending_faults

        def spy(dev, *outputs):
            if dev._poison_pending is not None:
                written = outputs[0]
                if isinstance(written, DeviceArray):
                    written = written.data
                deliveries.append((dev.name, ctx.trace.events[-1].name, written.size))
            apply(dev, *outputs)

        monkeypatch.setattr(type(ctx.devices[1]), "apply_pending_faults", spy)
        with np.errstate(invalid="ignore", over="ignore"):
            mpk.run(V, 0)
        dep, ready = mpk.deps[1], mpk._ready[1]
        want = {
            "own": ("copy/cublas", dep.n_owned),
            "step": ("spmv_step/ellpack", ready[0]),
            "halo": ("copy/cublas", mpk.boundary_sizes()[1]),
            "rest": ("spmv_step/ellpack", dep.active_rows(1) - ready[0]),
        }[launch]
        assert deliveries == [("gpu1", *want)]
        assert not np.all(np.isfinite(V.local[1].data[:, 1:]))


def _directed_band(n=150):
    """A nonsymmetric pattern with long paths: a_{i,i}, a_{i,i+1}, a_{i,i-3}."""
    rows, cols, vals = [], [], []
    for i in range(n):
        for j, v in ((i, 2.0), (i + 1, -0.7), (i - 3, 0.4)):
            if 0 <= j < n:
                rows.append(i)
                cols.append(j)
                vals.append(v)
    return CooMatrix((n, n), np.array(rows), np.array(cols), np.array(vals)).to_csr()


class TestOverlap:
    """Each device launches the rows that do not read its halo while the
    halo is on the bus, then waits for it and computes the rest."""

    @pytest.mark.parametrize("case", ["g3-kway", "cant-block"])
    def test_first_step_launch_starts_before_the_halo_lands(self, case):
        if case == "g3-kway":
            A = g3_circuit(nx=24)
            part = kway_partition(A, 3)
        else:
            A = cant(nx=12, ny=4, nz=4)
            part = block_row_partition(A.n_rows, 3)
        ctx = MultiGpuContext(3)
        mpk = MatrixPowersKernel(ctx, A, part, 6)
        V = DistMultiVector(ctx, part, 7)
        V.set_column_from_host(0, np.ones(A.n_rows))
        ctx.reset_clocks()
        mpk.run(V, 0)
        for d, dev in enumerate(ctx.devices):
            [h2d] = [e for e in ctx.trace.events
                     if e.kind == "h2d" and e.args["peer"] == dev.name]
            first = next(e for e in ctx.trace.events
                         if e.lane == dev.name and e.name == "spmv_step/ellpack")
            assert first.start < h2d.start + h2d.duration
            assert mpk.phase1_depths[d] >= 1

    def test_one_gpu_schedule_equals_the_overlap_off(self, monkeypatch, rng):
        """Without a halo nothing moves: MPK makes the same launches at the
        same times as a run whose device waits for its (empty) halo first,
        one whole launch per step, and the SpMV one whole launch per vector
        right after its own-row copy."""
        A = g3_circuit(nx=12)
        part = block_row_partition(A.n_rows, 1)
        v0 = rng.standard_normal(A.n_rows)

        def schedule():
            ctx = MultiGpuContext(1)
            mpk = MatrixPowersKernel(ctx, A, part, 4)
            Vs = [DistMultiVector(ctx, part, 5) for _ in range(2)]
            for V in Vs:
                V.set_column_from_host(0, v0)
            ctx.reset_clocks()
            mpk.run(Vs, 0, STEP_SHIFTS["complex"])
            launches = [(e.name, e.start, e.duration) for e in ctx.trace.events
                        if e.kind == "kernel"]
            return launches, ctx.current_time(), [V.local[0].data.copy() for V in Vs]

        ctx = MultiGpuContext(1)
        dmat = DistributedMatrix(ctx, A, part)
        Vs = [DistMultiVector(ctx, part, 2) for _ in range(2)]
        ctx.reset_clocks()
        dmat.spmv(Vs, 0, Vs, 1)
        assert [e.name for e in ctx.trace.events if e.kind == "kernel"] == [
            "copy/cublas", "spmv/ellpack"] * 2
        whole = 2.0 * dmat.local_ell[0][0].data.size
        assert [e.args["flops"] for e in ctx.trace.events
                if e.name == "spmv/ellpack"] == [whole, whole]

        overlapped = schedule()
        exchange = StagedExchange.exchange

        def halo_landed_long_ago(self, ctx, parts):
            received, arrivals = exchange(self, ctx, parts)
            return received, [-np.inf if t is None else t for t in arrivals]

        monkeypatch.setattr(StagedExchange, "exchange", halo_landed_long_ago)
        waited = schedule()
        assert [name for name, _, _ in overlapped[0]] == [
            "copy/cublas", *["spmv_step/ellpack"] * 4]
        assert overlapped[:2] == waited[:2]
        for a, b in zip(overlapped[2], waited[2]):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", sorted(STEP_SHIFTS))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_deep_phase1_on_a_directed_pattern_is_bit_identical(self, kind, k):
        """Phase 1 runs past the three ping-pong buffers (depth > 3) on a
        nonsymmetric pattern, and every column still equals the host
        recurrence bit for bit."""
        A = _directed_band()
        part = block_row_partition(A.n_rows, 3)
        ops = STEP_SHIFTS[kind] * 2
        ctx = MultiGpuContext(3)
        mpk = MatrixPowersKernel(ctx, A, part, len(ops))
        rng = np.random.default_rng(k)
        Vs = [DistMultiVector(ctx, part, len(ops) + 1) for _ in range(k)]
        starts = [rng.standard_normal(A.n_rows) for _ in range(k)]
        for V, v0 in zip(Vs, starts):
            V.set_column_from_host(0, v0)
        mpk.run(Vs, 0, ops)
        assert max(mpk.phase1_depths) > 3
        for V, v0 in zip(Vs, starts):
            for step, want in enumerate(TestFusedStep.reference(A, v0, ops), start=1):
                assert V.gather_column_to_host(step).tobytes() == want.tobytes()

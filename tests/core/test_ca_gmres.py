"""Tests for the CA-GMRES driver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ca_gmres import _sub_blocks, ca_gmres
from repro.core.gmres import gmres
from repro.matrices import cant, convection_diffusion2d, poisson2d
from repro.mpk.shifts import ShiftOp
from repro.orth.errors import CholeskyBreakdown
from repro.serve import SolverSession
from repro.sparse.csr import csr_from_dense


def residual(A, b, x):
    return np.linalg.norm(b - A.matvec(x)) / np.linalg.norm(b)


class TestCaGmresConvergence:
    @pytest.mark.parametrize("n_gpus", [1, 2, 3])
    def test_poisson_newton_cholqr(self, n_gpus):
        A = poisson2d(16)
        b = np.ones(A.n_rows)
        r = ca_gmres(A, b, n_gpus=n_gpus, s=10, m=30, tol=1e-6)
        assert r.converged
        assert residual(A, b, r.x) < 1e-5

    @pytest.mark.parametrize("tsqr_method", ["mgs", "cgs", "cholqr", "svqr", "caqr"])
    def test_all_tsqr_methods(self, tsqr_method):
        A = convection_diffusion2d(14)
        b = np.ones(A.n_rows)
        r = ca_gmres(A, b, s=8, m=16, tol=1e-6, tsqr_method=tsqr_method)
        assert r.converged, tsqr_method
        assert residual(A, b, r.x) < 1e-5

    @pytest.mark.parametrize("borth_method", ["cgs", "mgs"])
    def test_borth_methods(self, borth_method):
        A = poisson2d(12)
        b = np.ones(A.n_rows)
        r = ca_gmres(A, b, s=6, m=18, tol=1e-6, borth_method=borth_method)
        assert r.converged

    def test_monomial_basis_small_s(self):
        """Monomial is usable for small s (the instability is in large s)."""
        A = poisson2d(12)
        b = np.ones(A.n_rows)
        r = ca_gmres(A, b, s=4, m=16, tol=1e-6, basis="monomial")
        assert r.converged

    def test_newton_tracks_gmres_iteration_counts(self):
        """CA-GMRES spans the same Krylov spaces: iteration counts match
        standard GMRES closely on a well-conditioned problem."""
        A = convection_diffusion2d(16)
        b = np.ones(A.n_rows)
        ref = gmres(A, b, m=24, tol=1e-8)
        ca = ca_gmres(A, b, s=8, m=24, tol=1e-8, basis="newton")
        assert ca.converged
        assert abs(ca.n_iterations - ref.n_iterations) <= 24  # within one cycle

    def test_s_equals_m(self):
        A = poisson2d(12)
        b = np.ones(A.n_rows)
        r = ca_gmres(A, b, s=16, m=16, tol=1e-6)
        assert r.converged

    def test_s_1(self):
        """s = 1: CA-GMRES degenerates to vector-at-a-time (slow but valid)."""
        A = poisson2d(10)
        b = np.ones(A.n_rows)
        r = ca_gmres(A, b, s=1, m=12, tol=1e-6)
        assert r.converged

    def test_partial_final_block(self):
        """m not divisible by s: the last block is shorter (paper: (20,30))."""
        A = poisson2d(14)
        b = np.ones(A.n_rows)
        r = ca_gmres(A, b, s=8, m=20, tol=1e-6)  # blocks of 8, 8, 4
        assert r.converged

    def test_without_mpk_same_numerics(self):
        """use_mpk=False must give the same convergence path (same math)."""
        A = poisson2d(12)
        b = np.ones(A.n_rows)
        r_mpk = ca_gmres(A, b, s=6, m=18, tol=1e-6, use_mpk=True)
        r_spmv = ca_gmres(A, b, s=6, m=18, tol=1e-6, use_mpk=False)
        assert r_mpk.converged and r_spmv.converged
        assert r_mpk.n_iterations == r_spmv.n_iterations
        np.testing.assert_allclose(r_mpk.x, r_spmv.x, atol=1e-8)

    def test_without_mpk_complex_shifts(self):
        """Complex Ritz shifts: use_mpk=False chains depth-1 MPK calls and
        one depth-2 call per conjugate pair, with use_mpk=True's
        convergence."""
        A = convection_diffusion2d(12, wind=(20.0, 10.0))
        b = np.ones(A.n_rows)
        results, lengths = {}, {}
        for use_mpk in (True, False):
            session = SolverSession(
                A, n_gpus=2, s=6, m=18, tol=1e-6, use_mpk=use_mpk
            )
            results[use_mpk] = session.solve(b)
            lengths[use_mpk] = sorted(session.plan.mpk)
        kinds = {op.kind for op in session.plan.host.newton_ops(18, 6)}
        assert "complex_first" in kinds
        assert lengths == {True: [6], False: [1, 2]}
        r_mpk, r_spmv = results[True], results[False]
        assert r_mpk.converged and r_spmv.converged
        assert r_mpk.n_iterations == r_spmv.n_iterations
        np.testing.assert_allclose(r_mpk.x, r_spmv.x, atol=1e-8)

    def test_kway_partition(self):
        A = poisson2d(14)
        b = np.ones(A.n_rows)
        r = ca_gmres(A, b, n_gpus=3, ordering="kway", s=7, m=21, tol=1e-6)
        assert r.converged

    def test_x0(self, rng):
        A = poisson2d(10)
        x_true = rng.standard_normal(A.n_rows)
        b = A.matvec(x_true)
        r = ca_gmres(A, b, s=5, m=15, tol=1e-6, x0=x_true)
        assert r.converged
        assert r.n_iterations == 0


class TestBreakdownHandling:
    def make_hard_problem(self):
        """Monomial basis with large s on an SPD matrix with spread spectrum
        produces a numerically rank-deficient panel -> CholQR breaks."""
        A = poisson2d(16)
        b = np.ones(A.n_rows)
        return A, b

    def test_fallback_counts_breakdowns(self):
        A, b = self.make_hard_problem()
        r = ca_gmres(
            A, b, s=25, m=25, basis="monomial", tsqr_method="cholqr",
            tol=1e-8, max_restarts=40, on_breakdown="fallback",
        )
        # The monomial basis at s = 25 is numerically rank deficient:
        # CholQR must have broken down at least once, and the CAQR
        # fallback must keep the solver alive.
        assert r.breakdowns > 0

    def test_raise_mode(self):
        A, b = self.make_hard_problem()
        with pytest.raises(CholeskyBreakdown):
            ca_gmres(
                A, b, s=25, m=25, basis="monomial", tsqr_method="cholqr",
                tol=1e-8, max_restarts=5, on_breakdown="raise",
            )

    @pytest.mark.parametrize("tsqr_method", ["cholqr", "caqr", "svqr"])
    def test_lucky_breakdown_converges(self, tsqr_method):
        """b = e_0 + e_1 spans a two-dimensional invariant Krylov space of
        diag(1..64), so a block's R gets an exactly zero diagonal: the
        cycle ends at that column and solves the least-squares problem on
        the prefix, as GMRES does, instead of dividing by it."""
        A = csr_from_dense(np.diag(np.arange(1.0, 65.0)))
        b = np.zeros(64)
        b[:2] = 1.0
        tol = 1e-8
        r = ca_gmres(
            A, b, n_gpus=1, s=4, m=8, basis="monomial", balance=False,
            tsqr_method=tsqr_method, tol=tol,
        )
        assert r.converged
        assert residual(A, b, r.x) <= tol

    def test_reorth_improves_cgs_stability(self):
        """The paper's '2x CGS': reorthogonalization keeps CGS usable."""
        A = poisson2d(14)
        b = np.ones(A.n_rows)
        r2 = ca_gmres(
            A, b, s=14, m=28, basis="monomial", tsqr_method="cgs",
            reorth=2, tol=1e-6, max_restarts=60,
        )
        assert r2.converged


class TestBookkeeping:
    def test_timers_have_ca_phases(self):
        A = poisson2d(12)
        r = ca_gmres(A, np.ones(A.n_rows), s=6, m=12, tol=1e-6)
        for key in ("mpk", "borth", "tsqr", "update"):
            assert r.timers.get(key, 0.0) > 0.0, key
        assert "lsq" in r.timers  # may be ~0: host work overlaps devices

    def test_spmv_timer_when_mpk_disabled(self):
        """Without MPK each block step is a depth-1 MPK call (one fused
        SpMV + shift launch); the spmv region keeps the cycle residuals."""
        A = poisson2d(12)
        session = SolverSession(A, s=6, m=12, tol=1e-6, use_mpk=False)
        r = session.solve(np.ones(A.n_rows))
        assert sorted(session.plan.mpk) == [1]
        assert r.timers["mpk"] > 0.0 and r.timers["spmv"] > 0.0
        kernels = r.counters["kernel_counts"]
        assert kernels["spmv_step/ellpack"] == r.n_iterations
        assert kernels["spmv/ellpack"] == r.n_restarts
        assert r.details["profile"]["regions"]["mpk"]["count"] == r.n_iterations

    def test_collect_tsqr_errors(self):
        A = poisson2d(12)
        r = ca_gmres(
            A, np.ones(A.n_rows), s=6, m=12, tol=1e-8,
            collect_tsqr_errors=True, max_restarts=3,
        )
        errs = r.details["tsqr_errors"]
        assert len(errs) > 0
        for e in errs:
            assert e["orthogonality"] < 1e-8
            assert e["factorization"] < 1e-10
            assert "elementwise" in e

    def test_history_true_residuals_decrease(self):
        A = poisson2d(14)
        r = ca_gmres(A, np.ones(A.n_rows), s=7, m=14, tol=1e-8, max_restarts=30)
        rels = r.history.relative()
        assert rels[-1] < 1e-8
        assert rels[0] >= rels[-1]

    @pytest.mark.parametrize("n_gpus", [1, 3])
    def test_newton_runs_only_ca_cycles(self, n_gpus):
        """No GMRES seeding cycle: no ``orth`` region, no ``eig`` charge."""
        A = convection_diffusion2d(12)
        r = ca_gmres(A, np.ones(A.n_rows), n_gpus=n_gpus, s=4, m=12, tol=1e-8)
        profile = r.details["profile"]
        assert r.converged
        assert "orth" not in profile["regions"]
        assert not [k for k in profile["kernels"] if k.startswith("eig/")]
        assert len(profile["cycles"]) == r.n_restarts
        assert all(c["regions"].get("mpk", 0.0) > 0.0 for c in profile["cycles"])

    def test_no_unattributed_time_on_the_cant_restart_configuration(self):
        """Every charge of a clean Newton solve lies inside a region, so the
        region timers sum to the timeline's end."""
        A = cant(nx=64, ny=12, nz=12)
        b = np.random.default_rng(21).random(A.n_rows)
        r = ca_gmres(
            A, b, n_gpus=3, s=15, m=60, basis="newton", reorth=2,
            tol=1e-12, max_restarts=4,
        )
        assert r.n_restarts == 4 and r.breakdowns == 0
        assert r.total_time == r.details["profile"]["total_time"]
        assert sum(r.timers.values()) == pytest.approx(r.total_time, rel=1e-12, abs=0.0)


class TestValidation:
    def test_bad_s(self):
        A = poisson2d(6)
        with pytest.raises(ValueError, match="1 <= s <= m"):
            ca_gmres(A, np.ones(36), s=0, m=10)
        with pytest.raises(ValueError):
            ca_gmres(A, np.ones(36), s=11, m=10)

    def test_bad_basis(self):
        A = poisson2d(6)
        with pytest.raises(ValueError, match="basis"):
            ca_gmres(A, np.ones(36), s=2, m=4, basis="chebyshev")

    def test_bad_breakdown_mode(self):
        A = poisson2d(6)
        with pytest.raises(ValueError, match="on_breakdown"):
            ca_gmres(A, np.ones(36), s=2, m=4, on_breakdown="ignore")

    def test_m_exceeds_n(self):
        A = poisson2d(3)
        with pytest.raises(ValueError, match="exceeds problem size"):
            ca_gmres(A, np.ones(9), s=2, m=10)

    def test_zero_rhs(self):
        A = poisson2d(4)
        r = ca_gmres(A, np.zeros(16), s=2, m=4)
        assert r.converged


def shift_op_blocks():
    """Valid block shift sequences: unshifted, real and paired complex steps."""
    step = st.sampled_from([
        (ShiftOp("none"),),
        (ShiftOp("real", re=0.5),),
        (ShiftOp("complex_first", re=0.1, im=0.7),
         ShiftOp("complex_second", re=0.1, im=0.7)),
    ])
    return st.lists(step, min_size=1, max_size=10).map(
        lambda steps: tuple(op for ops in steps for op in ops)
    )


class TestSubBlocks:
    @settings(max_examples=200, deadline=None)
    @given(ops=shift_op_blocks(), depth=st.integers(1, 8))
    def test_runs_tile_the_block_and_never_split_a_pair(self, ops, depth):
        runs = _sub_blocks(ops, depth)
        assert tuple(op for run in runs for op in run) == ops
        for run in runs:
            assert run and run[0].kind != "complex_second"
            assert len(run) <= depth or (
                len(run) == depth + 1 and run[-2].kind == "complex_first"
            )
        if depth >= len(ops):
            assert runs == [ops]

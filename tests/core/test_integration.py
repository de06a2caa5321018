"""Cross-module integration tests: the paper's qualitative claims.

Each test exercises one end-to-end claim from the paper's evaluation with
the full stack (matrix generator -> partitioner -> MPK -> orth -> solver ->
performance model).
"""

import numpy as np

from repro.core.ca_gmres import ca_gmres
from repro.core.gmres import gmres
from repro.matrices import cant, convection_diffusion2d, g3_circuit, poisson2d


def residual(A, b, x):
    return np.linalg.norm(b - A.matvec(x)) / np.linalg.norm(b)


class TestSolversAgree:
    """GMRES and CA-GMRES compute the same Krylov iterates."""

    def test_same_solution_well_conditioned(self):
        A = convection_diffusion2d(16)
        b = np.ones(A.n_rows)
        r_g = gmres(A, b, m=20, tol=1e-10, max_restarts=60)
        r_ca = ca_gmres(A, b, s=10, m=20, tol=1e-10, max_restarts=60)
        assert r_g.converged and r_ca.converged
        np.testing.assert_allclose(r_g.x, r_ca.x, atol=1e-7)

    def test_device_count_does_not_change_mathematics(self):
        A = poisson2d(14)
        b = np.ones(A.n_rows)
        results = [
            ca_gmres(A, b, n_gpus=g, s=7, m=14, tol=1e-8) for g in (1, 2, 3)
        ]
        for r in results:
            assert r.converged
        assert len({r.n_iterations for r in results}) == 1
        np.testing.assert_allclose(results[0].x, results[2].x, atol=1e-9)


class TestCommunicationAvoidance:
    """Section VI: CA-GMRES communicates far less than GMRES per cycle."""

    def test_fewer_messages_per_cycle(self):
        A = poisson2d(16)
        b = np.ones(A.n_rows)
        r_g = gmres(A, b, n_gpus=3, m=20, tol=1e-14, max_restarts=1)
        r_ca = ca_gmres(
            A, b, n_gpus=3, s=10, m=20, tol=1e-14, max_restarts=2,
            basis="monomial",
        )
        msg_g = r_g.counters["d2h_messages"] + r_g.counters["h2d_messages"]
        msg_ca = r_ca.counters["d2h_messages"] + r_ca.counters["h2d_messages"]
        cycles_g = max(r_g.n_restarts, 1)
        cycles_ca = max(r_ca.n_restarts, 1)
        assert msg_ca / cycles_ca < 0.5 * (msg_g / cycles_g)

    def test_orth_time_speedup_on_large_problem(self):
        """Fig. 14: BOrth+TSQR beats per-vector Orth by ~2-4x."""
        A = cant(nx=96, ny=16, nz=16)
        b = np.ones(A.n_rows)
        r_g = gmres(A, b, n_gpus=3, m=30, tol=1e-14, max_restarts=1)
        r_ca = ca_gmres(
            A, b, n_gpus=3, s=10, m=30, tol=1e-14, max_restarts=2,
            basis="monomial", tsqr_method="cholqr",
        )
        orth_g = r_g.timers["orth"] / max(r_g.n_restarts, 1)
        orth_ca = (
            r_ca.timers.get("borth", 0.0) + r_ca.timers.get("tsqr", 0.0)
        ) / max(r_ca.n_restarts, 1)
        assert orth_ca < orth_g / 1.5

    def test_ca_gmres_total_speedup(self):
        """The headline: CA-GMRES beats GMRES per restart loop."""
        A = cant(nx=96, ny=16, nz=16)
        b = np.ones(A.n_rows)
        r_g = gmres(A, b, n_gpus=3, m=30, tol=1e-14, max_restarts=1)
        r_ca = ca_gmres(
            A, b, n_gpus=3, s=10, m=30, tol=1e-14, max_restarts=2,
            basis="monomial",
        )
        assert r_ca.time_per_restart() < r_g.time_per_restart()

    def test_s1_ca_gmres_slower_than_gmres(self):
        """Fig. 14's first observation: CA-GMRES(1, m) is *slower* than
        GMRES because the block kernels degenerate."""
        A = poisson2d(24)
        b = np.ones(A.n_rows)
        r_g = gmres(A, b, n_gpus=2, m=20, tol=1e-14, max_restarts=1)
        r_ca = ca_gmres(
            A, b, n_gpus=2, s=1, m=20, tol=1e-14, max_restarts=2,
            basis="monomial",
        )
        assert r_ca.time_per_restart() > r_g.time_per_restart()


class TestNumericalStabilityStory:
    """Fig. 13 / Section VI-A inside the full solver."""

    def test_newton_basis_survives_larger_s_than_monomial(self):
        """With s = m = 30 the monomial basis condition number explodes;
        Newton + Leja keeps CholQR viable (fewer breakdowns)."""
        A = poisson2d(18)
        b = np.ones(A.n_rows)
        r_mono = ca_gmres(
            A, b, s=30, m=30, basis="monomial", tsqr_method="cholqr",
            tol=1e-8, max_restarts=25, on_breakdown="fallback",
        )
        r_newton = ca_gmres(
            A, b, s=30, m=30, basis="newton", tsqr_method="cholqr",
            tol=1e-8, max_restarts=25, on_breakdown="fallback",
        )
        assert r_newton.breakdowns <= r_mono.breakdowns
        assert r_newton.converged

    def test_tsqr_error_ordering_in_solver(self):
        """Orthogonality errors inside CA-GMRES: CAQR <= MGS <= CholQR."""
        A = g3_circuit(nx=32, ny=32)
        b = np.ones(A.n_rows)
        errs = {}
        for method in ("caqr", "mgs", "cholqr"):
            r = ca_gmres(
                A, b, s=10, m=20, tsqr_method=method, basis="newton",
                tol=1e-6, max_restarts=6, collect_tsqr_errors=True,
            )
            records = r.details["tsqr_errors"]
            errs[method] = max(e["orthogonality"] for e in records)
        assert errs["caqr"] <= errs["mgs"] * 10  # caqr at machine precision
        assert errs["caqr"] <= errs["cholqr"]

    def test_gram_condition_number_grows_with_s(self):
        """Fig. 12's kappa(B): the last Gram matrix of a cycle is worse for
        larger s (squared condition of an increasingly ill-conditioned
        basis)."""
        from repro.dist.multivector import DistMultiVector
        from repro.gpu.context import MultiGpuContext
        from repro.mpk.matrix_powers import MatrixPowersKernel
        from repro.order.partition import block_row_partition

        A = poisson2d(16)
        n = A.n_rows
        rng = np.random.default_rng(0)
        v0 = rng.standard_normal(n)
        conds = []
        for s in (4, 12):
            ctx = MultiGpuContext(1)
            part = block_row_partition(n, 1)
            mpk = MatrixPowersKernel(ctx, A, part, s)
            V = DistMultiVector(ctx, part, s + 1)
            V.set_column_from_host(0, v0 / np.linalg.norm(v0))
            mpk.run(V, 0)
            panel = V.local[0].data
            gram = panel.T @ panel
            conds.append(np.linalg.cond(gram))
        assert conds[1] > 1e3 * conds[0]

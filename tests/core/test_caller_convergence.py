"""``converged`` is decided on the residual of the system the caller passed.

The solvers iterate on a reordered, row/column-balanced and possibly
preconditioned system, but the one convergence test is the caller's
``||b - A x|| <= tol ||b||``, measured at every restart boundary.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.matrices.stencil import convection_diffusion2d, poisson2d
from repro.precond import JacobiPreconditioner
from repro.serve import SolverSession

from ..conftest import row_scaled

#: name -> SolverSession configuration.
SOLVERS = {
    "gmres": dict(solver="gmres", m=12),
    "pipelined": dict(solver="pipelined", m=12),
    "ca-newton": dict(solver="ca", s=4, m=12, basis="newton"),
    "ca-monomial": dict(solver="ca", s=4, m=12, basis="monomial"),
}


def caller_residual(A, b, x):
    return float(np.linalg.norm(b - A.matvec(x)) / np.linalg.norm(b))


@settings(max_examples=25, deadline=None)
@given(
    solver=st.sampled_from(sorted(SOLVERS)),
    matrix=st.sampled_from(["poisson", "convdiff"]),
    seed=st.integers(0, 3),
    scaled=st.booleans(),
    balance=st.booleans(),
    jacobi=st.booleans(),
    ordering=st.sampled_from(["natural", "rcm"]),
)
def test_converged_means_caller_residual_meets_tol(
    solver, matrix, seed, scaled, balance, jacobi, ordering
):
    A = poisson2d(10) if matrix == "poisson" else convection_diffusion2d(10)
    if scaled:
        A = row_scaled(A, seed)
    b = np.random.default_rng(seed).standard_normal(A.n_rows)
    tol = 1e-6
    r = SolverSession(
        A, n_gpus=2, ordering=ordering, tol=tol, max_restarts=30,
        balance=balance,
        preconditioner=JacobiPreconditioner(A) if jacobi else None,
        **SOLVERS[solver],
    ).solve(b)
    assert r.converged == (r.history.relative()[-1] <= tol)
    if r.converged:
        assert caller_residual(A, b, r.x) <= tol


def test_row_scaled_system_converges_on_the_callers_residual():
    """Balancing made the iterated system converge long before the caller's:
    both solvers used to stop at a caller residual of about 6e-4."""
    A = row_scaled(poisson2d(16))
    b = np.ones(A.n_rows)
    for cfg, restart_budget in (
        (dict(solver="gmres", m=20), 10),
        (dict(solver="ca", s=4, m=12), 20),
    ):
        r = SolverSession(A, n_gpus=2, tol=1e-6, **cfg).solve(b)
        assert r.converged
        assert caller_residual(A, b, r.x) <= 1e-6
        # Each cycle aims at the reduction the caller's residual still
        # needs, so a converged balanced system does not spin through
        # one-iteration cycles.
        assert r.n_restarts <= restart_budget


def test_initial_guess_meeting_tol_runs_no_cycle(rng):
    A = poisson2d(10)
    x_true = rng.standard_normal(A.n_rows)
    b = A.matvec(x_true)
    x0 = x_true + 1e-6 * rng.standard_normal(A.n_rows)
    r = SolverSession(A, solver="gmres", m=20, tol=1e-4).solve(b, x0=x0)
    assert r.converged and r.n_restarts == 0
    assert [i for i, _ in r.history.true_residuals] == [0]

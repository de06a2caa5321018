"""Solves replay a committed digest of every output, bit for bit.

Each case solves a small system and hashes the solution bytes, the
residual history, the region timers, the counters and ``details`` (the
trace profile and any fault and degradation reports).  The grid covers
GMRES, pipelined GMRES and CA-GMRES (monomial and Newton bases; the default,
``"auto"`` and ``"batched_sp"`` TSQR variants) on 1-3 GPUs, each without
faults and under a rate fault plan, plus a clean two-node run.  Everything
the simulated clock reports flows through the kernel cost model, so the
golden pins that model's answers across refactors of how it is evaluated.
Regenerate it only after an intentional change to a solver's outputs::

    PYTHONPATH=src python tests/perf/make_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.ca_gmres import ca_gmres
from repro.core.gmres import gmres
from repro.core.pipelined import pipelined_gmres
from repro.faults import FaultPlan
from repro.gpu.context import MultiGpuContext
from repro.gpu.multinode import MultiNodeContext
from repro.matrices.stencil import convection_diffusion2d

GOLDEN = Path(__file__).parent / "golden" / "solve_digests.json"

RATE_PLAN = dict(seed=5, rate=6e-3, kinds=("corrupt", "poison", "stall"))

#: name -> solver call taking the system and a context.
SOLVERS = {
    "gmres": lambda A, b, ctx: gmres(A, b, ctx=ctx, m=12, tol=1e-8, max_restarts=6),
    "pipelined": lambda A, b, ctx: pipelined_gmres(
        A, b, ctx=ctx, m=12, tol=1e-8, max_restarts=6
    ),
}
for _basis in ("monomial", "newton"):
    for _variant in (None, "auto", "batched_sp"):
        SOLVERS[f"ca-{_basis}-{_variant or 'default'}"] = (
            lambda A, b, ctx, basis=_basis, variant=_variant: ca_gmres(
                A, b, ctx=ctx, s=4, m=12, basis=basis, tsqr_variant=variant,
                tol=1e-8, max_restarts=6,
            )
        )


def _system():
    A = convection_diffusion2d(12)
    return A, np.random.default_rng(3).standard_normal(A.n_rows)


def _case(solver, n_gpus, faulted):
    def run():
        plan = FaultPlan(**RATE_PLAN) if faulted else None
        return SOLVERS[solver](*_system(), MultiGpuContext(n_gpus, fault_plan=plan))

    return run


#: name -> zero-argument callable returning a SolveResult.
CASES = {
    f"{solver}-{n_gpus}gpu-{'rate' if faulted else 'clean'}": _case(solver, n_gpus, faulted)
    for solver in SOLVERS
    for n_gpus in (1, 2, 3)
    for faulted in (False, True)
}
CASES["ca-newton-multinode-2x2"] = lambda: ca_gmres(
    *_system(), ctx=MultiNodeContext(2, 2), s=4, m=12, tol=1e-8, max_restarts=6
)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return {"dtype": str(obj.dtype), "shape": obj.shape, "data": obj.tolist()}
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _sha(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def digest(name: str) -> dict:
    """SHA-256 of each output of one case (key order and floats included)."""
    with np.errstate(invalid="ignore", over="ignore"):
        result = CASES[name]()
    history = result.history
    parts = {
        "x": (str(result.x.dtype), result.x.shape, result.x.tobytes().hex()),
        "history": (history.initial_residual, history.estimates, history.true_residuals),
        "timers": result.timers,
        "counters": result.counters,
        "details": result.details,
    }
    return {key: _sha(json.dumps(value, default=_jsonable)) for key, value in parts.items()}


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden(name):
    assert digest(name) == load_golden()[name]


def test_golden_covers_every_case():
    assert sorted(load_golden()) == sorted(CASES)

"""Solves replay a committed digest of every output, bit for bit.

Each case solves a small system and hashes the solution bytes, the
residual history, the region timers, the counters and ``details`` (the
trace profile and any fault and degradation reports).  The grid covers
GMRES, pipelined GMRES and CA-GMRES (monomial and Newton bases; the default,
``"auto"`` and ``"batched_sp"`` TSQR variants) on 1-3 GPUs, each without
faults and under a rate fault plan, plus Newton CA-GMRES without MPK
(depth-1 blocks) on 3 GPUs, clean and rate-faulted, k-way-partitioned GMRES,
CA-GMRES and pipelined runs on 3 GPUs, a clean two-node run, a scripted
``gpu1`` dropout absorbed by a degrade policy, and two
``SolverSession.solve_many`` batches of three right-hand sides, one of them
on an adaptive-``s`` monomial k-way plan whose solves need different restart
counts (one list of parts per batch, so the batch-wide timers and counters
are pinned).  Everything
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
from repro.core.degrade import DegradePolicy
from repro.core.gmres import gmres
from repro.core.pipelined import pipelined_gmres
from repro.faults import FaultEvent, FaultPlan
from repro.gpu.context import MultiGpuContext
from repro.gpu.multinode import MultiNodeContext
from repro.matrices.stencil import convection_diffusion2d
from repro.serve.session import SolverSession

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
for _faulted in (False, True):
    CASES[f"ca-newton-nompk-3gpu-{'rate' if _faulted else 'clean'}"] = (
        lambda faulted=_faulted: ca_gmres(
            *_system(),
            ctx=MultiGpuContext(3, fault_plan=FaultPlan(**RATE_PLAN) if faulted else None),
            s=4, m=12, use_mpk=False, tol=1e-8, max_restarts=6,
        )
    )
CASES["gmres-3gpu-kway"] = lambda: gmres(
    *_system(), n_gpus=3, ordering="kway", m=12, tol=1e-8, max_restarts=6,
)
CASES["ca-newton-3gpu-kway"] = lambda: ca_gmres(
    *_system(), n_gpus=3, ordering="kway", s=4, m=12, tol=1e-8,
    max_restarts=6,
)
CASES["pipelined-3gpu-kway"] = lambda: pipelined_gmres(
    *_system(), n_gpus=3, ordering="kway", m=12, tol=1e-8, max_restarts=6,
)
CASES["ca-newton-multinode-2x2"] = lambda: ca_gmres(
    *_system(), ctx=MultiNodeContext(2, 2), s=4, m=12, tol=1e-8, max_restarts=6
)
CASES["ca-monomial-3gpu-dropout-degrade"] = lambda: ca_gmres(
    *_system(),
    ctx=MultiGpuContext(
        3, fault_plan=FaultPlan.scripted([FaultEvent("gpu1", "dropout", trigger=40)])
    ),
    s=4, m=12, basis="monomial", tol=1e-8, max_restarts=6, degrade=DegradePolicy(),
)


def _batch():
    A, _ = _system()
    # The second right-hand side needs one more cycle than the others.
    session = SolverSession(
        A, ctx=MultiGpuContext(2), m=12, s=4, tol=1e-6, max_restarts=10
    )
    return session.solve_many(np.random.default_rng(4).standard_normal((3, A.n_rows)))


CASES["session-ca-newton-2gpu-batch3"] = _batch


def _adaptive_batch():
    A, _ = _system()
    # Restarts 6, 7 and 6; the CholQR breakdowns shrink the adaptive block
    # length, so the three solves leave their cycles at different blocks.
    session = SolverSession(
        A, ctx=MultiGpuContext(3), ordering="kway", m=12, s=12,
        basis="monomial", adaptive_s=True, tol=1e-8, max_restarts=10,
    )
    return session.solve_many(np.random.default_rng(3).standard_normal((3, A.n_rows)))


CASES["session-ca-monomial-adaptive-3gpu-kway-batch3"] = _adaptive_batch


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return {"dtype": str(obj.dtype), "shape": obj.shape, "data": obj.tolist()}
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _sha(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def _array(a: np.ndarray) -> tuple:
    return (str(a.dtype), a.shape, a.tobytes().hex())


def _parts(result) -> dict:
    """The outputs of one case's result, by name."""
    if isinstance(result, list):
        parts = [_parts(r) for r in result]
        return {key: [p[key] for p in parts] for key in parts[0]}
    history = result.history
    return {
        "x": _array(result.x),
        "history": (history.rhs_norm, history.estimates, history.true_residuals),
        "timers": result.timers,
        "counters": result.counters,
        "details": result.details,
    }


def digest(name: str) -> dict:
    """SHA-256 of each output of one case (key order and floats included)."""
    with np.errstate(invalid="ignore", over="ignore"):
        result = CASES[name]()
    return {
        key: _sha(json.dumps(value, default=_jsonable))
        for key, value in _parts(result).items()
    }


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden(name):
    assert digest(name) == load_golden()[name]


def test_golden_covers_every_case():
    assert sorted(load_golden()) == sorted(CASES)

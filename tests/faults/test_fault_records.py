"""Fault and degradation records replay the committed golden byte for byte.

Each scripted case below solves a small problem under one fault plan and
serializes ``details["faults"]`` and ``details["degradation"]``.  The
golden file was written before those reports were rebuilt from the trace's
fault lane, so it pins the payloads -- key order, floats and all -- across
that change.  Regenerate it only after an intentional report change::

    PYTHONPATH=src python tests/faults/make_golden.py
"""

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
from repro.matrices.stencil import convection_diffusion2d, poisson2d

GOLDEN = Path(__file__).parent / "golden" / "fault_records.json"

CA = dict(s=4, m=12, basis="monomial", tol=1e-8, max_restarts=30)
ALL_KINDS = ("corrupt", "poison", "stall", "dropout")


def _scripted(n_gpus, *events):
    return MultiGpuContext(n_gpus, fault_plan=FaultPlan.scripted(events))


def _rated(n_gpus, seed, rate, kinds=ALL_KINDS):
    return MultiGpuContext(
        n_gpus, fault_plan=FaultPlan(seed=seed, rate=rate, kinds=kinds)
    )


def _poisson(nx=12, seed=None):
    A = poisson2d(nx)
    if seed is None:
        return A, np.ones(A.n_rows)
    return A, np.random.default_rng(seed).standard_normal(A.n_rows)


def _convdiff(nx, seed):
    A = convection_diffusion2d(nx)
    return A, np.random.default_rng(seed).standard_normal(A.n_rows)


def _multinode_corrupt():
    A = poisson2d(16)
    b = np.random.default_rng(0).random(A.n_rows)
    ctx = MultiNodeContext(2, 2)
    ctx.arm_fault_plan(FaultPlan(events=(FaultEvent("pcie", "corrupt", trigger=5),)))
    return ca_gmres(A, b, ctx=ctx, s=4, m=12, max_restarts=8)


DROPOUT_1 = FaultEvent("gpu1", "dropout", trigger=40)
DROPOUT_0 = FaultEvent("gpu0", "dropout", trigger=90)

#: name -> zero-argument callable returning a SolveResult.
CASES = {
    "poison-panel-retry": lambda: ca_gmres(
        *_poisson(), ctx=_scripted(2, FaultEvent("gpu0", "poison", trigger=39, position=9)), **CA
    ),
    # Without MPK the block is four depth-1 MPK calls; the poisoned copy of
    # one call is caught after the later calls ran, and the retry
    # regenerates the whole block.
    "poison-panel-retry-depth1": lambda: ca_gmres(
        *_poisson(), ctx=_scripted(2, FaultEvent("gpu0", "poison", trigger=36, position=9)),
        use_mpk=False, **CA
    ),
    "poison-cycle-redo": lambda: ca_gmres(
        *_poisson(), ctx=_scripted(2, FaultEvent("gpu0", "poison", trigger=113, position=9)), **CA
    ),
    "stall-gpu1": lambda: ca_gmres(
        *_poisson(), ctx=_scripted(2, FaultEvent("gpu1", "stall", trigger=20)), **CA
    ),
    "pcie-corrupt-h2d": lambda: gmres(
        *_poisson(), ctx=_scripted(2, FaultEvent("pcie", "corrupt", trigger=7, position=3)),
        m=10, tol=1e-8, max_restarts=30,
    ),
    "pcie-corrupt-exchange": lambda: gmres(
        *_poisson(), ctx=_scripted(2, FaultEvent("pcie", "corrupt", trigger=20)),
        m=10, tol=1e-8, max_restarts=30,
    ),
    "pcie-corrupt-multinode": _multinode_corrupt,
    "dropout-abort": lambda: ca_gmres(*_poisson(), ctx=_scripted(2, DROPOUT_1), **CA),
    "dropout-degrade-block": lambda: ca_gmres(
        *_poisson(20, seed=7), ctx=_scripted(3, DROPOUT_1), s=4, m=12,
        basis="monomial", degrade=DegradePolicy(),
    ),
    "dropout-degrade-kway": lambda: ca_gmres(
        *_poisson(20, seed=7), ctx=_scripted(3, DROPOUT_1), s=4, m=12,
        basis="monomial", degrade=DegradePolicy(strategy="kway"),
    ),
    "double-dropout-degrade": lambda: ca_gmres(
        *_poisson(20, seed=7), ctx=_scripted(3, DROPOUT_1, DROPOUT_0), s=4,
        m=12, basis="monomial", degrade=DegradePolicy(),
    ),
    "repartition-budget-exhausted": lambda: ca_gmres(
        *_poisson(20, seed=7), ctx=_scripted(3, DROPOUT_1, DROPOUT_0), s=4,
        m=12, basis="monomial", degrade=DegradePolicy(max_repartitions=1),
    ),
    "gmres-dropout-degrade": lambda: gmres(
        *_poisson(20, seed=7), ctx=_scripted(3, FaultEvent("gpu2", "dropout", trigger=60)),
        m=20, degrade=DegradePolicy(),
    ),
    "pipelined-dropout-degrade": lambda: pipelined_gmres(
        *_poisson(20, seed=7), ctx=_scripted(3, FaultEvent("gpu2", "dropout", trigger=60)),
        m=20, degrade=DegradePolicy(),
    ),
    "deadline-trip": lambda: ca_gmres(
        *_poisson(20, seed=7), ctx=MultiGpuContext(3), s=4, m=12,
        basis="monomial", deadline=1e-9, max_restarts=50,
    ),
    "deadline-after-dropout": lambda: ca_gmres(
        *_poisson(20, seed=7), ctx=_scripted(3, DROPOUT_1), s=4, m=12,
        basis="monomial", degrade=DegradePolicy(), deadline=2e-3,
    ),
    "redo-budget-exhausted": lambda: gmres(
        *_poisson(), ctx=_rated(2, 0, 0.05, kinds=("poison",)), m=10,
        tol=1e-8, max_restarts=30,
    ),
    "rate-ca-newton-degrade": lambda: ca_gmres(
        *_convdiff(16, 1), ctx=_rated(3, 0, 2e-3), s=4, m=12, tol=1e-8,
        max_restarts=40, degrade=DegradePolicy(),
    ),
    "rate-ca-newton-abort": lambda: ca_gmres(
        *_convdiff(16, 1), ctx=_rated(3, 0, 2e-3), s=4, m=12, tol=1e-8,
        max_restarts=40,
    ),
    "rate-gmres-degrade": lambda: gmres(
        *_convdiff(16, 2), ctx=_rated(3, 3, 2e-3), m=12, tol=1e-8,
        max_restarts=40, degrade=DegradePolicy(),
    ),
    "rate-pipelined-degrade": lambda: pipelined_gmres(
        *_convdiff(16, 2), ctx=_rated(2, 4, 2e-3), m=12, tol=1e-8,
        max_restarts=40, degrade=DegradePolicy(),
    ),
}


def records(name: str) -> dict:
    """The case's fault and degradation payloads (``None`` when absent)."""
    with np.errstate(invalid="ignore", over="ignore"):
        result = CASES[name]()
    return {
        "faults": result.details.get("faults"),
        "degradation": result.details.get("degradation"),
    }


def dump(name: str) -> str:
    return json.dumps(records(name), indent=1)


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_records_match_golden(name):
    golden = load_golden()
    assert dump(name) == json.dumps(golden[name], indent=1)


def test_golden_covers_every_case():
    assert sorted(load_golden()) == sorted(CASES)

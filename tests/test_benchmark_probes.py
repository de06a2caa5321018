"""The benchmark's per-layer probes still find their call sites.

``perfbench/spans.py`` times each solve layer by patching the module global
or method a solver resolves at call time (for example
``repro.core.ca_gmres.borth``).  Moving a probed call into another module
would silently zero that layer's metric, so one small CA-GMRES session
solve and one small GMRES session solve must together record at least one
call on every solve layer.  The GMRES solve is what reaches ``orth.single``
(``repro.core.gmres.orthogonalize_vector``): a CA-GMRES restart
orthogonalizes blocks only.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from repro.matrices.stencil import poisson2d
from repro.serve import SolverSession

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their module through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_solve_layer_records_calls(monkeypatch):
    spans = load_spans(monkeypatch)
    A = poisson2d(16)
    sessions = (
        SolverSession(A, solver="ca", n_gpus=2, s=4, m=12),
        SolverSession(A, solver="gmres", n_gpus=2, m=12, max_restarts=2),
    )
    tracer = spans.Tracer()
    with tracer.patched(spans.SOLVE_PROBES):
        for session in sessions:
            session.solve(np.ones(A.n_rows))
    assert tracer.all_restored()
    calls = {layer: n for layer, (_, n) in spans.layer_totals(tracer.spans).items()}
    silent = [layer for layer in spans.SOLVE_LAYERS if calls.get(layer, 0) < 1]
    assert not silent, f"probes recorded no calls: {silent}"

"""Host-clock spans around the public entry points of each ``repro`` layer.

The traced run patches every probed entry point where its caller looks it
up -- a module global such as ``repro.core.ca_gmres.borth``, or a method on
its class such as ``MatrixPowersKernel.run`` -- records one :class:`Span`
per call, and puts the original objects back on exit.  Nothing under
``src/`` knows it is being traced.

Spans nest.  A layer's *self time* is its span's duration minus the
durations of the wrapped spans directly inside it, so ``mpk.run`` excludes
the ``dist.exchange`` it performs.  ``core.driver`` is what is left of the
request wall time once every top-level span is taken out: the restart
loop, the Python glue and every call that no probe wraps.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: ``(layer, module, attribute path)``: the binding a caller resolves at
#: call time.  Plan building (one list) and serving requests (the other)
#: are traced separately, so the cheap plan-cache hit path of a warm solve
#: stays in ``core.driver`` while its ``pattern_hash`` is measured.
SETUP_PROBES = (
    ("serve.plan", "repro.serve.plan", "PlanCache.host_plan"),
    ("serve.plan", "repro.serve.plan", "PlanCache.structural_plan"),
    ("order.kway", "repro.serve.plan", "kway_partition"),
    ("core.balance", "repro.serve.plan", "balance_matrix"),
    ("mpk.build", "repro.mpk.matrix_powers", "MatrixPowersKernel.__init__"),
)
SOLVE_PROBES = (
    ("serve.fingerprint", "repro.serve.plan", "pattern_hash"),
    ("mpk.run", "repro.mpk.matrix_powers", "MatrixPowersKernel.run"),
    ("dist.spmv", "repro.dist.matrix", "DistributedMatrix.spmv"),
    ("dist.exchange", "repro.dist.exchange", "StagedExchange.exchange"),
    ("orth.borth", "repro.core.ca_gmres", "borth"),
    ("orth.tsqr", "repro.core.ca_gmres", "tsqr"),
    ("orth.single", "repro.core.gmres", "orthogonalize_vector"),
    ("core.lsq", "repro.core.ca_gmres", "hessenberg_lstsq"),
    ("core.lsq", "repro.core.lsq", "GivensHessenbergSolver.append_column"),
    ("core.update", "repro.core.ca_gmres", "update_solution"),
    ("core.update", "repro.core.gmres", "update_solution"),
    ("core.true_residual", "repro.core.ca_gmres", "checked_true_residual"),
)
SETUP_LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in SETUP_PROBES))
SOLVE_LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in SOLVE_PROBES))
DRIVER = "core.driver"


@dataclass(frozen=True)
class Span:
    """One call into a probed layer; ``parent`` indexes the enclosing span."""

    layer: str
    start: float
    end: float
    parent: int | None
    request: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Collects spans in memory while its probes are installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.request = -1
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append(None)  # placeholder keeps indices in call order
            self._open.append(index)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._open.pop()
                self.spans[index] = Span(layer, start, end, parent, self.request)

        return traced

    @contextmanager
    def patched(self, probes):
        """Install ``probes`` for the duration of the block, then restore."""
        installed = []
        try:
            for layer, module, path in probes:
                owner, attr = _resolve(module, path)
                original = vars(owner)[attr]
                installed.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, original))
            yield self
        finally:
            for owner, attr, original in reversed(installed):
                setattr(owner, attr, original)
            self._patched.extend(installed)

    def all_restored(self) -> bool:
        """True when every attribute ever patched is its original object."""
        return all(vars(owner)[attr] is original for owner, attr, original in self._patched)


def layer_totals(spans) -> dict[str, tuple[float, int]]:
    """Self seconds and call count per layer."""
    nested = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            nested[span.parent] += span.duration
    totals: dict[str, tuple[float, int]] = {}
    for span, inner in zip(spans, nested):
        seconds, calls = totals.get(span.layer, (0.0, 0))
        totals[span.layer] = (seconds + span.duration - inner, calls + 1)
    return totals


def driver_seconds(wall: float, spans) -> float:
    """Wall time not covered by any top-level span."""
    return wall - sum(span.duration for span in spans if span.parent is None)


def median_count(values) -> tuple[float, int]:
    """Median of ``values`` with the sample count it rests on."""
    values = list(values)
    return statistics.median(values), len(values)

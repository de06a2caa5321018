"""Deterministic labeled metrics: Counter / Gauge / Histogram families.

The paper's whole argument is quantitative — per-kernel time breakdowns
(Figs. 11-15), communication counts and volumes (Fig. 10, Section IV) —
and a serving deployment needs the same numbers *aggregated over many
solves* and *comparable over time*, not just per-solve dicts.
:class:`MetricsRegistry` is the aggregation point: a named set of metric
families, each holding one sample per label combination, exported as
Prometheus text exposition or a stable JSON snapshot (see
:mod:`repro.metrics.export`).

Design constraints (enforced by tests):

* **Deterministic.**  Registry contents are a pure function of the
  observations made.  Exports order families by name and samples by label
  values, and format numbers with ``repr``, so two identical runs produce
  byte-identical output.  Metrics fed from *host wall-clock* measurements
  (plan-build times, serving latencies) are declared with
  ``wall_clock=True`` and can be excluded wholesale
  (``include_wall_clock=False``) — the determinism guarantee covers the
  simulated-time remainder.
* **Fixed histogram buckets.**  Bucket edges are declared at registration
  and never adapt to the data, so histograms from different runs (or
  different commits) are directly comparable, bucket by bucket.
* **One off switch.**  Passing no registry (``metrics=None``) turns
  observation off; results are bit-identical with and without a
  registry.
"""

from __future__ import annotations

import re

__all__ = [
    "MetricsRegistry",
    "CounterFamily",
    "GaugeFamily",
    "HistogramFamily",
    "SIM_TIME_BUCKETS",
    "WALL_TIME_BUCKETS",
    "BLOCK_LENGTH_BUCKETS",
]

#: Fixed bucket edges (seconds) for *simulated*-time histograms: restart
#: cycles on the modeled hardware run in the 0.1 ms - 1 s range.
SIM_TIME_BUCKETS = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0
)

#: Fixed bucket edges (seconds) for *host wall-clock* histograms
#: (plan builds, serving request latency).
WALL_TIME_BUCKETS = (
    1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 60.0
)

#: Fixed bucket edges for adaptive-s block lengths (1 <= s <= m).
BLOCK_LENGTH_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 64.0)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


class _Family:
    """Base class: one named metric with a fixed label schema."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames=(), wall_clock=False):
        self.name = _check_name(name)
        self.help = str(help)
        self.labelnames = tuple(labelnames)
        for label in self.labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        #: True when samples come from host wall-clock measurements and are
        #: therefore nondeterministic; exporters can exclude these.
        self.wall_clock = bool(wall_clock)
        self._samples: dict = {}

    def _key(self, labels: dict) -> tuple:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[k]) for k in self.labelnames)

    def samples(self) -> list:
        """``(labelvalues, value)`` pairs sorted by label values."""
        return sorted(self._samples.items())

    def clear(self) -> None:
        self._samples.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name!r}, samples={len(self._samples)})"


class CounterFamily(_Family):
    """Monotonically increasing tally (per label combination)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        key = self._key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + amount


class GaugeFamily(_Family):
    """Last-written value (per label combination)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self._samples[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + amount


class HistogramFamily(_Family):
    """Cumulative-bucket histogram with *fixed* edges.

    Each sample is ``[bucket_counts..., +Inf count is implicit via count]``
    stored as ``{"buckets": [int, ...], "sum": float, "count": int}`` where
    ``buckets[i]`` counts observations ``<= edges[i]`` (non-cumulative
    storage; exporters cumulate).
    """

    kind = "histogram"

    def __init__(self, name, help="", labelnames=(), wall_clock=False,
                 buckets=SIM_TIME_BUCKETS):
        super().__init__(name, help, labelnames, wall_clock)
        edges = tuple(float(e) for e in buckets)
        if not edges or list(edges) != sorted(set(edges)):
            raise ValueError("bucket edges must be strictly increasing and non-empty")
        self.edges = edges

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        entry = self._samples.get(key)
        if entry is None:
            entry = {"buckets": [0] * (len(self.edges) + 1), "sum": 0.0, "count": 0}
            self._samples[key] = entry
        value = float(value)
        # Index of the first edge >= value; the final slot is the +Inf bucket.
        lo = 0
        for i, edge in enumerate(self.edges):
            if value <= edge:
                lo = i
                break
        else:
            lo = len(self.edges)
        entry["buckets"][lo] += 1
        entry["sum"] += value
        entry["count"] += 1


_KINDS = {"counter": CounterFamily, "gauge": GaugeFamily, "histogram": HistogramFamily}


class MetricsRegistry:
    """A named, labeled, deterministic set of metric families.

    Families are get-or-create: asking twice for the same name returns the
    same family, and a redefinition with a different type or label schema
    raises (one name, one meaning — the exposition format requires it).
    """

    def __init__(self):
        self._families: dict[str, _Family] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name, help, labelnames, wall_clock, **kwargs):
        family = self._families.get(name)
        if family is not None:
            if type(family) is not cls or family.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind} "
                    f"with labels {family.labelnames}"
                )
            if cls is HistogramFamily and family.edges != tuple(
                float(e) for e in kwargs.get("buckets", SIM_TIME_BUCKETS)
            ):
                raise ValueError(f"metric {name!r} already registered with other buckets")
            return family
        family = cls(name, help=help, labelnames=labelnames,
                     wall_clock=wall_clock, **kwargs)
        self._families[name] = family
        return family

    def counter(self, name, help="", labelnames=(), wall_clock=False) -> CounterFamily:
        """Get or create a counter family."""
        return self._get_or_create(CounterFamily, name, help, labelnames, wall_clock)

    def gauge(self, name, help="", labelnames=(), wall_clock=False) -> GaugeFamily:
        """Get or create a gauge family."""
        return self._get_or_create(GaugeFamily, name, help, labelnames, wall_clock)

    def histogram(self, name, help="", labelnames=(), wall_clock=False,
                  buckets=SIM_TIME_BUCKETS) -> HistogramFamily:
        """Get or create a histogram family with *fixed* bucket edges."""
        return self._get_or_create(
            HistogramFamily, name, help, labelnames, wall_clock, buckets=buckets
        )

    # ------------------------------------------------------------------
    def families(self, include_wall_clock: bool = True) -> list[_Family]:
        """All families sorted by name (optionally without wall-clock ones)."""
        out = [self._families[k] for k in sorted(self._families)]
        if not include_wall_clock:
            out = [f for f in out if not f.wall_clock]
        return out

    def get(self, name: str) -> _Family | None:
        """Look up a family by name (None when absent)."""
        return self._families.get(name)

    def reset(self) -> None:
        """Clear every family's samples (registrations survive)."""
        for family in self._families.values():
            family.clear()

    def __len__(self) -> int:
        return len(self._families)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MetricsRegistry(families={len(self._families)})"

"""MetricsRegistry units: families, labels, buckets, disabled mode."""

import pytest

from repro.metrics import (
    BLOCK_LENGTH_BUCKETS,
    HistogramFamily,
    MetricsRegistry,
    SIM_TIME_BUCKETS,
    WALL_TIME_BUCKETS,
)


def test_counter_accumulates_per_label_set():
    reg = MetricsRegistry()
    c = reg.counter("x_total", "help", labelnames=("device",))
    c.inc(device="gpu0")
    c.inc(2.5, device="gpu0")
    c.inc(device="gpu1")
    assert c.samples() == [(("gpu0",), 3.5), (("gpu1",), 1.0)]


def test_counter_rejects_negative_and_bad_labels():
    reg = MetricsRegistry()
    c = reg.counter("x_total", labelnames=("device",))
    with pytest.raises(ValueError):
        c.inc(-1.0, device="gpu0")
    with pytest.raises(ValueError):
        c.inc(1.0)  # missing label
    with pytest.raises(ValueError):
        c.inc(1.0, device="gpu0", extra="nope")


def test_gauge_set_and_inc():
    reg = MetricsRegistry()
    g = reg.gauge("util")
    g.set(0.5)
    assert g.samples() == [((), 0.5)]
    g.inc(0.25)
    assert g.samples() == [((), 0.75)]


def test_histogram_buckets_and_sum():
    reg = MetricsRegistry()
    h = reg.histogram("t_seconds", buckets=(1.0, 2.0, 4.0))
    for v in (0.5, 1.0, 1.5, 3.0, 100.0):
        h.observe(v)
    ((_, entry),) = h.samples()
    # non-cumulative storage: <=1, <=2, <=4, +Inf
    assert entry["buckets"] == [2, 1, 1, 1]
    assert entry["count"] == 5
    assert entry["sum"] == pytest.approx(106.0)


def test_histogram_rejects_bad_edges():
    with pytest.raises(ValueError):
        HistogramFamily("h", buckets=())
    with pytest.raises(ValueError):
        HistogramFamily("h", buckets=(2.0, 1.0))
    with pytest.raises(ValueError):
        HistogramFamily("h", buckets=(1.0, 1.0))


def test_fixed_bucket_edges_are_stable():
    # The committed edge sets are part of the exposition contract: exported
    # histograms are comparable across runs/commits bucket by bucket.
    assert SIM_TIME_BUCKETS == (
        1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0
    )
    assert WALL_TIME_BUCKETS == (
        1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 60.0
    )
    assert BLOCK_LENGTH_BUCKETS == (
        1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 64.0
    )
    reg = MetricsRegistry()
    h = reg.histogram("cycle_seconds")
    assert h.edges == SIM_TIME_BUCKETS


def test_get_or_create_returns_same_family():
    reg = MetricsRegistry()
    a = reg.counter("x_total", labelnames=("device",))
    b = reg.counter("x_total", labelnames=("device",))
    assert a is b
    assert len(reg) == 1


def test_redefinition_mismatch_raises():
    reg = MetricsRegistry()
    reg.counter("x_total", labelnames=("device",))
    with pytest.raises(ValueError):
        reg.gauge("x_total", labelnames=("device",))
    with pytest.raises(ValueError):
        reg.counter("x_total", labelnames=("kernel",))
    reg.histogram("h_seconds", buckets=(1.0, 2.0))
    with pytest.raises(ValueError):
        reg.histogram("h_seconds", buckets=(1.0, 3.0))


def test_invalid_names_raise():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("bad name")
    with pytest.raises(ValueError):
        reg.counter("ok_total", labelnames=("bad-label",))


def test_reset_clears_samples_keeps_registrations():
    reg = MetricsRegistry()
    c = reg.counter("x_total")
    c.inc()
    reg.reset()
    assert len(reg) == 1
    assert reg.get("x_total").samples() == []


def test_families_sorted_and_wall_clock_filter():
    reg = MetricsRegistry()
    reg.counter("b_total")
    reg.histogram("a_seconds", wall_clock=True)
    names = [f.name for f in reg.families()]
    assert names == ["a_seconds", "b_total"]
    names = [f.name for f in reg.families(include_wall_clock=False)]
    assert names == ["b_total"]

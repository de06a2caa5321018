"""Self-test of the paired A/B statistics in ``scripts/perf_ab.py``."""

import importlib.util
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parent.parent / "scripts" / "perf_ab.py"
_spec = importlib.util.spec_from_file_location("perf_ab", _path)
perf_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_ab)


def test_quartiles_interpolate():
    assert perf_ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert perf_ab.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)


def test_win_fraction_ties_win_nothing():
    parent = [2.0, 2.0, 2.0, 2.0]
    change = [1.0, 2.0, 3.0, 1.5]
    assert perf_ab.win_fraction(parent, change, "lower") == 0.5
    assert perf_ab.win_fraction(parent, change, "higher") == 0.25


def test_win_fraction_needs_pairs():
    with pytest.raises(ValueError):
        perf_ab.win_fraction([1.0], [1.0, 2.0], "lower")
    with pytest.raises(ValueError):
        perf_ab.win_fraction([], [], "lower")


PARENT = [2.0, 2.1, 2.2, 2.3, 2.4, 2.0, 2.1, 2.2, 2.3, 2.4]


def test_gain_needs_nine_of_ten_wins():
    change = [1.0] * 9 + [3.0]
    assert perf_ab.verdict(PARENT, change, "lower", 0.25) == "gain"
    change = [1.0] * 8 + [3.0, 3.0]
    assert perf_ab.verdict(PARENT, change, "lower", 0.25) != "gain"


def test_gain_needs_median_shift_beyond_parent_spread():
    # Wins every pair, but by less than the parent's interquartile range.
    change = [p - 0.01 for p in PARENT]
    assert perf_ab.win_fraction(PARENT, change, "lower") == 1.0
    assert perf_ab.verdict(PARENT, change, "lower", 0.25) == "within"


def test_worse_beyond_bound_in_either_direction():
    assert perf_ab.verdict(PARENT, [3.0] * 10, "lower", 0.25) == "worse"
    assert perf_ab.verdict(PARENT, [1.5] * 10, "higher", 0.25) == "worse"
    assert perf_ab.verdict(PARENT, [2.3] * 10, "lower", 0.25) == "within"


def test_spread_wider_than_bound_is_unresolved():
    parent = [1.0, 2.0, 1.0, 2.0]
    assert perf_ab.verdict(parent, [1.6, 1.4, 1.6, 1.4], "lower", 0.1) == "unresolved"
    # ... unless every change run beats every parent run.
    assert perf_ab.verdict(parent, [0.9] * 4, "lower", 0.1) == "within"

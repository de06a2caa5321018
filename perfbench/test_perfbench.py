"""Self-tests of the benchmark's own arithmetic: no solver runs.

    python3 -m pytest perfbench -q        (or: python3 perfbench/test_perfbench.py)
"""

import sys
import types
import unittest
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from repro.sparse.csr import CsrMatrix  # noqa: E402
from spans import Span, Tracer, driver_seconds, layer_totals, median_count  # noqa: E402
from workloads import TOL, answer_ok, failed_frac  # noqa: E402


def span(layer, start, end, parent=None):
    return Span(layer, float(start), float(end), parent, 0)


class SelfTime(unittest.TestCase):
    # One 10 s request: mpk.run [0, 5] holding dist.exchange [1, 2], then a
    # top-level dist.exchange [6, 6.5] and orth.borth [7, 8].
    SPANS = [
        span("mpk.run", 0, 5),
        span("dist.exchange", 1, 2, parent=0),
        span("dist.exchange", 6, 6.5),
        span("orth.borth", 7, 8),
    ]

    def test_nested_span_is_taken_out_of_its_parent(self):
        totals = layer_totals(self.SPANS)
        self.assertEqual(totals["mpk.run"], (4.0, 1))
        self.assertEqual(totals["dist.exchange"], (1.5, 2))
        self.assertEqual(totals["orth.borth"], (1.0, 1))

    def test_driver_is_the_remainder_of_the_wall_time(self):
        self.assertEqual(driver_seconds(10.0, self.SPANS), 10.0 - 5.0 - 0.5 - 1.0)
        self_total = sum(seconds for seconds, _ in layer_totals(self.SPANS).values())
        self.assertEqual(self_total + driver_seconds(10.0, self.SPANS), 10.0)

    def test_tracer_records_nesting_and_restores_every_binding(self):
        fake = types.ModuleType("perfbench_fake_layer")
        fake.inner = lambda: "inner"
        fake.outer = lambda: fake.inner() + "+outer"
        originals = (fake.inner, fake.outer)
        sys.modules[fake.__name__] = fake
        try:
            ticks = iter(range(100))
            tracer = Tracer(clock=lambda: float(next(ticks)))
            probes = (
                ("mpk.run", fake.__name__, "outer"),
                ("dist.exchange", fake.__name__, "inner"),
            )
            with tracer.patched(probes):
                self.assertIsNot(fake.outer, originals[1])
                self.assertEqual(fake.outer(), "inner+outer")
        finally:
            del sys.modules[fake.__name__]
        self.assertIs(fake.inner, originals[0])
        self.assertIs(fake.outer, originals[1])
        self.assertTrue(tracer.all_restored())
        # outer runs from tick 0 to 3 around inner's 1 to 2.
        self.assertEqual(tracer.spans, [
            Span("mpk.run", 0.0, 3.0, None, -1),
            Span("dist.exchange", 1.0, 2.0, 0, -1),
        ])
        self.assertEqual(layer_totals(tracer.spans)["mpk.run"], (2.0, 1))

    def test_tracer_notices_a_binding_left_patched(self):
        fake = types.ModuleType("perfbench_fake_layer")
        fake.f = lambda: None
        sys.modules[fake.__name__] = fake
        try:
            tracer = Tracer()
            with tracer.patched((("core.lsq", fake.__name__, "f"),)):
                leaked = fake.f
        finally:
            del sys.modules[fake.__name__]
        fake.f = leaked
        self.assertFalse(tracer.all_restored())


class Medians(unittest.TestCase):
    def test_median_and_sample_count(self):
        self.assertEqual(median_count([3.0, 1.0, 2.0]), (2.0, 3))
        self.assertEqual(median_count(iter([4.0, 1.0, 3.0, 2.0])), (2.5, 4))
        self.assertEqual(median_count([7.5]), (7.5, 1))


class Answers(unittest.TestCase):
    # 1-D Laplacian, n = 4.
    A = CsrMatrix(
        (4, 4),
        np.array([0, 2, 5, 8, 10]),
        np.array([0, 1, 0, 1, 2, 1, 2, 3, 2, 3]),
        np.array([2.0, -1, -1, 2, -1, -1, 2, -1, -1, 2]),
    )
    b = np.array([1.0, 0.0, 0.0, 1.0])
    x = np.ones(4)

    def test_exact_answer_passes_both_checks(self):
        good = SimpleNamespace(x=self.x, converged=True)
        self.assertTrue(answer_ok(self.A, self.b, good, ceiling=None))
        self.assertTrue(answer_ok(self.A, self.b, good, ceiling=1e-3))

    def test_perturbed_answer_counts_as_failed(self):
        bad = SimpleNamespace(x=self.x + 10 * TOL, converged=True)
        outcomes = [
            answer_ok(self.A, self.b, SimpleNamespace(x=self.x, converged=True), None),
            answer_ok(self.A, self.b, bad, None),
            answer_ok(self.A, self.b, SimpleNamespace(x=self.x, converged=False), None),
            answer_ok(self.A, self.b, SimpleNamespace(x=self.x * np.nan, converged=True), 0.5),
        ]
        self.assertEqual(outcomes, [True, False, False, False])
        self.assertEqual(failed_frac(outcomes.count(False), len(outcomes)), 0.75)


if __name__ == "__main__":
    unittest.main()

"""Self-test of the benchmark's own arithmetic and tracing.

    python3 perfbench/selftest.py

Every benchmark run also calls :func:`run` and counts a failure here as an
incorrect run.
"""

from __future__ import annotations

import os
import sys
import unittest
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
for path in (HERE, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

import numpy as np  # noqa: E402

import stats  # noqa: E402
import tracer as tracing  # noqa: E402


def _span(sid, parent, start, end, name="x.f"):
    return (sid, parent, 0, name, start, end)


class SelfTime(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        spans = [
            _span(1, None, 0.0, 10.0),
            _span(2, 1, 1.0, 4.0),
            _span(3, 2, 2.0, 3.0),
            _span(4, 1, 3.0, 6.0),  # overlaps span 2 on [3, 4]
        ]
        got = tracing.self_times(spans)
        self.assertAlmostEqual(got[1], 10.0 - 5.0)
        self.assertAlmostEqual(got[2], 2.0)
        self.assertAlmostEqual(got[3], 1.0)
        self.assertAlmostEqual(got[4], 3.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [_span(1, None, 0.0, 2.0), _span(2, 1, 1.5, 3.0), _span(3, 1, 5.0, 6.0)]
        self.assertAlmostEqual(tracing.self_times(spans)[1], 1.5)

    def test_union_of_disjoint_and_contained(self):
        self.assertAlmostEqual(
            tracing.union_length([(0, 1), (2, 5), (3, 4), (4.5, 6)], 0, 10), 5.0
        )


class Tail(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        xs = list(range(1, 31))  # 30 samples
        value, pct, beyond = stats.tail(reversed(xs))
        self.assertEqual(value, 20)
        self.assertAlmostEqual(pct, 200.0 / 3.0)
        self.assertEqual(beyond, 10)
        self.assertEqual(sum(x > value for x in xs), 10)

    def test_large_sample(self):
        value, pct, beyond = stats.tail(range(1000))
        self.assertEqual((value, pct, beyond), (989, 99.0, 10))

    def test_eleven_samples_is_the_first_that_qualifies(self):
        self.assertEqual(stats.tail(range(11)), (0, 100.0 / 11.0, 10))

    def test_too_few_samples_report_maximum_with_none_beyond(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 0))
        self.assertEqual(stats.tail(range(10)), (9, 100.0, 0))
        with self.assertRaises(ValueError):
            stats.tail([])


class Wrapping(unittest.TestCase):
    def test_wrapped_functions_return_exactly_the_unwrapped_results(self):
        from wignerlab import analysis, cli, fock, gaussian, photon_ops

        v = gaussian.random_mixed_cov(3, 5)
        g = np.array([0.6, 0.0, 0.0, 0.0, 0.8, 0.0])
        pts = np.random.default_rng(2).standard_normal((7, 6))

        def compute():
            op = photon_ops.PhotonOpSpec("subtract", g)
            return [
                photon_ops.nongaussian_wigner(v, op)(pts),
                analysis.reduced_purities(v, op).mu,
                analysis.negativity_witness(v, op).value,
                gaussian.williamson(v).s,
                photon_ops.mixture_reconstruction(v, op, pts[:2], 50, 1).values,
                fock.gaussian_fock_state(
                    gaussian.random_pure_squeezed_cov(2, [3.0, -2.0], 4), 20
                ).amplitudes,
            ]

        plain = compute()
        originals = (cli.main, analysis.mean_photon_number, gaussian._check_symmetric)
        tr = tracing.Tracer()
        tr.install()
        try:
            self.assertIsNot(analysis.mean_photon_number, originals[1])
            self.assertIsNot(analysis._check_symmetric, originals[2])
            tr.open_op(0)
            traced = compute()
            tr.close_op()
        finally:
            tr.uninstall()
        self.assertEqual((cli.main, analysis.mean_photon_number, gaussian._check_symmetric),
                         originals)
        for a, b in zip(plain, traced):
            self.assertEqual(np.asarray(a).tobytes(), np.asarray(b).tobytes())
        names = {s[3] for s in tr.spans}
        self.assertIn("gaussian._check_symmetric", names)
        self.assertIn("fock._beamsplitter", names)

    def test_worker_thread_spans_take_the_op_threads_span_as_parent(self):
        ticks = iter(range(1000))
        tr = tracing.Tracer(clock=lambda: float(next(ticks)))
        leaf = tr.wrap(lambda x: x + 1, "m.leaf")

        def fan_out(xs):
            with ThreadPoolExecutor(max_workers=2) as pool:
                return list(pool.map(leaf, xs))

        outer = tr.wrap(fan_out, "m.outer")
        tr.open_op(7)
        self.assertEqual(outer([1, 2, 3]), [2, 3, 4])
        tr.close_op()
        by_name = {}
        for sid, parent, op, name, _, _ in tr.spans:
            self.assertEqual(op, 7)
            by_name.setdefault(name, []).append((sid, parent))
        (outer_id, op_span), = by_name["m.outer"]
        (root_id, _), = by_name[tracing.OP]
        self.assertEqual(op_span, root_id)
        self.assertEqual({p for _, p in by_name["m.leaf"]}, {outer_id})


def run() -> list[str]:
    """Run the self-test quietly; returns one message per failure."""
    result = unittest.TestResult()
    unittest.defaultTestLoader.loadTestsFromModule(sys.modules[__name__]).run(result)
    return [f"{test.id()}: {trace.strip().splitlines()[-1]}"
            for test, trace in result.failures + result.errors]


if __name__ == "__main__":
    unittest.main(verbosity=2)

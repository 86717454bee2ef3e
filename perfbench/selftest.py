"""Self-tests of the benchmark: every oracle must reject a corrupted output.

    python3 perfbench/selftest.py

Also checks the tail-percentile rule, the host clock, the tracer's
rebinding and self-time accounting, and that the benchmark refuses to run
without the package sources.  Kept out of the repository's pytest run: it
tests the benchmark, not roelcke.
"""
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import hostclock
import oracles
import run
import workloads
from hostclock import HostClock
from tracer import SENTINEL, Tracer

workloads.import_roelcke()
from roelcke import factorization, markov, sampling, semigroup, space  # noqa: E402


def scratch_dir():
    """A temporary directory inside the benchmark's ignored results folder."""
    workloads.RESULTS.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=workloads.RESULTS)


def corrupt(rows, y=0, x=0, delta=Fraction(1, 7)):
    """A copy of `rows` with entry (y, x) moved by `delta`."""
    out = [list(r) for r in rows]
    out[y][x] += delta
    return SimpleNamespace(entries=tuple(tuple(r) for r in out))


class OrderOracle(unittest.TestCase):
    def setUp(self):
        self.wl = workloads.OrderSmall()
        self.wl.setup(0)

    def test_accepts_roelcke_verdicts(self):
        labels = self.wl.labels[4]
        for i in range(len(labels)):
            for j in range(len(labels)):
                self.assertIsNone(self.wl.check((4, i, j), self.wl.call((4, i, j))))

    def test_rejects_flipped_verdict(self):
        coarse = self.wl.labels[3].index((1, 1, 1))
        fine = self.wl.labels[3].index((1, 2, 3))
        item = (3, coarse, fine)  # E_coarse <= E_fine: below
        right = self.wl.call(item)
        self.assertTrue(right.below)
        wrong = semigroup.OrderCheck(pq_eq_p=False, qp_eq_p=False)
        self.assertIsNotNone(self.wl.check(item, wrong))
        reverse = (3, fine, coarse)
        self.assertFalse(self.wl.call(reverse).below)
        self.assertIsNotNone(self.wl.check(reverse, semigroup.OrderCheck(True, True)))

    def test_rejects_inequivalent_verdict(self):
        self.assertIsNotNone(oracles.check_order(
            (1, 1), (1, 2), semigroup.OrderCheck(pq_eq_p=True, qp_eq_p=False)))


class ProductOracle(unittest.TestCase):
    def test_freivalds(self):
        rng = random.Random(3)
        K1 = sampling.random_markov(rng, 6)
        K2 = sampling.random_markov(rng, 6)
        good = markov.product(K1, K2)
        v = [rng.randrange(-10**6, 10**6 + 1) for _ in range(6)]
        self.assertIsNone(oracles.check_product(K1, K2, good, v))
        self.assertIsNotNone(oracles.check_product(K1, K2, corrupt(good.entries, 2, 4), v))
        # A corruption that keeps every row and column sum still fails.
        self.assertIsNotNone(oracles.check_product(K1, K2, markov.product(K2, K1), v))
        self.assertIsNotNone(oracles.check_product(
            K1, K2, SimpleNamespace(entries=good.entries[:5]), v))


class ScanOracle(unittest.TestCase):
    def test_reference_counts_match_the_criterion_total(self):
        total = sum(oracles.scan_reference(*case)[1]
                    for case in workloads.ORACLE_CASES if case[0] < 6)
        self.assertEqual(total, 288 * 3 + 360 + 13536 + 14400)

    def test_scan(self):
        wl = workloads.FactorOracle()
        wl.setup(0)
        for item in (0, 4):
            out = wl.call(item)
            self.assertIsNone(wl.check(item, out))
            self.assertIsNotNone(wl.check(item, (out[0], out[1] + 1)))
            self.assertIsNotNone(wl.check(item, (out[0] + Fraction(1, 9), out[1])))


class CliOracle(unittest.TestCase):
    def test_digest_ignores_timestamp_only(self):
        with scratch_dir() as tmp:
            path = os.path.join(tmp, "r.json")
            report = {"timestamp": "a", "records": [{"index": 0, "passed": True}]}
            Path(path).write_text(json.dumps(report))
            expected = oracles.report_digest(path)
            report["timestamp"] = "b"
            Path(path).write_text(json.dumps(report))
            self.assertIsNone(oracles.check_cli(0, path, expected))
            self.assertIsNotNone(oracles.check_cli(1, path, expected))
            report["records"][0]["passed"] = False
            Path(path).write_text(json.dumps(report))
            self.assertIsNotNone(oracles.check_cli(0, path, expected))
            self.assertIsNotNone(oracles.check_cli(0, path + ".missing", expected))

    def test_one_suite_against_reference(self):
        wl = workloads.CliCold()
        wl.setup(0)
        try:
            out = wl.call(("dichotomy", 0))
            self.assertIsNone(wl.check(("dichotomy", 0), out))
            out = wl.call(("dichotomy", 1))
            self.assertIsNotNone(wl.check(("dichotomy", 0), out))
        finally:
            wl.close()


class Statistics(unittest.TestCase):
    def test_tail_has_ten_samples_beyond(self):
        value, pct, beyond = run.tail([float(v) for v in range(100)])
        self.assertEqual((value, beyond), (89.0, 10))
        self.assertAlmostEqual(pct, 90.0)
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 0))

    def test_host_clock_samples_and_stops(self):
        with HostClock() as host:
            time.sleep(5 * hostclock.PERIOD_S)
        self.assertFalse(host._thread.is_alive())
        self.assertGreaterEqual(len(host.samples), 2)
        self.assertGreater(host.mean_s(), 0)

    def test_host_clock_leaves_out_preempted_samples(self):
        host = HostClock()
        host.samples = [1.0, 1.0, 1.2, 0.8, 10.0]
        self.assertAlmostEqual(host.mean_s(), 1.0)

    def test_host_clock_rescales_to_the_reference_host(self):
        host = HostClock()
        host.samples = [2 * hostclock.REFERENCE_KERNEL_S] * 3  # a host half as fast
        self.assertAlmostEqual(host.to_reference(3.0), 1.5)

    def test_host_clock_samples_a_span_shorter_than_its_period(self):
        with HostClock() as host:
            pass
        self.assertGreaterEqual(len(host.samples), 1)


class Tracing(unittest.TestCase):
    def test_rebinds_every_holder_and_restores(self):
        original = markov.product
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(semigroup.product, original)
            self.assertIs(semigroup.product, markov.product)
            self.assertIsNot(factorization.u_deviation.__wrapped__, None)
        finally:
            tracer.uninstall()
        self.assertIs(semigroup.product, original)
        self.assertIs(markov.product, original)
        self.assertNotIn("__wrapped__", vars(space.Automorphism.__post_init__))

    def test_self_times_sum_to_the_call(self):
        wl = workloads.OrderSmall()
        wl.setup(1)
        tracer = Tracer()
        tracer.install()
        try:
            for _ in range(20):
                with tracer.span("call"):
                    wl.call((6, 7, 150))
                with tracer.span("call"):
                    space.compose(space.identity(3), space.swap(3, 0, 1))
        finally:
            tracer.uninstall()
        total, subtree = tracer.self_sum("call")
        self.assertAlmostEqual(subtree, total, delta=1e-9 * max(1.0, total))
        spans = {(s["name"], s["parent"]): s for s in tracer.spans()}
        self.assertEqual(spans[("semigroup.order_check", "call")]["calls"], 20)
        self.assertEqual(spans[("semigroup.is_idempotent", "semigroup.order_check")]["calls"], 40)
        self.assertEqual(spans[("call", SENTINEL)]["calls"], 40)
        self.assertEqual(tracer.per_order_check(), 2.0)
        self.assertEqual(tracer.counts.mul_adds, 20 * 4 * 6 ** 3)


class MissingSources(unittest.TestCase):
    def test_refuses_to_run_without_src(self):
        with scratch_dir() as tmp:
            shutil.copytree(workloads.BENCH_DIR, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "order-small",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120,
                env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("{", done.stdout)


if __name__ == "__main__":
    unittest.main()

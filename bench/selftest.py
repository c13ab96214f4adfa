"""Fast self-test of the benchmark harness.

    python3 bench/selftest.py

Checks the tracer's self-time arithmetic on a synthetic nested call, that
tracing installs at every binding and uninstalls cleanly, that every
metric name and unit is valid and matches BENCHMARK.json, and runs each
workload once on tiny inputs, traced and untraced, through the same child
processes the benchmark uses.
"""

from __future__ import annotations

import json
import re
import signal
import sys
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import calib  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClock:
    """Advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_nested_self_times(self):
        tracer = Tracer(clock=FakeClock())
        inner = tracer.wrap("grid.inner", lambda: tracer.clock())
        outer = tracer.wrap("frame.outer", lambda: [inner(), inner(), tracer.clock()])
        tracer.active = True
        outer()
        (o,) = tracer.nodes("frame.outer")
        (i,) = tracer.nodes("grid.inner")
        # each inner call: start, one reading inside, end -> 2 s;
        # outer: start, 2 inner calls (3 readings each), 1 reading, end -> 8 s
        self.assertEqual((i.calls, i.total, i.self_time), (2, 4.0, 4.0))
        self.assertEqual((o.calls, o.total, o.self_time), (1, 8.0, 4.0))
        self.assertIs(i.parent, o)
        self.assertEqual(tracer.layer_self_times(), {"frame": 4.0, "grid": 4.0})

    def test_inactive_tracer_records_nothing(self):
        tracer = Tracer(clock=FakeClock())
        tracer.wrap("grid.f", lambda: 1)()
        self.assertEqual(tracer.root.children, {})

    def test_install_wraps_every_binding_and_uninstalls(self):
        import corrugate
        from corrugate import cli, corrugation, driver, frame
        original = frame.normal_pair
        iterate = driver.nash_kuiper_iterate
        tracer = layers.new_tracer().install()
        try:
            for owner in (frame, corrugation, cli, corrugate):
                self.assertIsNot(owner.normal_pair, original)
                self.assertIs(owner.normal_pair.__wrapped__, original)
            self.assertIs(cli.nash_kuiper_iterate.__wrapped__, iterate)
        finally:
            tracer.uninstall()
        for owner in (frame, corrugation, cli, corrugate):
            self.assertIs(owner.normal_pair, original)
        self.assertIs(cli.nash_kuiper_iterate, iterate)


class CalibTest(unittest.TestCase):
    def test_sampler_runs_chunks_on_cpu_time_and_restores(self):
        before = signal.getsignal(signal.SIGPROF)
        with calib.Sampler() as sampler:
            end = time.process_time() + 10 * calib.INTERVAL_S
            while time.process_time() < end:
                pass
        self.assertGreaterEqual(len(sampler.samples), 5)
        self.assertIs(signal.getsignal(signal.SIGPROF), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_PROF), (0.0, 0.0))

    def test_chunk_ffts_are_not_counted(self):
        tracer = layers.new_tracer().install()
        tracer.active = True
        try:
            calib.chunk()
        finally:
            tracer.active = False
            tracer.uninstall()
        self.assertFalse([k for k in tracer.counts if k.endswith(".fft_calls")])

    def test_factor(self):
        self.assertAlmostEqual(calib.factor([calib.REFERENCE_CHUNK_S / 2] * 3), 2.0)


class MetricNamesTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

    def test_names_and_units_are_valid(self):
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in self.spec[key]]
        names += [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertIsNotNone(NAME.fullmatch(name), name)
        for key in ("end_to_end", "per_layer"):
            for m in self.spec[key]:
                self.assertIsNotNone(UNIT.fullmatch(m["unit"]), m["unit"])

    def test_spec_matches_harness(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]},
                         layers.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]),
                         workloads.WORKLOADS)
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class TinyRunTest(unittest.TestCase):
    def test_each_workload_path(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                runs = run.measure(workload, seed=1, seconds=0, trace=True, size="tiny")
                for trace, names in ((False, run.END_TO_END), (True, layers.PER_LAYER)):
                    result = run.summarize(runs, trace)
                    self.assertTrue(result["correct"], runs)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(set(result["metrics"]), set(names))
                metrics = run.summarize(runs, True)["metrics"]
                self.assertGreater(metrics["trace.coverage"]["value"], 0.5)


if __name__ == "__main__":
    unittest.main()

"""Self-test of the benchmark's own arithmetic on synthetic inputs.

Run from the repository root::

    python3 perfbench/selftest.py

It needs no source tree: percentiles, span self time and failure counts
are checked on made-up samples, clocks and answers.
"""

import os
import random
import sys
import unittest
from types import SimpleNamespace

import layers
import measure
import speed
from tracing import Tracer, layer_totals

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def _answer(text="42", value=42, abstained=False, degraded=False):
    metadata = {"route": "table"}
    if degraded:
        metadata["degraded"] = True
    return SimpleNamespace(text=text, value=value, confidence=0.9,
                           grounded=True, abstained=abstained,
                           system="hybrid", provenance=("sales",),
                           metadata=metadata)


class FakeClock:
    """A clock that moves only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class NearestRankTest(unittest.TestCase):
    def test_picks_an_observed_sample(self):
        self.assertEqual(measure.nearest_rank([4, 1, 3, 2], 50), 2)
        self.assertEqual(measure.nearest_rank([4, 1, 3, 2], 100), 4)
        self.assertEqual(measure.nearest_rank([4, 1, 3, 2], 1), 1)
        self.assertEqual(measure.nearest_rank(list(range(1, 101)), 90), 90)
        self.assertEqual(measure.nearest_rank([7.5], 99), 7.5)

    def test_ties(self):
        samples = [1, 2, 2, 2, 2, 2, 2, 2, 2, 3]
        self.assertEqual(measure.nearest_rank(samples, 50), 2)
        self.assertEqual(measure.nearest_rank(samples, 90), 2)
        self.assertEqual(measure.beyond(samples, 90), (1, 1))

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            measure.nearest_rank([], 50)
        with self.assertRaises(ValueError):
            measure.nearest_rank([1], 0)

    def test_tail_needs_ten_beyond(self):
        self.assertEqual(measure.tail_percentile(list(range(1, 1001)), 99),
                         990)
        self.assertIsNone(measure.tail_percentile(list(range(1, 1000)), 99))
        # ties with the percentile value are not beyond it
        tied = [1.0] * 980 + [2.0] * 15 + [3.0] * 5
        self.assertIsNone(measure.tail_percentile(tied, 99))
        writes = list(range(21))
        self.assertEqual(measure.tail_percentile(writes, 50), 10)
        self.assertIsNone(measure.tail_percentile(writes[:20], 50))


class SamplesTest(unittest.TestCase):
    def test_every_ask_and_write_is_charged_its_call(self):
        calls = [(1, 0, 5.0), (8, 0, 2.0), (0, 1, 30.0), (1, 0, 4.0)]
        samples = measure.samples(calls)
        self.assertEqual(sorted(samples.ask_ms), [2.0] * 8 + [4.0, 5.0])
        self.assertEqual(samples.write_ms, [30.0])
        self.assertAlmostEqual(samples.wall_s, 0.041)
        self.assertAlmostEqual(samples.asks_per_s, 10 / 0.041)

    def test_needs_an_ask(self):
        with self.assertRaises(ValueError):
            measure.samples([(0, 1, 1.0)])
        with self.assertRaises(ValueError):
            measure.samples([])

    def test_call_ms_scales_each_interval(self):
        calls = [(1, 0, 10.0, 10.002), (8, 1, 20.0, 20.5)]
        plain = measure.call_ms(calls)
        self.assertEqual([c[:2] for c in plain], [(1, 0), (8, 1)])
        self.assertAlmostEqual(plain[0][2], 2.0)
        self.assertAlmostEqual(plain[1][2], 500.0)
        scaled = measure.call_ms(calls, lambda start, end: start / 10.0)
        self.assertAlmostEqual(scaled[0][2], 2.0)
        self.assertAlmostEqual(scaled[1][2], 1000.0)


class SpeedProbeTest(unittest.TestCase):
    """The speed correction, driven by hand instead of by SIGALRM."""

    def _probe(self, clock, durations):
        durations = iter(durations)

        def work():
            clock.now += next(durations)

        return speed.SpeedProbe(work=work, clock=clock)

    def test_clock_stands_still_during_probes(self):
        clock = FakeClock()
        ref = speed.REFERENCE_S
        probe = self._probe(clock, [ref, 2 * ref])
        clock.now = 5.0
        probe.sample()
        self.assertAlmostEqual(probe.now(), 5.0)
        clock.now += 0.25
        probe.sample()
        self.assertAlmostEqual(probe.now(), 5.25)
        self.assertEqual(len(probe.times), 2)
        self.assertAlmostEqual(probe.times[1], 5.25)
        self.assertAlmostEqual(probe.speeds[0], 1.0)
        self.assertAlmostEqual(probe.speeds[1], 0.5)
        self.assertAlmostEqual(probe.mean_speed, 0.75)

    def test_a_signal_during_a_probe_is_ignored(self):
        clock = FakeClock()
        probe = None

        def work():
            clock.now += speed.REFERENCE_S
            probe.sample()  # as if SIGALRM arrived mid-probe

        probe = speed.SpeedProbe(work=work, clock=clock)
        clock.now = 1.0
        probe.sample()
        self.assertAlmostEqual(probe.now(), 1.0)
        self.assertEqual(len(probe.speeds), 1)
        self.assertAlmostEqual(probe.speeds[0], 1.0)

    def test_scale_is_a_power_of_the_mean_speed_near_the_interval(self):
        clock = FakeClock()
        ref = speed.REFERENCE_S
        # speeds 1, 0.5, 0.25, 1 at probe-free times 0, 1, 2, 10
        probe = self._probe(clock, [ref, 2 * ref, 4 * ref, ref])
        for gap in (0.0, 1.0, 1.0, 8.0):
            clock.now += gap
            probe.sample()
        self.assertEqual(speed.WINDOW_S, 0.5)
        power = speed.EXPONENT
        self.assertAlmostEqual(probe.scale(0.9, 1.1), 0.5 ** power)
        self.assertAlmostEqual(probe.scale(0.4, 1.7),
                               ((1 + 0.5 + 0.25) / 3) ** power)
        self.assertAlmostEqual(probe.scale(9.6, 9.7), 1.0)
        with self.assertRaises(ValueError):
            probe.scale(5.0, 6.0)

    def test_gc_is_left_as_found(self):
        import gc
        clock = FakeClock()
        probe = self._probe(clock, [speed.REFERENCE_S] * 2)
        self.assertTrue(gc.isenabled())
        probe.sample()
        self.assertTrue(gc.isenabled())
        gc.disable()
        try:
            probe.sample()
            self.assertFalse(gc.isenabled())
        finally:
            gc.enable()

    def test_signal_driven_probes_run(self):
        import time
        with speed.SpeedProbe(every_s=0.01) as probe:
            deadline = time.perf_counter() + 0.2
            while time.perf_counter() < deadline:
                speed.probe_work()
        taken = len(probe.speeds)
        self.assertGreater(taken, 5)
        time.sleep(0.05)
        self.assertEqual(len(probe.speeds), taken)  # the timer stopped
        self.assertTrue(all(value > 0 for value in probe.speeds))


class ZipfTest(unittest.TestCase):
    def test_counts_are_exact_zipf_shares(self):
        counts = measure.zipf_counts(4, 1.0, 25)
        # shares 12/25 * 25 = 12, 6, 4, 3 exactly
        self.assertEqual(counts, [12, 6, 4, 3])
        counts = measure.zipf_counts(46, 1.1, 2664)
        self.assertEqual(sum(counts), 2664)
        self.assertEqual(counts, sorted(counts, reverse=True))

    def test_seeds_reorder_but_never_recount(self):
        first = measure.zipf_stream(random.Random(3), 20, 1.1, 400)
        again = measure.zipf_stream(random.Random(3), 20, 1.1, 400)
        other = measure.zipf_stream(random.Random(4), 20, 1.1, 400)
        self.assertEqual(first, again)
        self.assertNotEqual(first, other)
        self.assertEqual(sorted(first), sorted(other))
        self.assertEqual(first.count(0),
                         measure.zipf_counts(20, 1.1, 400)[0])


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans_subtract(self):
        clock = FakeClock()
        meter = SimpleNamespace(counters={"rows_scanned": 0})
        meter.get = lambda name: meter.counters.get(name, 0)
        tracer = Tracer(clock=clock)
        tracer.meter = meter

        def leaf():
            clock.now += 2.0
            meter.counters["rows_scanned"] += 5

        def middle():
            clock.now += 1.0
            leaf_traced()
            clock.now += 0.5
            leaf_traced()

        def outer():
            clock.now += 3.0
            middle_traced()

        leaf_traced = tracer.wrap("storage.leaf", leaf, ("rows_scanned",))
        middle_traced = tracer.wrap("qa.middle", middle)
        tracer.wrap("serving.outer", outer)()
        stats = tracer.take()
        self.assertAlmostEqual(stats["serving.outer"].self_s, 3.0)
        self.assertAlmostEqual(stats["qa.middle"].self_s, 1.5)
        self.assertAlmostEqual(stats["storage.leaf"].self_s, 4.0)
        self.assertEqual(stats["storage.leaf"].calls, 2)
        self.assertEqual(stats["storage.leaf"].self_work, 10)
        self.assertEqual(stats["qa.middle"].self_work, 0)
        self.assertEqual(stats["storage.leaf"].counters["rows_scanned"], 10)
        self.assertEqual(tracer.take(), {})
        totals = layer_totals(stats)
        self.assertAlmostEqual(totals["storage"][0], 4.0)
        self.assertEqual(totals["storage"][1], 10)

    def test_recursion_counts_once(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)

        def fib(n):
            clock.now += 1.0
            return n if n < 2 else traced(n - 1) + traced(n - 2)

        traced = tracer.wrap("text.fib", fib)
        self.assertEqual(traced(5), 5)
        stats = tracer.take()["text.fib"]
        self.assertEqual(stats.calls, 15)
        self.assertAlmostEqual(stats.self_s, 15.0)

    def test_exception_still_closes_span(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)

        def boom():
            clock.now += 1.0
            raise KeyError("x")

        with self.assertRaises(KeyError):
            tracer.wrap("qa.boom", boom)()
        self.assertAlmostEqual(tracer.take()["qa.boom"].self_s, 1.0)

    def test_install_and_uninstall_restore(self):
        target = SimpleNamespace(calls=0)

        class Owner:
            def work(self):
                target.calls += 1
                return "done"

        original = Owner.__dict__["work"]
        tracer = Tracer()
        tracer._patch(Owner, "work", original,
                      tracer.wrap("qa.work", original))
        self.assertEqual(Owner().work(), "done")
        tracer.uninstall()
        self.assertIs(Owner.__dict__["work"], original)
        self.assertEqual(tracer.take()["qa.work"].calls, 1)


class FailureTest(unittest.TestCase):
    def test_every_failure_kind_counts(self):
        failures = measure.Failures()
        self.assertFalse(failures.ask(_answer()))
        self.assertTrue(failures.ask(_answer(abstained=True)))
        self.assertTrue(failures.ask(_answer(degraded=True)))
        self.assertTrue(failures.ask(_answer(), shed=True))
        self.assertTrue(failures.ask(raised=True))
        self.assertFalse(failures.write("ok (text note-001 reindexed)"))
        self.assertTrue(failures.write(
            "write failed (absorbed into degradation record)"))
        self.assertTrue(failures.write(raised=True))
        self.assertEqual((failures.attempted, failures.failed), (8, 6))
        self.assertAlmostEqual(failures.rate, 0.75)
        self.assertEqual(measure.Failures().rate, 0.0)


class OracleTest(unittest.TestCase):
    def test_wrong_answer_fails_the_check(self):
        accuracy = measure.Accuracy()
        right, wrong = _answer(), _answer(text="41", value=41)
        accuracy.check(measure.fingerprint(right)
                       == measure.fingerprint(_answer()), "same")
        self.assertTrue(accuracy.perfect)
        accuracy.check(measure.fingerprint(wrong)
                       == measure.fingerprint(right), "wrong value")
        self.assertFalse(accuracy.perfect)
        self.assertAlmostEqual(accuracy.share, 0.5)
        self.assertEqual(accuracy.mismatches, ["wrong value"])

    def test_metadata_differences_are_seen(self):
        plain, degraded = _answer(), _answer(degraded=True)
        self.assertNotEqual(measure.fingerprint(plain),
                            measure.fingerprint(degraded))

    def test_nothing_checked_is_not_perfect(self):
        self.assertFalse(measure.Accuracy().perfect)


class PerLayerTest(unittest.TestCase):
    def test_reports_every_metric_without_a_server(self):
        phase = SimpleNamespace(calls=[(2, 0, 0.0, 1.0)] * 2,
                                stats_before={}, stats_after={})
        untraced = SimpleNamespace(calls=[(4, 0, 0.0, 1.0)] * 2)
        metrics = layers.per_layer({}, {}, phase, untraced, work=40)
        self.assertEqual(metrics["meter.work_per_ask"], (10.0, "count"))
        self.assertAlmostEqual(metrics["trace.overhead_pct"][0], 50.0)
        self.assertEqual(metrics["serving.answer_hit_rate"][0], 0.0)
        self.assertEqual(metrics["untraced.ask_p99_ms"][0], 0.0)


@unittest.skipUnless(os.path.isdir(os.path.join(SRC, "repro")),
                     "no source tree beside perfbench/")
class GoldOracleTest(unittest.TestCase):
    """The ask-cold oracle fails a deliberately wrong answer."""

    def test_wrong_answer_lowers_accuracy(self):
        sys.path.insert(0, SRC)
        from repro.bench.datagen.queries import QAPair
        from repro.qa.answer import Answer
        from workloads import AskCold, Phase

        workload = AskCold()
        workload.pool = [QAPair("What were Q1 sales?", "structured_agg",
                                 answer_value=120.0)]
        right = Phase(answers=[Answer(text="120", value=120.0)])
        wrong = Phase(answers=[Answer(text="121", value=121.0)])
        workload.check(None, [0], right, None)
        workload.check(None, [0], wrong, None)
        self.assertTrue(right.accuracy.perfect)
        self.assertFalse(wrong.accuracy.perfect)
        self.assertEqual(wrong.accuracy.mismatches, ["What were Q1 sales?"])


@unittest.skipUnless(os.path.isdir(os.path.join(SRC, "repro")),
                     "no source tree beside perfbench/")
class ServePrimeTest(unittest.TestCase):
    """serve-zipf's pre-roll plays the stream's last bursts and checks
    their answers like the stream's."""

    def test_preroll_plays_the_tail_and_is_checked(self):
        sys.path.insert(0, SRC)
        from repro.bench.datagen.queries import QAPair
        from repro.qa.answer import Answer
        from repro.serving import ServeResult
        from workloads import GOVERNED_TENANT, OPEN_TENANT, ServeZipf

        right = Answer(text="120", value=120.0)
        wrong = Answer(text="121", value=121.0)
        served = []

        def serve(requests):
            served.append([(r.payload["question"], r.tenant)
                           for r in requests])
            return [ServeResult(index=i, op="ask", session="s",
                                answer=right if i == 0 else wrong)
                    for i, _ in enumerate(requests)]

        workload = ServeZipf()
        workload.preroll_bursts = 2
        workload.pool = [QAPair("What were Q1 sales?", "structured_agg",
                                answer_value=120.0)]
        stream = [[(0, OPEN_TENANT)], [(0, GOVERNED_TENANT)],
                  [(0, OPEN_TENANT), (0, GOVERNED_TENANT)]]
        expected = {(0, OPEN_TENANT): measure.fingerprint(right),
                    (0, GOVERNED_TENANT): measure.fingerprint(right)}
        primed = workload.prime(SimpleNamespace(serve=serve), stream,
                                expected)
        question = "What were Q1 sales?"
        self.assertEqual(served, [[(question, GOVERNED_TENANT)],
                                  [(question, OPEN_TENANT),
                                   (question, GOVERNED_TENANT)]])
        self.assertEqual((primed.accuracy.checked, primed.accuracy.matched),
                         (3, 2))
        self.assertEqual(primed.accuracy.mismatches,
                         ["governed: What were Q1 sales?"])
        self.assertEqual((primed.failures.attempted, primed.failures.failed),
                         (3, 0))


@unittest.skipUnless(os.path.isdir(os.path.join(SRC, "repro")),
                     "no source tree beside perfbench/")
class IngestOracleTest(unittest.TestCase):
    """A stale answer inside a write window fails the ingest-mix check,
    and the final pass's failures are counted."""

    def test_stale_answer_and_final_failures(self):
        sys.path.insert(0, SRC)
        from repro.bench.datagen.queries import QAPair
        from repro.qa.answer import Answer
        from repro.serving import ServeResult
        from workloads import IngestMix, Phase

        fresh = Answer(text="fresh", value=2.0)
        stale = Answer(text="stale", value=1.0)
        abstained = Answer(text="", value=None, abstained=True)
        server = SimpleNamespace(serve=lambda requests: [
            ServeResult(index=i, op="ask", session="s", answer=abstained)
            for i, _ in enumerate(requests)])
        workload = IngestMix()
        workload.pool = [QAPair("How many notes?", "structured_agg",
                                answer_value=2.0)]
        stream = [(("note-1", "text"), [[0, 0]])]
        expected = ([measure.fingerprint(fresh)] * 2,
                    [measure.fingerprint(fresh)])
        phase = Phase(answers=[fresh, stale])
        workload.check(server, stream, phase, expected)
        self.assertEqual(phase.accuracy.checked, 3)
        self.assertEqual(phase.accuracy.matched, 1)
        self.assertEqual(phase.accuracy.mismatches,
                         ["during stream: How many notes?",
                          "after stream: How many notes?"])
        self.assertEqual((phase.failures.attempted, phase.failures.failed),
                         (1, 1))


if __name__ == "__main__":
    unittest.main()

"""Wall-clock benchmark of the repro system on three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ask-cold --seed 1 --seconds 10 \
        --trace 0

Both modes first draw request streams from ``--seed`` and compute the
oracle's expected answers in a child process (``prepare``).
``--trace 0`` then sets the workload up ``SETUPS`` times (``setup_s`` is
the median), replays a different stream on each of the first
``REPLAYS`` set-ups, and prints the end-to-end metrics of the replays'
samples pooled. Before a replay, the workload primes the set-up for
its stream, untimed (``serve-zipf`` plays the end of the stream). Its
times are corrected for the machine's speed (``speed.py``); the uncorrected wall figures are printed too, as
``wall.*``. ``--trace 1`` replays the stream once untraced and once on a
fresh set-up with every layer's entry points wrapped (``tracing.py``),
and prints the per-layer metrics plus the tracing overhead, in plain
wall time. Every replay's answers go through the workload's oracle.

Human-readable lines come first; the last line of standard output is one
JSON object. The exit code is 0 when every oracle check passed, 1 when
one failed, 2 on a usage or set-up error.
"""

import argparse
import concurrent.futures
import gc
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time

import measure
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Timed set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Set-ups that also replay a stream, each its own; their samples are
#: pooled.
REPLAYS = 2


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _streams_and_oracles(name: str, seeds, seconds: float):
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    workload.load()
    streams = [workload.stream(seed, seconds) for seed in seeds]
    return list(zip(streams, workload.expect(streams)))


def prepare(name: str, seed: int, seconds: float, count: int):
    """``count`` ``(stream, expected)`` pairs: request streams drawn
    from ``seed``, and the oracle's expected answers for each.

    They are made in a forked child process, which has ended when this
    returns, so the oracle's pipelines add nothing to this process's
    ``ru_maxrss`` and run before any timed call.
    """
    context = multiprocessing.get_context("fork")
    # Stream seeds of different --seed values never coincide.
    seeds = [seed * REPLAYS + i for i in range(count)]
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=1, mp_context=context) as child:
        return child.submit(_streams_and_oracles, name, seeds,
                            seconds).result()


def _setup_timed(workload, now, on_built=None):
    """A set-up and its ``(start, end)`` on the ``now`` clock."""
    gc.collect()
    started = now()
    state = workload.setup(on_built)
    return state, (started, now())


def _absorb(phase, primed) -> None:
    """Count the untimed priming calls' checks and failures in the
    replay's tallies."""
    phase.accuracy.absorb(primed.accuracy)
    phase.failures.absorb(primed.failures)


def _replay_checked(workload, state, stream, expected, now):
    primed = workload.prime(state, stream, expected)
    phase = workload.replay(state, stream, now)
    workload.check(state, stream, phase, expected)
    _absorb(phase, primed)
    return phase


def run_untraced(workload, seed: int, seconds: float):
    """SETUPS timed set-ups; the first REPLAYS each replay a stream."""
    prepared = prepare(workload.name, seed, seconds, REPLAYS)
    setups = []
    phases = []
    with speed.SpeedProbe() as probe:
        for _ in range(SETUPS):
            state = None  # free the previous set-up before timing the next
            state, interval = _setup_timed(workload, probe.now)
            setups.append(interval)
            if len(phases) < REPLAYS:
                stream, expected = prepared[len(phases)]
                phases.append(_replay_checked(workload, state, stream,
                                              expected, probe.now))
        state = None
    calls = [call for phase in phases for call in phase.calls]
    pooled = measure.samples(measure.call_ms(calls, probe.scale))
    wall = measure.samples(measure.call_ms(calls))
    metrics = {
        "setup_s": (statistics.median(
            (end - start) * probe.scale(start, end)
            for start, end in setups), "s"),
        "ask_p50_ms": (measure.nearest_rank(pooled.ask_ms, 50), "ms"),
        "ask_p90_ms": (measure.nearest_rank(pooled.ask_ms, 90), "ms"),
        "asks_per_s": (pooled.asks_per_s, "1/s"),
        "peak_rss_mb": (_rss_mb(), "MB"),
    }
    extra = _extra(pooled)
    extra.update({
        "wall.setup_s": (statistics.median(end - start
                                           for start, end in setups), "s"),
        "wall.ask_p50_ms": (measure.nearest_rank(wall.ask_ms, 50), "ms"),
        "wall.ask_p90_ms": (measure.nearest_rank(wall.ask_ms, 90), "ms"),
        "wall.asks_per_s": (wall.asks_per_s, "1/s"),
        "speed.mean": (probe.mean_speed, "ratio"),
        "speed.probes": (len(probe.speeds), "count"),
    })
    return phases, metrics, extra


def _accuracy(phases) -> measure.Accuracy:
    total = measure.Accuracy()
    for phase in phases:
        total.absorb(phase.accuracy)
    return total


def _failures(phases) -> measure.Failures:
    total = measure.Failures()
    for phase in phases:
        total.absorb(phase.failures)
    return total


def _extra(samples) -> dict:
    """Figures printed by name but kept out of the JSON metric set; the
    tails are printed only where ten samples lie beyond them."""
    out = {
        "asks": (len(samples.ask_ms), "count"),
        "writes": (len(samples.write_ms), "count"),
    }
    for name, values, pct in (("ask_p99_ms", samples.ask_ms, 99),
                              ("write_p50_ms", samples.write_ms, 50)):
        value = measure.tail_percentile(values, pct)
        if value is not None:
            out[name] = (value, "ms")
    return out


def run_traced(workload, seed: int, seconds: float):
    """One untraced replay, then one traced replay of the same stream on
    a fresh set-up."""
    import layers
    from tracing import Tracer

    [(stream, expected)] = prepare(workload.name, seed, seconds, 1)
    now = time.perf_counter
    state, _ = _setup_timed(workload, now)
    untraced = _replay_checked(workload, state, stream, expected, now)
    state = None

    tracer = Tracer()
    build = {}

    def on_built(pipeline):
        build.update(tracer.take())
        tracer.meter = pipeline.meter

    tracer.install()
    try:
        state, _ = _setup_timed(workload, now, on_built)
        primed = workload.prime(state, stream, expected)
        tracer.take()  # server construction and warm-up are not measured
        work_before = sum(tracer.meter.counters.values())
        traced = workload.replay(state, stream, now)
        work = sum(tracer.meter.counters.values()) - work_before
        spans = tracer.take()
    finally:
        tracer.uninstall()
    workload.check(state, stream, traced, expected)
    _absorb(traced, primed)
    metrics = layers.per_layer(spans, build, traced, untraced, work)
    return [untraced, traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no source tree at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(sorted(WORKLOADS))))
    workload = WORKLOADS[args.workload]()

    if args.trace:
        phases, metrics = run_traced(workload, args.seed, args.seconds)
        shown = dict(metrics)
    else:
        phases, metrics, extra = run_untraced(workload, args.seed,
                                              args.seconds)
        shown = dict(metrics, **extra)
    # Both read 1 and 0 on a correct run, so they are not JSON metrics:
    # the JSON carries them as "correct" and "failed"/"attempted".
    accuracy = _accuracy(phases)
    failures = _failures(phases)
    shown["accuracy"] = (accuracy.share, "ratio")
    shown["error_rate"] = (failures.rate, "ratio")

    for name, (value, unit) in shown.items():
        print("%-12s %-40s %14.6f %s" % (args.workload, name, value, unit))
    for label in accuracy.mismatches:
        print("MISMATCH %s" % label)
    print(json.dumps({
        "correct": accuracy.perfect,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if accuracy.perfect else 1


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer metrics from one traced measured phase.

Suffixes say what a figure is divided by:

* ``_per_ask``  — asks in the traced measured phase;
* ``_per_call`` — calls of that entry point;
* ``_per_miss`` — asks that reached ``HybridQAPipeline.answer`` (every
  ask on ``ask-cold``; answer-tier misses behind a server);
* no suffix on a ``self_ms`` — one *build event*: the set-up build on
  workloads without writes, the mean ``add_text`` ingest on ``ingest-mix``.

A layer that does not run on a workload reports 0. ``<layer>.us_per_work``
is the layer's self wall time per CostMeter work unit it charged, and 0
when it charged none (its time is invisible to the work clock).
"""

from typing import Dict, Tuple

import measure
from tracing import LAYERS, layer_totals

#: Spans reported as self milliseconds per ask.
PER_ASK = ("storage.execute", "semql.synthesize", "qa.route", "qa.execute",
           "qa.tableqa", "qa.textqa", "graphindex.bfs", "text.stem",
           "slm.generate", "serving.serve",
           "resilience.invoke")

#: Spans reported as self milliseconds per build event.
PER_BUILD = ("retrieval.index", "graphindex.pagerank",
             "graphindex.add_chunks", "slm.tag_entities",
             "extraction.generate")

Metrics = Dict[str, Tuple[float, str]]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _delta(before: dict, after: dict, *path) -> int:
    for key in path:
        before = before.get(key, {}) if isinstance(before, dict) else {}
        after = after.get(key, {}) if isinstance(after, dict) else {}
    return (after or 0) - (before or 0)


def _hit_rate(phase, tier: str) -> float:
    hits = _delta(phase.stats_before, phase.stats_after, "cache", tier,
                  "hits")
    misses = _delta(phase.stats_before, phase.stats_after, "cache", tier,
                    "misses")
    return _ratio(hits, hits + misses)


def per_layer(spans, build, traced, untraced, work: int) -> Metrics:
    """Every per-layer metric. ``spans``/``build`` are Tracer stats of the
    traced replay and of its set-up build; ``traced``/``untraced`` are
    the two replays of the same stream; ``work`` is the CostMeter work
    the traced replay did."""

    def self_ms(key: str, source=spans) -> float:
        span = source.get(key)
        return span.self_s * 1e3 if span is not None else 0.0

    def calls(key: str) -> int:
        span = spans.get(key)
        return span.calls if span is not None else 0

    def counter(key: str, name: str) -> int:
        span = spans.get(key)
        return span.counters.get(name, 0) if span is not None else 0

    traced_samples = measure.samples(measure.call_ms(traced.calls))
    untraced_samples = measure.samples(measure.call_ms(untraced.calls))
    asks = len(traced_samples.ask_ms)
    writes = len(traced_samples.write_ms)
    out: Metrics = {}
    for key in PER_ASK:
        out[key + ".self_ms_per_ask"] = (_ratio(self_ms(key), asks), "ms")
    for key in PER_BUILD:
        value = (_ratio(self_ms(key), writes) if writes
                 else self_ms(key, build))
        out[key + ".self_ms"] = (value, "ms")
    out["storage.rows_scanned_per_ask"] = (
        _ratio(counter("storage.execute", "rows_scanned"), asks), "count")
    out["retrieval.retrieve.self_ms_per_call"] = (
        _ratio(self_ms("retrieval.retrieve"), calls("retrieval.retrieve")),
        "ms")
    out["retrieval.nodes_scored_per_call"] = (
        _ratio(counter("retrieval.retrieve", "nodes_scored"),
               calls("retrieval.retrieve")), "count")
    out["graphindex.edges_traversed_per_ask"] = (
        _ratio(counter("graphindex.bfs", "edges_traversed"), asks), "count")
    out["text.stem.calls_per_ask"] = (_ratio(calls("text.stem"), asks),
                                      "count")
    out["tenancy.check.self_ms_per_miss"] = (
        _ratio(self_ms("tenancy.check"), calls("qa.answer")), "ms")

    before, after = traced.stats_before, traced.stats_after
    out["serving.answer_hit_rate"] = (_hit_rate(traced, "answer"), "ratio")
    out["serving.answer_evictions"] = (
        _delta(before, after, "cache", "answer", "evictions"), "count")
    out["serving.plan_hit_rate"] = (_hit_rate(traced, "plan"), "ratio")
    out["serving.retrieval_hit_rate"] = (_hit_rate(traced, "retrieval"),
                                         "ratio")
    out["serving.dedup_rate"] = (
        _ratio(_delta(before, after, "scheduler", "deduped"),
               _delta(before, after, "scheduler", "asks")), "ratio")
    out["serving.invalidations"] = (
        sum(_delta(before, after, "cache", tier, "invalidations")
            for tier in ("answer", "plan", "retrieval")), "count")
    out["sharding.fanout_per_ask"] = (
        _ratio(_delta(before, after, "sharding", "fanout_calls"), asks),
        "count")
    out["sharding.pruned_per_ask"] = (
        _ratio(_delta(before, after, "sharding", "pruned_calls"), asks),
        "count")

    out["meter.work_per_ask"] = (_ratio(work, asks), "count")
    totals = layer_totals(spans)
    for layer in LAYERS:
        seconds, layer_work = totals.get(layer, (0.0, 0))
        out[layer + ".us_per_work"] = (_ratio(seconds * 1e6, layer_work),
                                       "us")

    out["trace.overhead_pct"] = ((1.0 - _ratio(
        traced_samples.asks_per_s, untraced_samples.asks_per_s)) * 100.0,
        "%")
    for name, samples, pct in (
            ("untraced.ask_p99_ms", untraced_samples.ask_ms, 99),
            ("untraced.write_p50_ms", untraced_samples.write_ms, 50)):
        value = measure.tail_percentile(samples, pct)
        out[name] = (value if value is not None else 0.0, "ms")
    return out

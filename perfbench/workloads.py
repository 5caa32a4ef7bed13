"""The three benchmark workloads: data, request stream, oracle, replay.

Every workload is a closed loop with one client in one thread: the next
call is made only after the previous ``answer``/``serve`` call returned.
Sessions and tenants are request labels.

Each workload's lake and question pool are fixed, and Zipf ranks follow
the pool's own order: ``qa_pairs`` lists single-entity lookups first and
multi-entity questions last, so lookups are hot and the expensive
questions form the tail. A Zipf stream asks every question exactly its
Zipf share, in one fixed shuffle (``BASE_SEED``), and its seed picks
where the stream starts. Whether an expensive question is still cached
when it comes back depends on the shuffle, and a fresh shuffle per seed
made a stream's own work spread 0.22 across seeds on ``serve-zipf``;
rotations of one shuffle spread 0.05, so the spread of runs measures the
system rather than one seed's luck. ``serve-zipf`` also plays the end of
its stream, untimed, before the stream (``prime``), so every rotation
meets the answer tier in the same state.

* ``ask-cold``   — e-commerce lake (120 products); every distinct
  ``qa_pairs(per_kind=40)`` question once per pass through
  ``HybridQAPipeline.answer``, no server and no caches.
* ``serve-zipf`` — e-commerce lake (30 products) behind a
  ``QueryServer`` (full cache policy, batch 8) with a permissive and an
  RLS-governed tenant, warmed by one pass over the pool; Zipf(1.1) asks
  in bursts of 8, no writes.
* ``ingest-mix`` — healthcare lake on 2 shards, built without its last
  quarter of notes; the held-back notes stream in as ``add_text`` writes,
  each followed by 3 bursts of 8 Zipf asks.

A workload's methods, in the order ``run.py`` calls them:

* ``load()`` makes the lake and question pool (untimed; ``setup`` makes
  them again, timed);
* ``stream(seed, seconds)`` draws the request stream;
* ``expect(streams)`` computes what the oracle expects for every ask of
  each stream, with pipelines of its own that have no server and no caches
  (``run.py`` calls it in a child process, so its time and memory stay
  out of the measured process);
* ``setup()`` builds the system under test;
* ``prime(state, stream, expected)`` brings the system to the state the
  stream finds it in, untimed, and checks the answers it got;
* ``replay(state, stream, now)`` plays one stream and reads ``now()``
  before and after every call;
* ``check(state, stream, phase, expected)`` scores the replay's answers
  against those expectations.

``README.md`` beside this file says why each workload exists and which
layer it stresses.
"""

import dataclasses
import random
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from measure import Accuracy, Failures, fingerprint, zipf_stream

from repro.bench import (
    HealthSpec, LakeSpec, generate_ecommerce_lake, generate_healthcare_lake,
)
from repro.bench.runner import build_hybrid_system
from repro.serving import CachePolicy, QueryServer, ServeRequest
from repro.tenancy import TenantRegistry

BURST = 8
ZIPF_SKEW = 1.1
#: The shuffle of every Zipf stream; ``--seed`` only rotates it.
BASE_SEED = 0
OPEN_TENANT = "open"
GOVERNED_TENANT = "governed"
TENANTS = (OPEN_TENANT, GOVERNED_TENANT)
TENANT_SPEC = {"tenants": [
    {"id": OPEN_TENANT, "description": "permissive analyst"},
    {"id": GOVERNED_TENANT,
     "description": "2024 sales only, review and shipment documents",
     "rls": [{"table": "sales", "column": "year", "op": "=",
              "value": 2024}],
     "documents": ["review-", "ship-"]},
]}

#: Called with the freshly built pipeline, before the rest of set-up.
BuiltHook = Optional[Callable[[Any], None]]
#: Seconds, read before and after every timed call.
Clock = Callable[[], float]


@dataclasses.dataclass
class Phase:
    """What one replay of a stream observed.

    ``calls`` holds one ``(asks, writes, start_s, end_s)`` entry per
    public call, in stream order, read from the replay's clock;
    ``answers`` one answer (or None when the call raised) per ask, in
    stream order.
    """

    calls: List[Tuple[int, int, float, float]] = dataclasses.field(
        default_factory=list)
    answers: List[Any] = dataclasses.field(default_factory=list)
    failures: Failures = dataclasses.field(default_factory=Failures)
    accuracy: Accuracy = dataclasses.field(default_factory=Accuracy)
    #: QueryServer.stats() before and after the replay (serving workloads)
    stats_before: Dict[str, Any] = dataclasses.field(default_factory=dict)
    stats_after: Dict[str, Any] = dataclasses.field(default_factory=dict)


def _unique(pairs):
    seen = set()
    out = []
    for pair in pairs:
        if pair.question not in seen:
            seen.add(pair.question)
            out.append(pair)
    return out


def _zipf_bursts(n_pool: int, n_bursts: int) -> List[List[int]]:
    """Bursts of pool indices, Zipf(1.1) over the pool order, shuffled
    with ``BASE_SEED``."""
    ranks = zipf_stream(random.Random(BASE_SEED), n_pool, ZIPF_SKEW,
                        n_bursts * BURST)
    return [ranks[start:start + BURST]
            for start in range(0, len(ranks), BURST)]


def _rotated(items: list, seed: int) -> list:
    """``items`` started at a position drawn from ``seed``, wrapped
    around."""
    start = random.Random(seed).randrange(len(items))
    return items[start:] + items[:start]


def _ask(question: str, tenant: str = "default") -> ServeRequest:
    return ServeRequest("ask", {"question": question}, tenant=tenant)


def _serve_timed(server, requests: List[ServeRequest], phase: Phase,
                 now: Clock = time.perf_counter):
    """One timed ``serve()`` call, recorded in ``phase``."""
    started = now()
    try:
        results = server.serve(requests)
    except Exception:  # any raise out of the public call is a failure
        results = None
    ended = now()
    asks = sum(1 for request in requests if request.op == "ask")
    phase.calls.append((asks, len(requests) - asks, started, ended))
    if results is None:
        for request in requests:
            if request.op == "ask":
                phase.failures.ask(raised=True)
                phase.answers.append(None)
            else:
                phase.failures.write(raised=True)
        return
    for result in results:
        if result.op == "ask":
            phase.failures.ask(result.answer, shed=result.shed)
            phase.answers.append(result.answer)
        else:
            phase.failures.write(result.detail)


class AskCold:
    """Cold asks straight into the pipeline: the core query layers."""

    name = "ask-cold"
    n_products = 120
    per_kind = 40

    def load(self):
        self.lake = generate_ecommerce_lake(
            LakeSpec(n_products=self.n_products)
        )
        self.pool = _unique(self.lake.qa_pairs(per_kind=self.per_kind))

    def setup(self, on_built: BuiltHook = None):
        self.load()
        _system, pipeline = build_hybrid_system(self.lake)
        if on_built is not None:
            on_built(pipeline)
        return pipeline

    def stream(self, seed: int, seconds: float) -> List[int]:
        """One pass: every question once, in seeded order."""
        order = list(range(len(self.pool)))
        random.Random(seed).shuffle(order)
        return order

    def expect(self, streams) -> list:
        """Nothing to compute: the lake's gold labels are the oracle."""
        return [None] * len(streams)

    def prime(self, pipeline, stream, expected) -> Phase:
        """Nothing to do: every question is asked cold."""
        return Phase()

    def replay(self, pipeline, stream: List[int], now: Clock) -> Phase:
        phase = Phase()
        for index in stream:
            started = now()
            try:
                answer = pipeline.answer(self.pool[index].question)
            except Exception:  # counted, never hidden
                answer = None
            phase.calls.append((1, 0, started, now()))
            phase.answers.append(answer)
            phase.failures.ask(answer, raised=answer is None)
        return phase

    def check(self, pipeline, stream, phase: Phase, expected) -> None:
        """Every answer is scored with the lake's gold labels."""
        for index, answer in zip(stream, phase.answers):
            pair = self.pool[index]
            phase.accuracy.check(
                answer is not None and pair.is_correct(answer), pair.question
            )


class ServeZipf:
    """Zipf traffic through QueryServer: the serving/tenancy hit path."""

    name = "serve-zipf"
    n_products = 30
    per_kind = 10
    #: Stream length per second of ``--seconds``.
    bursts_per_second = 25
    #: Bursts from the end of the stream that ``prime`` plays.
    preroll_bursts = 60

    def load(self):
        self.lake = generate_ecommerce_lake(
            LakeSpec(n_products=self.n_products)
        )
        self.pool = _unique(self.lake.qa_pairs(per_kind=self.per_kind))
        self.registry = TenantRegistry.from_dict(TENANT_SPEC)

    def setup(self, on_built: BuiltHook = None):
        self.load()
        _system, pipeline = build_hybrid_system(self.lake)
        if on_built is not None:
            on_built(pipeline)
        server = QueryServer(pipeline, policy=CachePolicy(),
                             batch_size=BURST, tenants=self.registry)
        warmup = [_ask(pair.question, tenant)
                  for tenant in TENANTS for pair in self.pool]
        for start in range(0, len(warmup), BURST):
            server.serve(warmup[start:start + BURST])
        return server

    def stream(self, seed: int, seconds: float):
        """Bursts of (pool index, tenant) asks, each question's asks
        alternating between the tenants, rotated by ``seed``."""
        n_bursts = max(1, round(seconds * self.bursts_per_second))
        seen = [0] * len(self.pool)
        bursts = []
        for burst in _zipf_bursts(len(self.pool), n_bursts):
            bursts.append([])
            for index in burst:
                bursts[-1].append(
                    (index, TENANTS[(index + seen[index]) % len(TENANTS)]))
                seen[index] += 1
        return _rotated(bursts, seed)

    def expect(self, streams) -> List[Dict[Tuple[int, str], Tuple]]:
        """Per stream, the uncached answer of a separately built pipeline
        for each (pool index, tenant) it asks. Nothing writes, so each
        one is computed once for all the streams."""
        keys = sorted({ask for stream in streams
                       for burst in stream for ask in burst})
        _system, reference = build_hybrid_system(self.lake)
        answers = {(index, tenant): fingerprint(reference.answer(
                       self.pool[index].question,
                       tenant=self.registry.context(tenant)))
                   for index, tenant in keys}
        return [{ask: answers[ask] for burst in stream for ask in burst}
                for stream in streams]

    def _requests(self, burst) -> List[ServeRequest]:
        return [_ask(self.pool[index].question, tenant)
                for index, tenant in burst]

    def prime(self, server, stream, expected) -> Phase:
        """Play the stream's last ``preroll_bursts`` bursts, untimed,
        and check their answers like the stream's.

        The stream is a rotation of one cycle, so this leaves the answer
        tier much as the stream itself leaves it, and rotations find
        nearly the same entries cached. Straight after the warm-up pass
        instead, 56–64% of a 300-burst stream's bursts were pure cache
        hits depending on the rotation, which moved p50 within the hit
        cluster from seed to seed. Primed, a 250-burst stream served
        62.8% of its bursts from the cache at four of five seeds and
        66.8% at the fifth.
        """
        phase = Phase()
        tail = stream[-self.preroll_bursts:]
        for burst in tail:
            _serve_timed(server, self._requests(burst), phase)
        self.check(server, tail, phase, expected)
        return phase

    def replay(self, server, stream, now: Clock) -> Phase:
        phase = Phase(stats_before=server.stats())
        for burst in stream:
            _serve_timed(server, self._requests(burst), phase, now)
        phase.stats_after = server.stats()
        return phase

    def check(self, server, stream, phase: Phase, expected) -> None:
        """Each served answer must equal the uncached answer for its
        (tenant, question); the permissive tenant's answers must also
        match gold."""
        asks = [ask for burst in stream for ask in burst]
        for (index, tenant), answer in zip(asks, phase.answers):
            pair = self.pool[index]
            phase.accuracy.check(
                answer is not None
                and fingerprint(answer) == expected[(index, tenant)]
                and (tenant != OPEN_TENANT or pair.is_correct(answer)),
                "%s: %s" % (tenant, pair.question),
            )


class IngestMix:
    """Text ingests beside Zipf reads on a sharded healthcare lake."""

    name = "ingest-mix"
    n_drugs = 21
    per_kind = 6
    n_shards = 2
    bursts_per_write = 3

    def load(self):
        self.lake = generate_healthcare_lake(
            HealthSpec(n_drugs=self.n_drugs)
        )
        self.pool = _unique(self.lake.qa_pairs(per_kind=self.per_kind))
        split = len(self.lake.note_texts) - len(self.lake.note_texts) // 4
        self.held_back = self.lake.note_texts[split:]
        self.base = dataclasses.replace(
            self.lake, note_texts=self.lake.note_texts[:split])

    def setup(self, on_built: BuiltHook = None):
        self.load()
        _system, pipeline = build_hybrid_system(self.base,
                                                n_shards=self.n_shards)
        if on_built is not None:
            on_built(pipeline)
        return QueryServer(pipeline, policy=CachePolicy(), batch_size=BURST)

    def stream(self, seed: int, seconds: float):
        """Per held-back note, in order: the note, then a window of read
        bursts. The windows are rotated by ``seed``."""
        per = self.bursts_per_write
        bursts = _zipf_bursts(len(self.pool), len(self.held_back) * per)
        windows = [bursts[i * per:(i + 1) * per]
                   for i in range(len(self.held_back))]
        return list(zip(self.held_back, _rotated(windows, seed)))

    def expect(self, streams) -> List[Tuple[List[Tuple], List[Tuple]]]:
        """Per stream, ``(during, final)``. ``during`` holds, per ask, the
        answer of an uncached, unsharded pipeline that took the same
        writes before it. ``final`` holds, per pool question, the answer
        of a fresh unsharded build over the full lake.

        Every stream writes the same notes in the same order and only
        the read windows differ, so one reference pipeline serves them
        all. It keeps no caches, so each question is answered once per
        write.
        """
        _system, reference = build_hybrid_system(self.base)
        during: List[List[Tuple]] = [[] for _ in streams]
        for write, ((doc_id, text), _bursts) in enumerate(streams[0]):
            reference.ingest_incremental([(doc_id, text)])
            after_write: Dict[int, Tuple] = {}
            for stream, expected in zip(streams, during):
                assert stream[write][0][0] == doc_id, "writes out of order"
                for burst in stream[write][1]:
                    for index in burst:
                        if index not in after_write:
                            after_write[index] = fingerprint(
                                reference.answer(self.pool[index].question))
                        expected.append(after_write[index])
        _system, full = build_hybrid_system(self.lake)
        final = [fingerprint(full.answer(pair.question))
                 for pair in self.pool]
        return [(expected, final) for expected in during]

    def prime(self, server, stream, expected) -> Phase:
        """Nothing to do: every write invalidates the caches anyway."""
        return Phase()

    def replay(self, server, stream, now: Clock) -> Phase:
        phase = Phase(stats_before=server.stats())
        for (doc_id, text), bursts in stream:
            _serve_timed(server, [ServeRequest(
                "add_text", {"doc_id": doc_id, "text": text}
            )], phase, now)
            for burst in bursts:
                _serve_timed(server, [_ask(self.pool[index].question)
                                      for index in burst], phase, now)
        phase.stats_after = server.stats()
        return phase

    def check(self, server, stream, phase: Phase, expected) -> None:
        """Every ask must be answered as the uncached reference answered
        it at the same point of the stream. After the stream, every pool
        question is asked again through the server (untimed; its failures
        count) and must be answered as a fresh full-lake build answers
        it."""
        during, final_expected = expected
        asks = [index for _note, bursts in stream
                for burst in bursts for index in burst]
        for index, answer, want in zip(asks, phase.answers, during):
            phase.accuracy.check(
                answer is not None and fingerprint(answer) == want,
                "during stream: %s" % self.pool[index].question,
            )
        final = Phase()
        for start in range(0, len(self.pool), BURST):
            _serve_timed(server, [_ask(pair.question) for pair in
                                  self.pool[start:start + BURST]], final)
        phase.failures.absorb(final.failures)
        for pair, answer, want in zip(self.pool, final.answers,
                                      final_expected):
            phase.accuracy.check(
                answer is not None and fingerprint(answer) == want,
                "after stream: %s" % pair.question,
            )


WORKLOADS = {cls.name: cls for cls in (AskCold, ServeZipf, IngestMix)}

"""Wall-clock and work-clock spans around each layer's public entry points.

The traced run wraps the functions in :data:`TARGETS` from outside the
program: class methods are replaced on their class, and module-level
functions are rebound in every ``repro`` module that imported them by
name. :meth:`Tracer.uninstall` puts every original back.

A span's *self* time is its duration minus the durations of the wrapped
calls nested inside it; its self *work* is the CostMeter's total-counter
delta minus the nested spans' deltas. Keys are ``<layer>.<entry>``, the
layer being the ``src/repro/`` package the entry point belongs to.
"""

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (span key, module, class or None for a module function, attribute,
#: meter counters whose inclusive delta the span records)
TARGETS: Tuple[Tuple[str, str, Optional[str], str, Tuple[str, ...]], ...] = (
    ("storage.execute", "repro.storage.relational.database", "Database",
     "execute", ("rows_scanned",)),
    ("semql.synthesize", "repro.semql.synthesizer", "OperatorSynthesizer",
     "synthesize", ()),
    ("qa.route", "repro.qa.federation", "FederatedRouter", "route", ()),
    ("qa.execute", "repro.qa.executor", "PlanExecutor", "execute", ()),
    ("qa.execute", "repro.qa.speculative", "SpeculativeExecutor",
     "execute", ()),
    ("qa.tableqa", "repro.qa.tableqa", "TableQAEngine", "answer", ()),
    ("qa.textqa", "repro.qa.textqa", "TextQAEngine", "answer", ()),
    ("qa.answer", "repro.qa.pipeline", "HybridQAPipeline", "answer", ()),
    ("qa.ingest", "repro.qa.pipeline", "HybridQAPipeline",
     "ingest_incremental", ()),
    ("retrieval.retrieve", "repro.retrieval.topology", "TopologyRetriever",
     "retrieve", ("nodes_scored",)),
    ("retrieval.index", "repro.retrieval.topology", "TopologyRetriever",
     "index", ()),
    ("graphindex.pagerank", "repro.graphindex.centrality", None,
     "pagerank", ()),
    ("graphindex.add_chunks", "repro.graphindex.builder",
     "GraphIndexBuilder", "add_chunks", ()),
    ("graphindex.bfs", "repro.graphindex.hetgraph", "HeterogeneousGraph",
     "bfs", ("edges_traversed",)),
    ("text.stem", "repro.text.stemmer", None, "stem", ()),
    ("slm.generate", "repro.slm.model", "SmallLanguageModel", "generate",
     ()),
    ("slm.tag_entities", "repro.slm.model", "SmallLanguageModel",
     "tag_entities", ()),
    ("slm.embed", "repro.slm.model", "SmallLanguageModel", "embed", ()),
    ("slm.embed", "repro.slm.model", "SmallLanguageModel", "embed_batch",
     ()),
    ("slm.embed", "repro.slm.embeddings", "EmbeddingModel", "embed", ()),
    ("slm.embed", "repro.slm.embeddings", "EmbeddingModel", "embed_batch",
     ()),
    ("extraction.generate", "repro.extraction.table_gen", "TableGenerator",
     "generate", ()),
    ("serving.serve", "repro.serving.server", "QueryServer", "serve", ()),
    ("tenancy.check", "repro.tenancy.check", None, "check_tenancy", ()),
    ("resilience.invoke", "repro.resilience.backend", "ResilienceManager",
     "invoke", ()),
)

#: Layers the fidelity table reports, in print order.
LAYERS = ("storage", "semql", "qa", "retrieval", "graphindex", "text",
          "slm", "extraction", "serving", "tenancy", "resilience")


class SpanStats:
    """Totals for one span key."""

    __slots__ = ("calls", "self_s", "self_work", "counters")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.self_work = 0
        self.counters: Dict[str, int] = {}


class Tracer:
    """Collects self time and self work per span key while installed.

    ``meter`` is read for work; while it is None (for example during a
    build, before the pipeline's meter exists) spans record time only.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.meter = None
        self.stats: Dict[str, SpanStats] = {}
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Span arithmetic
    # ------------------------------------------------------------------
    def _work(self) -> int:
        meter = self.meter
        return sum(meter.counters.values()) if meter is not None else 0

    def _enter(self, key: str, counters: Sequence[str]) -> list:
        outermost = counters and self.meter is not None and not any(
            frame[0] == key for frame in self._stack
        )
        starts = ({name: self.meter.get(name) for name in counters}
                  if outermost else None)
        frame = [key, self.clock(), self._work(), 0.0, 0, starts]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        key, started, work_started, child_s, child_work, starts = frame
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("span %r closed out of order" % key)
        duration = self.clock() - started
        work = self._work() - work_started
        stats = self.stats.get(key)
        if stats is None:
            stats = self.stats[key] = SpanStats()
        stats.calls += 1
        stats.self_s += duration - child_s
        stats.self_work += work - child_work
        if starts is not None:
            for name, before in starts.items():
                stats.counters[name] = (stats.counters.get(name, 0)
                                        + self.meter.get(name) - before)
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent[4] += work

    def wrap(self, key: str, fn: Callable,
             counters: Sequence[str] = ()) -> Callable:
        """``fn`` timed as span ``key``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(key, counters)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return traced

    def take(self) -> Dict[str, SpanStats]:
        """The stats collected so far; collection restarts empty."""
        stats, self.stats = self.stats, {}
        return stats

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------
    def install(self, targets=TARGETS) -> None:
        """Wrap every target; raises if one no longer exists."""
        for key, module_name, class_name, attr, counters in targets:
            module = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original,
                            self.wrap(key, original, counters))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(key, original, counters)
            for name, loaded in list(sys.modules.items()):
                if name != "repro" and not name.startswith("repro."):
                    continue
                for binding, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, binding, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def layer_totals(stats: Dict[str, SpanStats]) -> Dict[str, Tuple[float, int]]:
    """(self seconds, self work) summed over each layer's spans."""
    out: Dict[str, Tuple[float, int]] = {}
    for key, span in stats.items():
        layer = key.split(".", 1)[0]
        seconds, work = out.get(layer, (0.0, 0))
        out[layer] = (seconds + span.self_s, work + span.self_work)
    return out

"""Equivalence gates for the cold-ask and build hot paths.

Three hot paths read precomputed state instead of redoing work, and
each must give exactly what the plain computation gives:

* ``pagerank`` walks one ``neighbors()`` snapshot per run; its scores
  must be bit-equal (``==``, not approximately equal) to the
  per-iteration ``neighbors()`` walk kept below as the reference, and it
  must charge the same ``edges_traversed``.
* ``TopologyRetriever`` reads keyword overlap off the BM25 posting
  lists; every candidate's ``lexical`` component must equal the
  set-intersection of freshly stemmed chunk and query terms.
* ``stem`` is memoised; it must agree with the unwrapped function.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import (
    HealthSpec, LakeSpec, generate_ecommerce_lake, generate_healthcare_lake,
)
from repro.bench.runner import build_hybrid_system
from repro.errors import GraphIndexError
from repro.graphindex import (
    EDGE_CO_OCCURS, EDGE_MENTIONS, EDGE_RELATES, GraphEdge, GraphNode,
    HeterogeneousGraph, NODE_CHUNK, NODE_ENTITY, NODE_RECORD, pagerank,
)
from repro.metering import EDGES_TRAVERSED, CostMeter
from repro.retrieval.topology import TopologyRetriever
from repro.text.stemmer import stem
from repro.text.stopwords import STOPWORDS
from repro.text.tokenizer import words

DOMAINS = ("ecommerce", "healthcare")


def _lake(domain):
    if domain == "ecommerce":
        return generate_ecommerce_lake(LakeSpec(seed=7))
    return generate_healthcare_lake(HealthSpec(seed=7))


@pytest.fixture(scope="module", params=DOMAINS)
def built(request):
    lake = _lake(request.param)
    _system, pipe = build_hybrid_system(lake, seed=0)
    return lake, pipe


# ----------------------------------------------------------------------
# PageRank
# ----------------------------------------------------------------------

def reference_pagerank(graph, damping=0.85, max_iterations=60,
                       tolerance=1e-8, weight_by_edge=True):
    """The per-iteration ``neighbors()`` walk PageRank used to run."""
    if not 0.0 < damping < 1.0:
        raise GraphIndexError("damping must be in (0, 1)")
    nodes = [n.node_id for n in graph.nodes()]
    n = len(nodes)
    if n == 0:
        return {}
    rank = {node_id: 1.0 / n for node_id in nodes}
    out_weight = {}
    for node_id in nodes:
        neighbors = graph.neighbors(node_id)
        if weight_by_edge:
            out_weight[node_id] = sum(e.weight for e, _ in neighbors)
        else:
            out_weight[node_id] = float(len(neighbors))
    teleport = (1.0 - damping) / n
    for _ in range(max_iterations):
        new_rank = {node_id: teleport for node_id in nodes}
        dangling_mass = 0.0
        for node_id in nodes:
            total_out = out_weight[node_id]
            if total_out == 0.0:
                dangling_mass += rank[node_id]
                continue
            share = damping * rank[node_id] / total_out
            for edge, neighbor in graph.neighbors(node_id):
                w = edge.weight if weight_by_edge else 1.0
                new_rank[neighbor.node_id] += share * w
        if dangling_mass > 0.0:
            spread = damping * dangling_mass / n
            for node_id in nodes:
                new_rank[node_id] += spread
        delta = sum(abs(new_rank[v] - rank[v]) for v in nodes)
        rank = new_rank
        if delta < tolerance:
            break
    return rank


def _charged(graph, meter, fn, **kwargs):
    """(result of fn(graph), edges_traversed it charged, full diff)."""
    with meter.measure() as work:
        result = fn(graph, **kwargs)
    return result, work.get(EDGES_TRAVERSED, 0), work


def assert_pagerank_equivalent(graph, meter, **kwargs):
    new, new_edges, new_work = _charged(graph, meter, pagerank, **kwargs)
    old, old_edges, old_work = _charged(graph, meter, reference_pagerank,
                                        **kwargs)
    assert new == old
    assert list(new) == list(old)
    assert new_edges == old_edges
    assert new_work == old_work


class TestPagerankSnapshot:
    def test_built_graph_bit_equal(self, built):
        _lake, pipe = built
        graph = pipe.graph
        meter = graph._meter  # noqa: SLF001 - the graph's own meter
        assert_pagerank_equivalent(graph, meter)
        assert_pagerank_equivalent(graph, meter, weight_by_edge=False)
        assert_pagerank_equivalent(graph, meter, damping=0.5,
                                   max_iterations=7)

    def test_charges_every_iteration(self):
        meter = CostMeter()
        graph = HeterogeneousGraph(meter=meter)
        for name in ("a", "b", "c"):
            graph.add_node(GraphNode("entity:%s" % name, NODE_ENTITY, name))
        graph.add_edge(GraphEdge("entity:a", "entity:b", EDGE_RELATES))
        # tolerance 0 never converges early: the snapshot read (2 edge
        # ends) plus 5 iterations of 2.
        _, edges, _ = _charged(graph, meter, pagerank, max_iterations=5,
                               tolerance=0.0)
        assert edges == 2 + 5 * 2

    def test_empty_and_edgeless_graphs_charge_nothing(self):
        meter = CostMeter()
        graph = HeterogeneousGraph(meter=meter)
        assert pagerank(graph) == {}
        graph.add_node(GraphNode("chunk:x", NODE_CHUNK, "x"))
        assert pagerank(graph) == reference_pagerank(graph)
        assert EDGES_TRAVERSED not in meter.snapshot()


_KINDS = (NODE_CHUNK, NODE_ENTITY, NODE_RECORD)
_EDGE_KINDS = (EDGE_MENTIONS, EDGE_CO_OCCURS, EDGE_RELATES)


@st.composite
def graphs(draw):
    """Small multigraphs: isolated nodes, self-loops, parallel edges."""
    n = draw(st.integers(min_value=1, max_value=9))
    kinds = draw(st.lists(st.sampled_from(_KINDS), min_size=n, max_size=n))
    # Ids are drawn out of insertion order so id-sorting matters.
    ids = draw(st.permutations(["n%d" % i for i in range(n)]))
    edges = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=0, max_value=n - 1),
            st.sampled_from(_EDGE_KINDS),
            st.sampled_from([None, "x", "y"]),
            st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
        ),
        max_size=20,
    ))
    meter = CostMeter()
    graph = HeterogeneousGraph(meter=meter)
    for node_id, kind in zip(ids, kinds):
        graph.add_node(GraphNode("%s:%s" % (kind, node_id), kind, node_id))
    names = ["%s:%s" % (kind, node_id) for node_id, kind in zip(ids, kinds)]
    for a, b, kind, label, weight in edges:
        graph.add_edge(GraphEdge(names[a], names[b], kind, label, weight))
    return graph, meter


@settings(max_examples=120)
@given(case=graphs(), weight_by_edge=st.booleans(),
       iterations=st.integers(min_value=1, max_value=60))
def test_random_multigraphs_bit_equal(case, weight_by_edge, iterations):
    graph, meter = case
    assert_pagerank_equivalent(graph, meter, weight_by_edge=weight_by_edge,
                               max_iterations=iterations)


def test_networkx_cross_check(built):
    nx = pytest.importorskip("networkx")
    pytest.importorskip("scipy")
    _lake, pipe = built
    graph = pipe.graph
    multi = nx.MultiGraph()
    multi.add_nodes_from(node.node_id for node in graph.nodes())
    for edge in graph.edges():
        multi.add_edge(edge.source, edge.target, weight=edge.weight)
    expected = nx.pagerank(multi, alpha=0.85, tol=1e-12, max_iter=500)
    got = pagerank(graph, max_iterations=500, tolerance=1e-12)
    assert set(got) == set(expected)
    for node_id, value in got.items():
        assert value == pytest.approx(expected[node_id], abs=1e-9)


# ----------------------------------------------------------------------
# Topology lexical overlap
# ----------------------------------------------------------------------

def _stems(text):
    return {stem.__wrapped__(w) for w in words(text) if w not in STOPWORDS}


def test_lexical_component_equals_set_intersection(built):
    lake, pipe = built
    chunks = pipe.text_store.chunks()
    retriever = TopologyRetriever(pipe.graph, pipe.slm, meter=CostMeter())
    retriever.index(chunks)
    weight = retriever._config.lexical_weight  # noqa: SLF001
    questions = [pair.question for pair in lake.qa_pairs()]
    questions.append("the of and")  # stopwords only: no query stems
    checked = 0
    for question in questions:
        query_stems = _stems(question)
        for hit in retriever.retrieve(question, k=len(chunks)):
            if "lexical" not in hit.components:
                continue  # BM25 fallback hit, not a topology candidate
            expected = (
                len(_stems(hit.chunk.text) & query_stems) / len(query_stems)
                if query_stems else 0.0
            )
            assert hit.components["lexical"] == weight * expected
            checked += 1
    assert checked > 100


# ----------------------------------------------------------------------
# Memoised stem
# ----------------------------------------------------------------------

def test_stem_memo_matches_unwrapped_on_lake_vocabulary(built):
    lake, pipe = built
    vocabulary = set()
    for chunk in pipe.text_store.chunks():
        vocabulary.update(words(chunk.text))
        vocabulary.update(words(chunk.text, lowercase=False))
    for pair in lake.qa_pairs():
        vocabulary.update(words(pair.question, lowercase=False))
    assert len(vocabulary) > 100
    for word in sorted(vocabulary):
        assert stem(word) == stem.__wrapped__(word)


@settings(max_examples=300)
@given(word=st.text(alphabet="abcdeilmnorstuyzABEIOSY", max_size=14))
def test_stem_memo_matches_unwrapped_on_random_words(word):
    assert stem(word) == stem.__wrapped__(word)
    assert stem(word) == stem.__wrapped__(word)  # second call: a cache hit


def test_stem_memo_is_bounded():
    assert stem.cache_info().maxsize is not None

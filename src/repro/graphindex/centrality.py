"""Centrality measures for topology-enhanced retrieval.

The paper's Section III.B prioritizes nodes by "centrality and
connectivity". Degree centrality and PageRank are computed natively
(power iteration) so the core library has no hard networkx dependency.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional

from ..errors import GraphIndexError
from .hetgraph import HeterogeneousGraph


def degree_centrality(graph: HeterogeneousGraph) -> Dict[str, float]:
    """Degree / (n - 1) per node (0 for a singleton graph)."""
    n = graph.n_nodes
    if n <= 1:
        return {node.node_id: 0.0 for node in graph.nodes()}
    return {
        node.node_id: graph.degree(node.node_id) / (n - 1)
        for node in graph.nodes()
    }


def pagerank(graph: HeterogeneousGraph, damping: float = 0.85,
             max_iterations: int = 60, tolerance: float = 1e-8,
             weight_by_edge: bool = True) -> Dict[str, float]:
    """Weighted PageRank via power iteration.

    Isolated nodes keep the teleport mass. Deterministic given the
    graph (iteration order is id-sorted).

    The adjacency is read once per run through ``graph.neighbors`` and
    every iteration walks that snapshot. Each iteration charges, in one
    lump, the ``edges_traversed`` that re-reading the neighbors of
    every node with out-weight would have cost, so the work clock is
    the same as a per-iteration walk.
    """
    if not 0.0 < damping < 1.0:
        raise GraphIndexError("damping must be in (0, 1)")
    nodes = [n.node_id for n in graph.nodes()]
    n = len(nodes)
    if n == 0:
        return {}
    rank = {node_id: 1.0 / n for node_id in nodes}
    # (node, out-weight, [(neighbor, edge weight)]) for nodes with
    # out-weight, in id order. Neighbors stay in neighbors()'s order:
    # the float sums must run in that order for bit-stable scores.
    sources = []
    sinks = []
    edges_per_iteration = 0
    for node_id in nodes:
        neighbors = graph.neighbors(node_id)
        if weight_by_edge:
            total_out = sum(e.weight for e, _ in neighbors)
        else:
            total_out = float(len(neighbors))
        if total_out == 0.0:
            sinks.append(node_id)
            continue
        sources.append((node_id, total_out, [
            (neighbor.node_id, edge.weight if weight_by_edge else 1.0)
            for edge, neighbor in neighbors
        ]))
        edges_per_iteration += len(neighbors)
    teleport = (1.0 - damping) / n
    for _ in range(max_iterations):
        graph.charge_traversal(edges_per_iteration)
        new_rank: Dict[str, float] = {node_id: teleport for node_id in nodes}
        dangling_mass = 0.0
        for node_id in sinks:
            dangling_mass += rank[node_id]
        for node_id, total_out, targets in sources:
            share = damping * rank[node_id] / total_out
            for target, w in targets:
                new_rank[target] += share * w
        if dangling_mass > 0.0:
            spread = damping * dangling_mass / n
            for node_id in nodes:
                new_rank[node_id] += spread
        delta = sum(abs(new_rank[v] - rank[v]) for v in nodes)
        rank = new_rank
        if delta < tolerance:
            break
    return rank


def harmonic_centrality(graph: HeterogeneousGraph,
                        max_depth: int = 4,
                        nodes: Optional[Iterable[str]] = None) -> Dict[str, float]:
    """Truncated harmonic centrality: sum of 1/d over BFS within depth.

    A cheap connectivity prior — nodes reaching many others in few hops
    score high; computed only for *nodes* when given (retrieval scores
    candidates lazily).
    """
    targets = list(nodes) if nodes is not None else [
        n.node_id for n in graph.nodes()
    ]
    out: Dict[str, float] = {}
    for node_id in targets:
        if not graph.has_node(node_id):
            raise GraphIndexError("no node %r" % node_id)
        depths = graph.bfs([node_id], max_depth=max_depth)
        out[node_id] = sum(
            1.0 / d for d in depths.values() if d > 0
        )
    return out


def normalize_scores(scores: Dict[str, float]) -> Dict[str, float]:
    """Scale a score dict to [0, 1] (constant dicts map to 0)."""
    if not scores:
        return {}
    low = min(scores.values())
    high = max(scores.values())
    if math.isclose(high, low):
        return {k: 0.0 for k in scores}
    return {k: (v - low) / (high - low) for k, v in scores.items()}

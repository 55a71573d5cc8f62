"""Trivial baselines: sanity anchors for the experiment tables."""

from __future__ import annotations

import networkx as nx

from repro.graphs.validation import ensure_weights
from repro.runtime.plan import SolverPlan

__all__ = ["all_edges_solution", "mst_plus_cheapest_cover"]


def all_edges_solution(graph: nx.Graph) -> float:
    """Weight of keeping the whole graph (the do-nothing upper bound)."""
    ensure_weights(graph)
    return float(graph.size(weight="weight"))


def mst_plus_cheapest_cover(graph: nx.Graph) -> float:
    """MST plus, for every tree edge, the cheapest non-tree link covering it.

    A natural heuristic with *no* approximation guarantee (a single tree
    edge's cheapest cover may be re-bought n times); the experiments use it
    to show why the paper's coverage discipline matters.
    """
    plan = SolverPlan.for_graph(graph)
    g, tree = plan.g, plan.tree
    best: dict[int, tuple[float, tuple[int, int]]] = {}
    for u, v, w in plan.links:
        for t in tree.path_edges(u, v):
            cur = best.get(t)
            if cur is None or w < cur[0]:
                best[t] = (w, (u, v))
    chosen = {link for _, link in best.values()}
    return plan.mst_weight + sum(g[u][v]["weight"] for u, v in chosen)

"""Exact vertical-link TAP via Edmonds' arborescence, and the classical
2-approximation for weighted TAP built on it.

Frederickson–JáJá (1981) / Khuller–Thurimella (1993, the paper's [22]):
weighted TAP where every link runs between an ancestor and a descendant
reduces *exactly* to a minimum-weight spanning out-arborescence:

* direct every tree edge from child to parent with weight 0;
* direct every link from its upper endpoint to its lower endpoint with its
  weight;
* delete the root's incoming arcs (forcing it to be the arborescence root).

A chosen link-arc ``anc -> dec`` "pays" for the tree path ``dec .. anc``; the
up-arcs let the arborescence walk back up for free.  Any out-arborescence
from the root induces a feasible cover (the last link-arc on the path to
``v`` must start strictly above ``v``, else the path would revisit a vertex),
and any cover induces an arborescence of the same weight — so Edmonds'
algorithm computes the exact optimum.

Splitting arbitrary links at their LCA (Lemma 4.1) loses at most a factor 2,
giving the classical 2-approximation for weighted TAP and, with an MST, the
3-approximation for weighted 2-ECSS — the quality regime of
Censor-Hillel–Dory [OPODIS'17] that the paper compares against.

``exact_vertical_tap`` doubles as the *exact optimum of the virtual
instance*, which the experiments use to certify the ``(2 + eps)``-on-``G'``
claim at sizes far beyond what a MILP can handle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import networkx as nx

from repro.core.virtual_graph import VirtualEdge, build_virtual_edges, map_back
from repro.exceptions import NotTwoEdgeConnectedError, SolverError
from repro.runtime.plan import SolverPlan
from repro.trees.rooted import RootedTree

__all__ = [
    "exact_vertical_tap",
    "tap_2approx_arborescence",
    "kt_tecss_3approx",
    "ArborescenceTapResult",
]


@dataclass
class ArborescenceTapResult:
    """Exact vertical-TAP cover: chosen virtual-edge ids and total weight."""

    eids: list[int]
    weight: float


def exact_vertical_tap(
    tree: RootedTree, vedges: Sequence[VirtualEdge]
) -> ArborescenceTapResult:
    """Exact minimum-weight cover of the tree by vertical links."""
    d = nx.DiGraph()
    d.add_nodes_from(range(tree.n))
    for v in tree.tree_edges():
        p = tree.parent[v]
        if p != tree.root:
            d.add_edge(v, p, weight=0.0, eid=-1)
    # The root's incoming up-arcs are omitted above, forcing the root.
    for e in vedges:
        cur = d.get_edge_data(e.anc, e.dec)
        if cur is None or e.weight < cur["weight"]:
            d.add_edge(e.anc, e.dec, weight=float(e.weight), eid=e.eid)
    try:
        arb = nx.minimum_spanning_arborescence(d, attr="weight", preserve_attrs=True)
    except nx.NetworkXException as exc:
        raise NotTwoEdgeConnectedError(
            "no arborescence: some tree edge is covered by no link"
        ) from exc
    eids = sorted(
        data["eid"] for _, _, data in arb.edges(data=True) if data["eid"] != -1
    )
    weight = sum(vedges[i].weight for i in eids)
    return ArborescenceTapResult(eids=eids, weight=weight)


def tap_2approx_arborescence(
    tree: RootedTree, links: Iterable[tuple[int, int, float]]
) -> tuple[list[tuple[int, int]], float]:
    """The classical 2-approximation for weighted TAP (FJ'81 / KT'93).

    Splits links at LCAs, solves the vertical instance exactly, maps back.
    """
    link_list = list(links)
    vedges = build_virtual_edges(tree, link_list)
    res = exact_vertical_tap(tree, vedges)
    origins = map_back(vedges, res.eids)
    weights = {}
    for u, v, w in link_list:
        weights.setdefault((u, v), w)
    weight = sum(weights[o] for o in origins)
    return origins, weight


@dataclass
class KtTecssResult:
    """Khuller–Thurimella 3-approximation output (MST + exact TAP)."""

    edges: list[tuple]
    weight: float
    mst_weight: float
    aug_weight: float


def kt_tecss_3approx(graph: nx.Graph) -> KtTecssResult:
    """MST + 2-approximate TAP = the classical 3-approximation for 2-ECSS."""
    plan = SolverPlan.for_graph(graph)
    aug, aug_weight = tap_2approx_arborescence(plan.tree, plan.links)
    chosen = sorted(set(plan.mst_edges).union(tuple(sorted(l)) for l in aug))
    return KtTecssResult(
        edges=[(plan.nodes[u], plan.nodes[v]) for u, v in chosen],
        weight=plan.mst_weight + aug_weight,
        mst_weight=plan.mst_weight,
        aug_weight=aug_weight,
    )

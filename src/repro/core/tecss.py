"""Weighted 2-ECSS via MST + tree augmentation (Theorem 1.1, Claim 2.1).

``approximate_two_ecss`` computes a minimum spanning tree, roots it, runs the
TAP approximation on the non-tree edges, and returns ``MST + augmentation``.
Since ``w(MST) <= OPT`` and ``OPT`` restricted to non-tree edges is a valid
augmentation, an ``alpha``-approximate TAP gives an ``(alpha+1)``-approximate
2-ECSS.  The ratio therefore depends on the reverse-delete ``variant``:

* ``variant="improved"`` — the c=2 cover bound of Section 4.6 gives a
  ``(2+eps)``-approximate cover on the virtual graph, ``4+eps`` for TAP on
  ``G`` after mapping back (Theorem 4.19), hence **``5 + eps`` for 2-ECSS**
  — the headline guarantee of Theorem 1.1;
* ``variant="basic"`` — the c=4 bound of Section 3.5 gives ``4+eps`` on the
  virtual graph, ``8+eps`` for TAP on ``G``, hence **``9 + eps`` for
  2-ECSS** (the Section 3 warm-up algorithm, kept for the E4 ablation).

``TwoEcssResult.guarantee`` records the variant-matched factor
(``2c + 1 + eps``); do not quote ``5 + eps`` for basic-variant runs.

The returned :class:`~repro.core.result.TwoEcssResult` carries a *certified*
lower bound (``max(w(MST), dual/2)``) so every run reports a checked ratio.
"""

from __future__ import annotations

import networkx as nx

from typing import Any, Sequence

from repro.core.result import TapResult, TwoEcssResult
from repro.core.reverse import COVER_BOUND
from repro.graphs.validation import check_two_edge_connected
from repro.trees.rooted import RootedTree

__all__ = [
    "approximate_two_ecss",
    "assemble_two_ecss",
    "nontree_links",
    "rooted_mst",
]


def rooted_mst(graph: nx.Graph) -> tuple[RootedTree, list[tuple]]:
    """Deterministic MST of a 0..n-1 graph, rooted at 0, plus its edge list."""
    mst = nx.minimum_spanning_tree(graph, weight="weight")
    edges = sorted(tuple(sorted(e)) for e in mst.edges())
    tree = RootedTree.from_edges(graph.number_of_nodes(), edges, root=0)
    return tree, edges


def nontree_links(
    graph: nx.Graph, mst_set: set[tuple[int, int]]
) -> list[tuple[int, int, float]]:
    """The candidate links: every non-MST edge as ``(u, v, weight)``."""
    links = []
    for u, v, data in graph.edges(data=True):
        key = tuple(sorted((u, v)))
        if key not in mst_set:
            links.append((key[0], key[1], float(data["weight"])))
    return links


def assemble_two_ecss(
    g: nx.Graph | None,
    nodes: "Sequence",
    mst_edges: list[tuple],
    tap: "TapResult",
    *,
    diameter: int,
    mst_weight: float,
    n: int,
    validate: bool = True,
    mst_simulation: Any = None,
    mst_edges_out: list | None = None,
) -> TwoEcssResult:
    """Combine MST + TAP augmentation into a validated :class:`TwoEcssResult`.

    Shared by the session runtime
    (:class:`repro.runtime.session.SolverSession`), the scenario batches
    (:mod:`repro.runtime.batch`) and the distributed pipeline
    (:func:`repro.dist.pipeline.distributed_two_ecss`).  ``nodes`` is the
    normalized-id -> label mapping, ``tap`` the
    :class:`~repro.core.result.TapResult` of the augmentation, and
    ``diameter``, ``mst_weight`` and ``n`` are the
    :class:`~repro.runtime.plan.SolverPlan` values for the same weights.
    ``g`` is the normalized 0..n-1 graph; only ``validate`` reads it, so
    callers may pass ``None`` otherwise.  ``mst_edges_out`` optionally
    supplies the label-mapped MST edge list
    (``[(nodes[u], nodes[v]) for u, v in mst_edges]``) so a caller
    assembling many scenarios over one tree maps it once; the results of
    such a batch share the list, read-only by convention.
    """
    mst_set = set(mst_edges)
    aug_edges = [tuple(sorted(link)) for link in tap.links]
    chosen = sorted(mst_set.union(aug_edges))
    weight = mst_weight + tap.weight

    if validate:
        sub = g.edge_subgraph(chosen).copy()
        sub.add_nodes_from(g.nodes())
        check_two_edge_connected(sub)

    # Map back to the caller's node labels.
    edges_out = [(nodes[u], nodes[v]) for u, v in chosen]
    mst_out = (
        [(nodes[u], nodes[v]) for u, v in mst_edges]
        if mst_edges_out is None
        else mst_edges_out
    )

    return TwoEcssResult(
        edges=edges_out,
        weight=weight,
        mst_edges=mst_out,
        mst_weight=mst_weight,
        augmentation=tap,
        diameter=diameter,
        n=n,
        guarantee=COVER_BOUND[tap.variant] * 2 + 1 + tap.eps,
        mst_simulation=mst_simulation,
    )


def approximate_two_ecss(
    graph: nx.Graph,
    eps: float = 0.25,
    variant: str = "improved",
    segmented: bool = True,
    validate: bool = True,
    simulate_mst: bool = False,
    backend: str = "reference",
) -> TwoEcssResult:
    """Approximate minimum-weight 2-ECSS of a weighted graph.

    The guarantee is ``5 + eps`` with ``variant="improved"`` (Theorem 1.1)
    and ``9 + eps`` with ``variant="basic"`` (Section 3; see the module
    docstring for the derivation).  ``backend="fast"`` runs the TAP phases
    on the vectorized kernels of :mod:`repro.fast` with bit-identical
    results; ``"reference"`` (default) keeps the per-edge Python loops.

    The graph may have arbitrary hashable node labels; edges need ``weight``
    attributes.  Raises :class:`~repro.exceptions.NotTwoEdgeConnectedError`
    when no 2-ECSS exists.

    With ``simulate_mst=True`` the MST step runs as a genuine message-level
    Borůvka on the CONGEST simulator (fidelity Level S) instead of the
    centralized solver; the result is provably the same tree (unique MST
    under the lexicographic tie-break), and the measured simulation stats
    land in ``result.mst_simulation``.

    This function is a thin wrapper over a fresh single-use
    :class:`repro.runtime.session.SolverSession`; repeated solves on one
    topology (weight reassignments, eps/variant sweeps, failure
    scenarios) should hold a session and use its ``solve``/``solve_many``
    to reuse the cached :class:`~repro.runtime.plan.SolverPlan` — outputs
    are bit-identical either way.
    """
    from repro.runtime.session import SolverSession

    return SolverSession(graph).solve(
        eps=eps,
        variant=variant,
        segmented=segmented,
        validate=validate,
        backend=backend,
        simulate_mst=simulate_mst,
    )

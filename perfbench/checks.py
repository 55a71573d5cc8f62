"""Output checks, run outside every timed region.

:func:`check_result` applies the per-result checks to a 2-ECSS result,
given either as a library result object or as its wire payload:

* every chosen edge is an input edge, and the MST edges and augmentation
  links are among the chosen edges;
* the chosen subgraph spans every node, is connected and has no bridge;
* the reported weight equals the sum of the chosen edges' input weights
  and equals ``mst_weight`` plus the augmentation weight;
* the Lemma 3.1 certificate holds: ``virtual_weight <= guarantee *
  dual_bound``.

:func:`same_solution` compares two results field by field for the
sampled equivalence checks (vectorized vs scalar, delta vs full column).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

import networkx as nx

Weights = Mapping[tuple[int, int], float]


@dataclass(frozen=True)
class ResultView:
    """The fields of a 2-ECSS result the checks read."""

    n: int
    edges: tuple[tuple[int, int], ...]
    weight: float
    mst_edges: tuple[tuple[int, int], ...]
    mst_weight: float
    aug_links: tuple[tuple[int, int], ...]
    aug_weight: float
    virtual_weight: float
    dual_bound: float
    guarantee: float


def _pairs(items: Any) -> tuple[tuple[int, int], ...]:
    return tuple((u, v) if u < v else (v, u) for u, v, *_ in items)


def view(result: Any) -> ResultView:
    """A :class:`ResultView` of a result object or a result payload dict."""
    if isinstance(result, Mapping):
        if result.get("type") == "dist_two_ecss":
            result = result["result"]
        aug = result["augmentation"]
        return ResultView(
            result["n"], _pairs(result["edges"]), result["weight"],
            _pairs(result["mst_edges"]), result["mst_weight"],
            _pairs(aug["links"]), aug["weight"], aug["virtual_weight"],
            aug["dual_bound"], aug["guarantee"],
        )
    result = getattr(result, "result", result)  # a sim-engine result
    aug = result.augmentation
    return ResultView(
        result.n, _pairs(result.edges), result.weight,
        _pairs(result.mst_edges), result.mst_weight, _pairs(aug.links),
        aug.weight, aug.virtual_weight, aug.dual_bound, aug.guarantee,
    )


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def check_result(weights: Weights, nodes: Any, result: Any,
                 bridgeless: set | None = None) -> list[str]:
    """Problems found in ``result`` for the input ``weights`` (empty if OK).

    ``weights`` maps ``(min(u, v), max(u, v))`` to the weight the solve
    was asked to use; ``nodes`` are the input graph's nodes.  The caller
    may pass one ``bridgeless`` set per input graph: edge sets found
    spanning and bridgeless on ``nodes`` are added to it, and a later
    result with the same edge set skips that graph search (the weight and
    certificate checks always run).
    """
    try:
        r = view(result)
    except (KeyError, TypeError, AttributeError) as exc:
        return [f"malformed result: {exc!r}"]
    problems = []
    chosen = set(r.edges)
    if len(chosen) != len(r.edges):
        problems.append("duplicate edges")
    foreign = [e for e in chosen if e not in weights]
    if foreign:
        problems.append(f"{len(foreign)} edges not in the input, e.g. {foreign[0]}")
        return problems
    if not set(r.mst_edges) <= chosen:
        problems.append("MST edges missing from the subgraph")
    if not set(r.aug_links) <= chosen:
        problems.append("augmentation links missing from the subgraph")
    if r.n != len(nodes):
        problems.append(f"n={r.n} but the input has {len(nodes)} nodes")
    key = frozenset(chosen)
    if bridgeless is None or key not in bridgeless:
        sub = nx.Graph()
        sub.add_nodes_from(nodes)
        sub.add_edges_from(chosen)
        if not nx.is_connected(sub):
            problems.append("subgraph is not spanning and connected")
        elif nx.has_bridges(sub):
            problems.append("subgraph has a bridge")
        elif bridgeless is not None:
            bridgeless.add(key)
    total = math.fsum(weights[e] for e in chosen)
    if not _close(total, r.weight):
        problems.append(f"weight {r.weight!r} != edge sum {total!r}")
    if not _close(r.weight, r.mst_weight + r.aug_weight):
        problems.append(
            f"weight {r.weight!r} != mst {r.mst_weight!r} + aug {r.aug_weight!r}"
        )
    mst_total = math.fsum(weights[e] for e in r.mst_edges if e in weights)
    if not _close(mst_total, r.mst_weight):
        problems.append(f"mst_weight {r.mst_weight!r} != MST edge sum {mst_total!r}")
    if not r.dual_bound > 0 or r.virtual_weight > r.guarantee * r.dual_bound * (1 + 1e-9):
        problems.append(
            f"certificate fails: virtual {r.virtual_weight!r} > "
            f"{r.guarantee!r} x dual {r.dual_bound!r}"
        )
    return problems


def same_solution(a: Any, b: Any) -> list[str]:
    """Fields on which two results differ (empty when they are identical)."""
    va, vb = view(a), view(b)
    return [
        name for name in ResultView.__dataclass_fields__
        if getattr(va, name) != getattr(vb, name)
    ]

"""Seeded input generators owned by the benchmark.

Every generator costs O(n + m), returns a simple ``nx.Graph`` on nodes
``0..n-1`` with a float ``weight`` on every edge, and guarantees
2-edge-connectivity: after sampling, each 2-edge-connected component is
found with networkx and, if there is more than one, a cycle of new edges
through all components is added (every former bridge then lies on that
cycle).  The final graph is checked with networkx before it is returned.
"""

from __future__ import annotations

import math
import random
from typing import Iterable

import networkx as nx

WEIGHT_LOW, WEIGHT_HIGH = 1.0, 100.0


class InputError(RuntimeError):
    """A generated input failed the networkx 2-edge-connectivity check."""


def _er_pairs(n: int, p: float, rng: random.Random) -> Iterable[tuple[int, int]]:
    """G(n, p) edge pairs by geometric skipping (Batagelj–Brandes), O(n + m)."""
    log_q = math.log(1.0 - p)
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            yield v, w


def _weighted(n: int, pairs: Iterable[tuple[int, int]],
              rng: random.Random) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for u, v in pairs:
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v, weight=rng.uniform(WEIGHT_LOW, WEIGHT_HIGH))
    return g


def _two_edge_components(g: nx.Graph) -> list[list[int]]:
    """Vertex sets of the 2-edge-connected components (sorted, O(n + m))."""
    bridges = list(nx.bridges(g)) if nx.is_connected(g) else None
    if bridges == []:
        return [list(g.nodes)]
    h = g.copy()
    h.remove_edges_from(bridges or [])
    if bridges is None:  # disconnected: split on bridges of each piece
        for comp in list(nx.connected_components(g)):
            sub = g.subgraph(comp)
            if sub.number_of_nodes() > 1:
                h.remove_edges_from(nx.bridges(sub))
    return sorted((sorted(c) for c in nx.connected_components(h)),
                  key=lambda c: c[0])


def make_two_edge_connected(g: nx.Graph, rng: random.Random) -> nx.Graph:
    """Add a cycle of random edges through the 2-edge-connected components.

    The loop's exit test is the networkx bridge check, so a returned graph
    has been verified; a pair that already has an edge is retried with
    fresh random endpoints on the next round.
    """
    for _ in range(16):
        comps = _two_edge_components(g)
        if len(comps) == 1:
            return g
        for a, b in zip(comps, comps[1:] + comps[:1]):
            u, v = rng.choice(a), rng.choice(b)
            if not g.has_edge(u, v):
                g.add_edge(u, v, weight=rng.uniform(WEIGHT_LOW, WEIGHT_HIGH))
    raise InputError("could not make the graph 2-edge-connected")


def verify_input(g: nx.Graph) -> None:
    """Raise :class:`InputError` unless ``g`` is connected and bridgeless."""
    if g.number_of_nodes() < 3 or not nx.is_connected(g) or nx.has_bridges(g):
        raise InputError("generated graph is not 2-edge-connected")


def er_graph(n: int, seed: int) -> nx.Graph:
    """Erdős–Rényi G(n, 3 ln n / n), patched to 2-edge-connectivity."""
    rng = random.Random(f"er:{n}:{seed}")
    p = min(1.0, 3.0 * math.log(n) / n)
    return make_two_edge_connected(_weighted(n, _er_pairs(n, p, rng), rng), rng)


def cycle_chords_graph(n: int, seed: int, chords: float = 0.5) -> nx.Graph:
    """A Hamiltonian cycle on a random node order plus ``chords * n`` chords."""
    rng = random.Random(f"cc:{n}:{seed}")
    order = list(range(n))
    rng.shuffle(order)
    pairs = [(order[i], order[(i + 1) % n]) for i in range(n)]
    pairs += [(rng.randrange(n), rng.randrange(n))
              for _ in range(int(chords * n))]
    return make_two_edge_connected(_weighted(n, pairs, rng), rng)


def grid_graph(n: int, seed: int) -> nx.Graph:
    """A rows x cols grid with rows * cols close to ``n`` (high diameter)."""
    rng = random.Random(f"grid:{n}:{seed}")
    rows = max(2, int(math.sqrt(n)))
    cols = max(2, round(n / rows))
    pairs = []
    for r in range(rows):
        for c in range(cols):
            x = r * cols + c
            if c + 1 < cols:
                pairs.append((x, x + 1))
            if r + 1 < rows:
                pairs.append((x, x + cols))
    return make_two_edge_connected(_weighted(rows * cols, pairs, rng), rng)


FAMILIES = {
    "erdos_renyi": er_graph,
    "cycle_chords": cycle_chords_graph,
    "grid": grid_graph,
}


def make_graph(family: str, n: int, seed: int) -> nx.Graph:
    """One input of ``family`` (see :data:`FAMILIES`), checked again with
    :func:`verify_input` before it is handed to the program."""
    g = FAMILIES[family](n, seed)
    verify_input(g)
    return g


def edge_weights(g: nx.Graph) -> dict[tuple[int, int], float]:
    """``{(min(u, v), max(u, v)): weight}`` for every edge of ``g``."""
    return {(u, v) if u < v else (v, u): w
            for u, v, w in g.edges(data="weight")}


def jitter(weights: list[float], positions: Iterable[int],
           rng: random.Random, rel: float) -> dict[int, float]:
    """New weights for ``positions``, each moved by at most ``rel``."""
    return {j: weights[j] * (1.0 + rng.uniform(-rel, rel)) for j in positions}

"""Swap-edge MST maintenance for sparse reweights.

:func:`repro.core.tecss.rooted_mst` computes the MST with networkx's
Kruskal, whose tie-break is fully deterministic: edges are *stably* sorted
by weight in the graph's edge-iteration order — which
:attr:`repro.runtime.handle.GraphHandle.edges` preserves from the input —
so the effective comparison key of edge ``i`` is the lexicographic pair
``(weight_i, i)`` and the MST is unique under it.  That uniqueness is what
makes incremental maintenance *exact*: this module replays a sparse weight
diff one edge at a time, applying the classic swap rules under the same
``(weight, position)`` key, and provably lands on the tree a fresh
stable-Kruskal run would produce.  It serves two callers: delta ticks
(:meth:`repro.runtime.plan.SolverPlan.from_delta`) and the columns of a
scenario batch (:mod:`repro.runtime.batch`), both diffing against the
session's base plan.

For a single edge ``i`` changing ``w -> w'`` there are four cases:

* **tree edge, decrease** — the tree is unchanged (its key only got
  smaller, every cut it was minimal for it still is);
* **non-tree edge, increase** — unchanged (its key only got bigger);
* **non-tree edge, decrease** — let ``t*`` be the tree edge with the
  lexicographically *largest* ``(w, pos)`` key on the tree path between
  ``i``'s endpoints; swap ``i`` in and ``t*`` out iff
  ``(w', i) < (w(t*), t*)`` (the cycle rule);
* **tree edge, increase** — let ``f*`` be the non-tree edge with the
  lexicographically *smallest* key crossing the cut that removing ``i``
  opens; swap iff ``(w', i) > (w(f*), f*)`` (the cut rule).

Each step performs at most one swap, so a ``k``-edge diff costs at most
``k`` swaps; the changes are applied in ascending edge position (any fixed
order works — after each step the invariant "current tree is the stable
Kruskal of the current weights" is restored).  Everything the replay
reads from the parent — its tree positions, float64 weight column,
non-tree mask, lex-max tree edge and float-exactness verdict — is cached
on the parent plan, so a replay costs O(k) Python plus numpy work only
when a cut-rule query fires.  Crossing-edge queries run vectorized over
the tree's Euler intervals when numpy is present
(:func:`repro.fast.kernels.min_weight_crossing`) and as an exact Python
scan otherwise — or when the parent column *or the diff's new values*
hold numbers a float64 cast could mis-rank (:func:`float_exact`).

:class:`DeltaFallback` signals "rebuild from scratch instead"; callers
also refuse diffs above :func:`diff_limit` edges before calling in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Collection, Mapping

from repro import obs
from repro.trees.rooted import RootedTree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.plan import SolverPlan

try:  # numpy is optional project-wide
    import numpy as _np
except ImportError:  # pragma: no cover - the CI image bakes numpy in
    _np = None

__all__ = [
    "DeltaFallback", "DeltaOutcome", "diff_limit", "float_exact",
    "maintain_mst",
]

#: Numbers at or beyond this magnitude may not survive a float64 cast
#: exactly (integers past ``2**53``); see :func:`float_exact`.
_FLOAT_EXACT_INT = 1 << 53


class DeltaFallback(Exception):
    """Raised when incremental maintenance should yield to a full rebuild."""


@dataclass
class DeltaOutcome:
    """The result of :func:`maintain_mst` for one sparse diff.

    ``mst_edges`` is sorted exactly like :func:`~repro.core.tecss.rooted_mst`
    output; ``tree`` and ``mst_edges`` are the parent plan's own objects
    when ``changed_tree`` is false (so every tree-derived artifact can be
    shared) and freshly built otherwise.  ``swaps`` records
    ``(removed, added)`` edge pairs for observability.
    """

    changed_tree: bool
    tree: RootedTree
    mst_edges: list[tuple[int, int]]
    swaps: list[tuple[tuple[int, int], tuple[int, int]]] = field(
        default_factory=list
    )


def diff_limit(m: int, max_fraction: float) -> int:
    """The largest diff, in edges, that maintenance is tried on.

    Larger diffs rebuild the MST from scratch: past a few percent of the
    edges the replay's per-change work costs more than one Kruskal.
    """
    return max(1, int(max_fraction * m))


def float_exact(column64: Any) -> bool:
    """Does a float64 column order its weights exactly as Python does?

    Floats cast to themselves, and an integer cast lands at or beyond
    ``2**53`` in magnitude only if it was not exactly representable — so
    a column whose largest magnitude stays below ``2**53`` compares
    exactly.  Anything else must be ordered on the original objects.
    """
    if not column64.size:
        return True
    return float(_np.abs(column64).max()) < _FLOAT_EXACT_INT


class _CrossingIndex:
    """Full-edge candidate arrays for cut-rule queries, built on first use.

    The numpy form copies the parent plan's cached float64 weight column
    and non-tree mask once per replay, patches in the changes and swaps
    applied so far, and then absorbs each further change or swap in O(1).
    Queries slice the candidate view out with fancy indexing — O(m) numpy,
    microseconds at ``m ~ 10^4``.  Only the Euler labels are re-extracted
    when the tree object changes.  Without numpy (or with a column a
    float64 cast could mis-rank) queries scan every edge in Python.
    """

    def __init__(
        self,
        parent: "SolverPlan",
        changed: Mapping[int, Any],
        swapped: "list[tuple[int, int]]",
        use_numpy: bool,
    ) -> None:
        self.m = parent.handle.m
        self.use_numpy = use_numpy
        if use_numpy:
            self.a, self.b = parent.handle._endpoint_arrays
            self.w = parent._weight_column64.copy()
            for j, w in changed.items():
                self.w[j] = w
            self.nontree = parent._nontree_mask.copy()
            for out_pos, in_pos in swapped:
                self.nontree[out_pos] = True
                self.nontree[in_pos] = False
            self.tree_obj = None
            self.tin = None
            self.tout = None
            self._pos = None
            self._pos_a = None
            self._pos_b = None

    def bind(self, tree: RootedTree) -> None:
        """Cache the tree's Euler labels as arrays (numpy path only)."""
        if self.use_numpy and self.tree_obj is not tree:
            self.tree_obj = tree
            self.tin = _np.asarray(tree.tin, dtype=_np.int64)
            self.tout = _np.asarray(tree.tout, dtype=_np.int64)

    def update_weight(self, j: int, w: Any) -> None:
        """Patch edge ``j``'s weight after a processed change."""
        if self.use_numpy:
            self.w[j] = w

    def apply_swap(self, out_pos: int, in_pos: int) -> None:
        """Record a swap: ``out_pos`` leaves the tree, ``in_pos`` enters."""
        if self.use_numpy:
            self.nontree[out_pos] = True
            self.nontree[in_pos] = False
            self._pos = None  # candidate view is stale

    def global_min(
        self, weight: Callable[[int], Any], tpos: Collection[int]
    ) -> "tuple[Any, int] | None":
        """Lex-min ``(weight, position)`` over *all* non-tree edges.

        A lower bound on any crossing query — the cut rule uses it to
        skip the (far costlier) crossing scan whenever even the globally
        lightest non-tree edge cannot beat the changed tree edge.
        """
        if self.use_numpy:
            masked = _np.where(self.nontree, self.w, _np.inf)
            j = int(masked.argmin())  # first occurrence == lex-min
            return (weight(j), j)
        best = None
        for j in range(self.m):
            if j in tpos:
                continue
            cand = (weight(j), j)
            if best is None or cand < best:
                best = cand
        return best

    def min_crossing(
        self,
        tree: RootedTree,
        cut_child: int,
        weight: Callable[[int], Any],
        tpos: Collection[int],
        edges: "list[tuple[int, int]]",
    ) -> "int | None":
        """Lex-min ``(weight, position)`` non-tree edge crossing the cut.

        The cut separates ``subtree(cut_child)`` from the rest.  Returns
        the edge position or ``None`` when no candidate crosses.
        """
        if self.use_numpy:
            from repro.fast.kernels import min_weight_crossing

            self.bind(tree)
            if self._pos is None:
                # Endpoints are immutable between swaps; only the weight
                # view is re-sliced per query (weights mutate under us).
                self._pos = _np.flatnonzero(self.nontree)
                self._pos_a = self.a[self._pos]
                self._pos_b = self.b[self._pos]
            k = min_weight_crossing(
                self.tin, self.tout, self._pos_a, self._pos_b,
                self.w[self._pos], cut_child,
            )
            return None if k < 0 else int(self._pos[k])
        best = None
        anc = tree.is_ancestor
        for j, (u, v) in enumerate(edges):
            if j in tpos:
                continue
            if anc(cut_child, u) != anc(cut_child, v):
                cand = (weight(j), j)
                if best is None or cand < best:
                    best = cand
        return None if best is None else best[1]


def maintain_mst(
    parent: "SolverPlan",
    changes: Mapping[int, Any],
    *,
    max_swaps: int | None = None,
) -> DeltaOutcome:
    """Replay ``changes`` over ``parent``'s MST (module doc).

    ``changes`` maps handle edge positions to new weights; the old
    weights are ``parent.handle.weights``.  Raises :class:`DeltaFallback`
    when the swap budget (default: one swap per change, the provable
    maximum) is exceeded.  When tracing is on, the replay runs under a
    ``delta.maintain`` span carrying the change/swap counts (a fallback
    shows up as its ``error`` attribute).
    """
    with obs.span("delta.maintain", changed=len(changes)) as span:
        outcome = _maintain_mst(parent, changes, max_swaps=max_swaps)
        span.set(swaps=len(outcome.swaps), changed_tree=outcome.changed_tree)
    return outcome


def _maintain_mst(
    parent: "SolverPlan",
    changes: Mapping[int, Any],
    *,
    max_swaps: int | None = None,
) -> DeltaOutcome:
    """The replay body behind :func:`maintain_mst`."""
    handle = parent.handle
    edges = handle.edges
    pair_index = handle._pair_index
    base_weights = handle.weights
    changed: dict[int, Any] = {}  # changes applied so far

    def _weight(j: int) -> Any:
        return changed[j] if j in changed else base_weights[j]

    def _key(j: int) -> tuple[int, int]:
        u, v = edges[j]
        return (u, v) if u < v else (v, u)

    tpos = parent._tree_positions  # current tree edges, by position
    swapped: list[tuple[int, int]] = []  # (out_pos, in_pos)
    budget = len(changes) if max_swaps is None else max_swaps
    use_numpy = (
        _np is not None
        and parent._weights_float_exact
        and float_exact(_np.fromiter(
            changes.values(), dtype=_np.float64, count=len(changes)
        ))
    )
    crossing: _CrossingIndex | None = None
    cur_tree = parent.tree
    tree_dirty = False

    def _tree() -> RootedTree:
        # Rebuilt lazily so back-to-back swaps (and a final swap with no
        # rule left to evaluate) never pay for an intermediate rooting.
        nonlocal cur_tree, tree_dirty
        if tree_dirty:
            # sorted(): from_edges assigns DFS/Euler labels in input
            # order, and downstream tie-breaks compare those labels —
            # feeding raw set order here made mid-replay trees (and thus
            # swap choices on ties) vary run to run.
            cur_tree = RootedTree.from_edges(
                handle.n, sorted(_key(j) for j in tpos), root=0
            )
            tree_dirty = False
        return cur_tree

    # Lex-max (weight, position) over the current tree edges — an upper
    # bound on every cycle-rule path-max.  Most drift changes fail even
    # this bound (a lightened non-tree edge still heavier than *any*
    # tree edge cannot displace one), so the O(path) walk is skipped for
    # them; the bound is kept current below and recomputed on demand
    # only after a swap or a change to the max edge itself.
    tree_max: "tuple[Any, int] | None" = parent._tree_lex_max

    def _tree_max() -> "tuple[Any, int]":
        nonlocal tree_max
        if tree_max is None:
            tree_max = max((_weight(j), j) for j in tpos)
        return tree_max

    for i in sorted(changes):
        new = changes[i]
        old = base_weights[i]
        u, v = edges[i]
        swap = None  # (out_pos, in_pos)
        if i in tpos:
            if new > old:
                # Cut rule: the tree edge got heavier; the lightest
                # crossing non-tree edge may replace it.
                if crossing is None:
                    crossing = _CrossingIndex(
                        parent, changed, swapped, use_numpy
                    )
                floor = crossing.global_min(_weight, tpos)
                if floor is not None and floor < (new, i):
                    t = _tree()
                    cut_child = u if t.parent[u] == v else v
                    j = crossing.min_crossing(
                        t, cut_child, _weight, tpos, edges
                    )
                    if j is not None and (_weight(j), j) < (new, i):
                        swap = (i, j)
        elif new < old and (new, i) < _tree_max():
            # Cycle rule: the non-tree edge got lighter; the heaviest
            # tree edge on its path may fall out.
            t = _tree()
            best = None
            for c in t.path_edges(u, v):
                te = pair_index[(c, t.parent[c])]
                cand = (_weight(te), te)
                if best is None or cand > best:
                    best = cand
            if best is not None and (new, i) < best:
                swap = (best[1], i)
        changed[i] = new
        if crossing is not None:
            crossing.update_weight(i, new)
        if i in tpos and tree_max is not None:
            # Keep the cycle-rule bound current: a heavier tree edge can
            # raise it in O(1); touching the max edge itself invalidates.
            if (new, i) > tree_max:
                tree_max = (new, i)
            elif i == tree_max[1]:
                tree_max = None
        if swap is not None:
            if len(swapped) >= budget:
                raise DeltaFallback(
                    f"swap budget exceeded ({budget} swaps)"
                )
            out_pos, in_pos = swap
            tpos = (tpos - {out_pos}) | {in_pos}
            swapped.append(swap)
            tree_dirty = True
            tree_max = None
            if crossing is not None:
                crossing.apply_swap(out_pos, in_pos)

    if not swapped:
        return DeltaOutcome(False, parent.tree, parent.mst_edges)
    out_edges = sorted(_key(j) for j in tpos)
    # Rebuild exactly as rooted_mst does: from the *sorted* edge list.
    return DeltaOutcome(
        True, RootedTree.from_edges(handle.n, out_edges, root=0), out_edges,
        [(_key(out_pos), _key(in_pos)) for out_pos, in_pos in swapped],
    )

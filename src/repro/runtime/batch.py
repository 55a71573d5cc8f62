"""Scenario-batched solving: many weight columns through one kernel pass.

The dominant production traffic shape is one topology × many weight
scenarios (Monte-Carlo what-if sweeps, failure studies).  The scalar path
(:meth:`repro.runtime.session.SolverSession.solve_many`) pays the full
per-scenario pipeline — nx Kruskal, link filtering, instance build, the
forward phase — once per scenario even though almost everything it
computes is a pure function of the *tree*, which scenario perturbations
rarely change.  This module restructures a compatible batch around that:

1. **Columns** — queries are deduplicated by weight column (equal values
   of different types, ``1`` and ``1.0``, stay apart: result types
   follow weight types).  Each distinct column is diffed exactly against
   the session's base column, whose tree, MST and float64 column come
   from :meth:`~repro.runtime.session.SolverSession.base_plan`.  A diff
   within the session's ``delta_max_fraction`` gets its MST from
   :func:`repro.runtime.delta.maintain_mst` — the delta path's swap-edge
   replay, O(diff) Python and usually no swap at all.  Larger diffs, and
   replays past ``delta_max_swaps``, fall back to
   :func:`stable_kruskal_mst`, a stable-sort Kruskal over the handle's
   flat edge arrays that reproduces :func:`repro.core.tecss.rooted_mst`
   edge for edge (same lexicographic ``(weight, edge-position)``
   tie-break) without materializing an ``nx.Graph``.  Both routes fall
   back to exact Python ordering when a float64 cast could reorder
   weights (integers beyond ``2**53``).  The ``batch.group`` span counts
   the columns each route resolved (``maintained`` / ``kruskal``).
2. **Tree groups** — columns with the same MST share one *structure*: one
   rooted tree, one link list shape, one virtual-edge structure, one set
   of kernel tree arrays.  Each scenario's plan is seeded with the shared
   tree through :meth:`~repro.runtime.plan.SolverPlan.with_tree`.  The
   group leader builds the structure — for the base tree, the base plan
   itself leads, so its already built instance is reused — and every
   other column derives its
   :class:`~repro.core.instance.TAPInstance` by patching the weight
   column alone (the dense generalization of the delta path's
   :meth:`~repro.runtime.plan.SolverPlan._derive_instance`).
3. **One forward pass per group** —
   :func:`repro.fast.forward.forward_phase_fast_batch` runs the epoch
   loop for all of a group's scenarios as ``(scenarios × edges)`` kernel
   calls; reverse-delete, certificates and assembly then run per scenario
   on the scenario's own instance.

Bit-identity: every step either shares an object the scalar path would
have computed (tree, links structure) or re-applies the scalar path's
exact arithmetic on a widened array, so the per-scenario results equal a
looped :meth:`~repro.runtime.session.SolverSession.solve_many` field for
field — held by ``tests/test_scenario_batch.py``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from repro import obs
from repro.core.instance import TAPInstance
from repro.core.reverse import COVER_BOUND, reverse_delete
from repro.core.tap import _certificates, assemble_tap_result
from repro.core.tecss import assemble_two_ecss
from repro.fast import require_numpy
from repro.runtime.delta import (
    DeltaFallback,
    DeltaOutcome,
    diff_limit,
    float_exact,
    maintain_mst,
)
from repro.runtime.handle import GraphHandle
from repro.runtime.plan import SolverPlan
from repro.trees.rooted import RootedTree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.session import SolveQuery, SolverSession

__all__ = ["solve_scenario_group", "stable_kruskal_mst"]


def stable_kruskal_mst(
    handle: GraphHandle, column: Any
) -> list[tuple[int, int]]:
    """The MST edge list of one weight column, without an ``nx.Graph``.

    ``column`` is the handle's weight column as float64 (any array-like
    aligned with ``handle.edges``).  Kruskal's algorithm over
    ``argsort(column, kind="stable")`` visits edges in ascending
    ``(weight, edge-position)`` order — exactly the order
    ``nx.minimum_spanning_tree`` (stable sort over the graph's
    edge-iteration order, which the handle preserves) uses — and the
    accepted edge *set* of Kruskal depends only on that order, not on the
    union-find implementation.  When the float64 cast could reorder
    weights (:func:`~repro.runtime.delta.float_exact` fails: integers
    beyond ``2**53``), the order comes from a stable Python sort of
    ``handle.weights`` instead.  The returned list is sorted normalized
    pairs, matching :func:`repro.core.tecss.rooted_mst` exactly.  The
    scenario batch runs it only for columns that swap-edge maintenance
    does not take.
    """
    np = require_numpy()
    a, b = handle._endpoint_arrays
    column = np.asarray(column, dtype=np.float64)
    if float_exact(column):
        order = np.argsort(column, kind="stable").tolist()
    else:
        order = sorted(range(handle.m), key=handle.weights.__getitem__)
    parent = list(range(handle.n))
    size = [1] * handle.n
    chosen: list[tuple[int, int]] = []
    need = handle.n - 1
    for pos in order:
        ru = int(a[pos])
        while parent[ru] != ru:
            parent[ru] = parent[parent[ru]]
            ru = parent[ru]
        rv = int(b[pos])
        while parent[rv] != rv:
            parent[rv] = parent[parent[rv]]
            rv = parent[rv]
        if ru == rv:
            continue
        if size[ru] < size[rv]:
            ru, rv = rv, ru
        parent[rv] = ru
        size[ru] += size[rv]
        u, v = int(a[pos]), int(b[pos])
        chosen.append((u, v) if u < v else (v, u))
        if len(chosen) == need:
            break
    chosen.sort()
    return chosen


def _same_types(a: Sequence, b: Sequence) -> bool:
    """Do two equal weight columns hold the same type at every position?"""
    return all(map(operator.is_, map(type, a), map(type, b)))


def _maintained_mst(
    base_plan: SolverPlan,
    handle: GraphHandle,
    column64: Any,
    limit: int,
    max_swaps: int | None,
) -> DeltaOutcome | None:
    """The column's MST by swap-edge maintenance over ``base_plan``.

    The diff against the base column is exact: a float64 compare when
    both columns cast exactly, else a compare of the weight objects.
    Returns ``None`` — run a full Kruskal — when the diff exceeds
    ``limit`` edges or the replay overruns its swap budget; a dense
    diff is rejected on its size alone, before any per-edge Python.
    """
    np = require_numpy()
    base_weights = base_plan.handle.weights
    if base_plan._weights_float_exact and float_exact(column64):
        diff = np.flatnonzero(column64 != base_plan._weight_column64)
        if diff.size > limit:
            return None
        positions = diff.tolist()
    else:
        positions = [
            j for j, (w, b) in enumerate(zip(handle.weights, base_weights))
            if w != b
        ]
        if len(positions) > limit:
            return None
    weights = handle.weights
    try:
        return maintain_mst(
            base_plan, {j: weights[j] for j in positions},
            max_swaps=max_swaps,
        )
    except DeltaFallback:
        return None


@dataclass
class _TreeGroup:
    """Shared structure for the scenarios whose MST is one given tree."""

    tree: RootedTree
    mst_edges: list[tuple[int, int]]
    leader_plan: SolverPlan | None = None
    link_pos: Any = None  # handle edge position of each link (int64)
    #: ``(scenario_index, plan, instance)`` triples, group insertion order.
    members: list[tuple[int, SolverPlan, TAPInstance]] = field(
        default_factory=list
    )


def _group_instance(
    plan: SolverPlan, group: _TreeGroup, column64: Any
) -> TAPInstance:
    """The plan's fast instance, derived from the group leader when possible.

    The first plan of a group builds the full structure (virtual-edge
    columns, layering, HLD, segments, kernel arrays) and becomes the
    leader, whose own instance is returned as is; later plans clone it
    with only the weight column rewritten —
    the same derivation :meth:`SolverPlan._derive_instance` performs for
    sparse deltas, generalized to a whole-column patch via the leader's
    link-position array (``weights64[link_pos]`` equals the ``float()``
    casts of a fresh link build, value for value).
    """
    from repro.core.virtual_graph import VirtualEdgeColumns

    np = require_numpy()
    if group.leader_plan is None:
        group.leader_plan = plan
        inst = plan.instance("fast")
        # Touch the lazy structure artifacts once so every derived
        # scenario shares them instead of rebuilding per scenario.
        inst.layering
        inst.hld
        inst.segments
        group.link_pos = np.asarray(plan._link_edge_pos, dtype=np.int64)
    if plan is group.leader_plan:
        return plan.instance("fast")
    leader_inst = group.leader_plan.instance("fast")
    cols = leader_inst.edges
    if not isinstance(cols, VirtualEdgeColumns):  # pragma: no cover - guard
        raise TypeError("scenario derivation needs fast-backend columns")
    link_w = column64[group.link_pos]
    edges = VirtualEdgeColumns(
        cols.dec, cols.anc, link_w[cols.link_of], cols.link_of,
        cols._links, cols._origins,
    )
    inst = TAPInstance(leader_inst.tree, edges, leader_inst.segment_size)
    inst.__dict__["arrays"] = leader_inst.arrays.reweighted(edges.weight)
    for name in ("layering", "hld", "segments"):
        if name in leader_inst.__dict__:
            inst.__dict__[name] = leader_inst.__dict__[name]
    plan._instances["fast"] = inst
    plan.instance_builds += 1
    return inst


def solve_scenario_group(
    session: "SolverSession",
    queries: "Sequence[SolveQuery]",
    eps: float,
    variant: str,
    segmented: bool,
    validate: bool,
) -> list[Any]:
    """Solve one compatible scenario group through the batched kernels.

    ``queries`` share ``eps``/``variant``/``segmented``/``validate``, the
    local engine, ``k=2``, the fast compute flavor, and carry no failure
    plans — :meth:`SolverSession.solve_batch_vectorized` enforces that
    before calling here.  Results come back aligned with ``queries`` and
    bit-identical to the scalar path.
    """
    from repro.fast.forward import forward_phase_fast_batch

    if variant not in COVER_BOUND:
        raise ValueError(f"variant must be one of {sorted(COVER_BOUND)}")
    np = require_numpy()
    base_plan = session.base_plan()
    base = base_plan.handle

    # Deduplicate queries by weight column: identical columns share one
    # scenario (and therefore one MST check, one instance, one solve).
    # Equal values of different types (``1`` vs ``1.0``) hash alike but
    # give different result types, so a hit also compares the types.
    handles: list[GraphHandle] = []
    scenario_of: list[int] = []
    seen: dict[tuple, list[int]] = {}
    for query in queries:
        handle = (
            base if query.weights is None else base.reweight(query.weights)
        )
        hits = seen.setdefault(handle.weights, [])
        for at in hits:
            if _same_types(handles[at].weights, handle.weights):
                break
        else:
            at = len(handles)
            hits.append(at)
            handles.append(handle)
        scenario_of.append(at)

    # Group scenarios by MST.  A column within the session's delta limit
    # of the base column gets its tree by swap-edge maintenance over the
    # base plan (O(diff) Python); a dense diff, or a swap-budget overrun,
    # runs a full Kruskal instead.
    limit = diff_limit(base.m, session.delta_max_fraction)
    base_key = tuple(base_plan.mst_edges)
    groups: dict[tuple, _TreeGroup] = {}
    routes = {"maintained": 0, "kruskal": 0}
    with obs.span("batch.group", scenarios=len(handles)) as group_span:
        for idx, handle in enumerate(handles):
            column64 = (
                base_plan._weight_column64 if handle is base
                else np.asarray(handle.weights, dtype=np.float64)
            )
            outcome = _maintained_mst(
                base_plan, handle, column64, limit, session.delta_max_swaps
            )
            tree: RootedTree | None = None
            if outcome is None:
                routes["kruskal"] += 1
                mst_edges = stable_kruskal_mst(handle, column64)
            else:
                routes["maintained"] += 1
                tree, mst_edges = outcome.tree, outcome.mst_edges
            tree_key = tuple(mst_edges)
            group = groups.get(tree_key)
            if group is None:
                if tree_key == base_key:
                    # The base plan leads its own tree's group: members
                    # patch weights into its (usually already built)
                    # instance instead of building the structure anew.
                    group = _TreeGroup(base_plan.tree, base_plan.mst_edges)
                    _group_instance(
                        base_plan, group, base_plan._weight_column64
                    )
                else:
                    group = _TreeGroup(
                        tree or RootedTree.from_edges(
                            handle.n, mst_edges, root=0
                        ),
                        mst_edges,
                    )
                groups[tree_key] = group
            plan = (
                base_plan if handle is base
                else SolverPlan.with_tree(handle, group.tree, group.mst_edges)
            )
            inst = _group_instance(plan, group, column64)
            group.members.append((idx, plan, inst))
        group_span.set(trees=len(groups), **routes)

    # One batched forward pass per tree group, then per-scenario
    # reverse-delete + certificates + assembly — the exact body of
    # solve_virtual_tap / _solve_local with the forward phase hoisted.
    c = COVER_BOUND[variant]
    eps_prime = eps / c
    certs = _certificates("fast")
    scenario_results: list[Any] = [None] * len(handles)
    for group in groups.values():
        with obs.span("batch.forward", scenarios=len(group.members)):
            fwds = forward_phase_fast_batch(
                [inst for _, _, inst in group.members], eps=eps_prime
            )
        # Label-map the group's (shared) MST once; every scenario result
        # reuses the list (read-only by convention, like the shared tree).
        nodes = group.members[0][1].nodes
        mst_out = [(nodes[u], nodes[v]) for u, v in group.mst_edges]
        with obs.span("batch.tails", scenarios=len(group.members)):
            for (idx, plan, inst), fwd in zip(group.members, fwds):
                rev = reverse_delete(
                    inst, fwd, variant=variant, segmented=segmented,
                    validate=validate, backend="fast",
                )
                if validate:
                    certs.validate_dual_feasibility(inst, fwd.y, eps_prime)
                    certs.validate_tightness(inst, fwd.y, rev.b)
                    certs.validate_cover(inst, rev.b)
                    certs.validate_coverage_bound(inst, fwd.y, rev.b, c)
                tap = assemble_tap_result(
                    inst, fwd, rev, eps=eps, variant=variant,
                    segmented=segmented, validate=validate, backend="fast",
                )
                scenario_results[idx] = assemble_two_ecss(
                    plan.g if validate else None,
                    plan.nodes, plan.mst_edges, tap,
                    validate=validate, mst_simulation=None,
                    diameter=plan.diameter, mst_weight=plan.mst_weight,
                    n=plan.handle.n, mst_edges_out=mst_out,
                )
    return [scenario_results[at] for at in scenario_of]

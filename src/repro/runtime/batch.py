"""Scenario-batched solving: many weight columns through one kernel pass.

The dominant production traffic shape is one topology × many weight
scenarios (Monte-Carlo what-if sweeps, failure studies).  The scalar path
(:meth:`repro.runtime.session.SolverSession.solve_many`) pays the full
per-scenario pipeline — nx Kruskal, link filtering, instance build, the
forward phase — once per scenario even though almost everything it
computes is a pure function of the *tree*, which scenario perturbations
rarely change.  This module restructures a compatible batch around that:

1. **Columns** — queries are deduplicated by weight column; each distinct
   column gets its MST from :func:`stable_kruskal_mst`, a vectorized
   stable-sort Kruskal over the handle's flat edge arrays that reproduces
   :func:`repro.core.tecss.rooted_mst` edge for edge (same lexicographic
   ``(weight, edge-position)`` tie-break) without materializing an
   ``nx.Graph``.  Columns that differ from the session's base column only
   in ways that cannot move an edge across the tree boundary reuse the
   base MST.  Both decisions fall back to exact Python ordering when a
   float64 cast could reorder weights (integers beyond ``2**53``).
2. **Tree groups** — columns with the same MST share one *structure*: one
   rooted tree, one link list shape, one virtual-edge structure, one set
   of kernel tree arrays.  Each scenario's plan is seeded with the shared
   tree through :meth:`~repro.runtime.plan.SolverPlan.with_tree`.  The
   group leader builds the structure; every other column derives its
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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from repro import obs
from repro.core.instance import TAPInstance
from repro.core.reverse import COVER_BOUND, reverse_delete
from repro.core.tap import _certificates, assemble_tap_result
from repro.core.tecss import assemble_two_ecss
from repro.fast import require_numpy
from repro.runtime.delta import _FLOAT_EXACT_INT
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
    weights (:func:`_float_exact` fails: integers beyond ``2**53``), the
    order comes from a stable Python sort of ``handle.weights`` instead.
    The returned list is sorted normalized pairs, matching
    :func:`repro.core.tecss.rooted_mst` exactly.
    """
    np = require_numpy()
    a, b = handle._endpoint_arrays
    column = np.asarray(column, dtype=np.float64)
    if _float_exact(column):
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


def _float_exact(column64: Any) -> bool:
    """Does the float64 column order its weights exactly as Python does?

    Floats cast to themselves, and an integer cast lands at or beyond
    ``2**53`` in magnitude only if it was not exactly representable — so
    a column whose largest magnitude stays below ``2**53`` compares
    exactly.  Anything else must be ordered on the original objects.
    """
    np = require_numpy()
    if not column64.size:
        return True
    return float(np.abs(column64).max()) < _FLOAT_EXACT_INT


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
    leader; later plans clone it with only the weight column rewritten —
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
        return inst
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
    base = session.handle

    # Deduplicate queries by weight column: identical columns share one
    # scenario (and therefore one MST check, one instance, one solve).
    handles: list[GraphHandle] = []
    scenario_of: list[int] = []
    seen: dict[tuple, int] = {}
    for query in queries:
        handle = (
            base if query.weights is None else base.reweight(query.weights)
        )
        at = seen.get(handle.weights)
        if at is None:
            at = len(handles)
            seen[handle.weights] = at
            handles.append(handle)
        scenario_of.append(at)

    # Group scenarios by MST.  A full Kruskal per scenario is the fallback;
    # when a column differs from the session's base column only by edges
    # whose change cannot move them across the tree boundary — non-tree
    # edges that got no cheaper, tree edges that got no dearer — the base
    # MST is provably the column's stable-Kruskal output and is reused.
    # (Worsening a rejected edge only moves it later in the stable order,
    # past edges that already connected its endpoints; improving an
    # accepted edge moves it earlier without creating a cycle among the
    # other accepted edges.  Either way every accept/reject decision is
    # unchanged.)  Monte-Carlo sweeps perturb a handful of edges per
    # scenario, so this turns the grouping stage from O(scenarios * m)
    # union-finds into O(scenarios) vector compares.  The compares are
    # float64, so they only decide when both columns cast exactly.
    base_col = np.asarray(base.weights, dtype=np.float64)
    base_mst = stable_kruskal_mst(base, base_col)
    base_exact = _float_exact(base_col)
    base_in_tree = np.zeros(base.m, dtype=bool)
    pair_index = base._pair_index
    for e in base_mst:
        base_in_tree[pair_index[e]] = True

    groups: dict[tuple, _TreeGroup] = {}
    with obs.span("batch.group", scenarios=len(handles)) as group_span:
        for idx, handle in enumerate(handles):
            column64 = np.asarray(handle.weights, dtype=np.float64)
            diff = np.flatnonzero(column64 != base_col)
            if base_exact and _float_exact(column64) and bool(
                np.all(
                    np.where(
                        base_in_tree[diff],
                        column64[diff] <= base_col[diff],
                        column64[diff] >= base_col[diff],
                    )
                )
            ):
                mst_edges = base_mst
            else:
                mst_edges = stable_kruskal_mst(handle, column64)
            tree_key = tuple(mst_edges)
            group = groups.get(tree_key)
            if group is None:
                group = _TreeGroup(
                    tree=RootedTree.from_edges(handle.n, mst_edges, root=0),
                    mst_edges=mst_edges,
                )
                groups[tree_key] = group
            plan = SolverPlan.with_tree(handle, group.tree, group.mst_edges)
            inst = _group_instance(plan, group, column64)
            group.members.append((idx, plan, inst))
        group_span.set(trees=len(groups))

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

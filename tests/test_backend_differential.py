"""Differential suite: ``backend="fast"`` must equal ``backend="reference"``.

The fast kernels promise *bit-identical* results, not just statistically
indistinguishable ones.  This suite runs both backends over a seeded grid
of graph-family instances (well over the required 20) plus adversarial
TAP instances with tiny segments (the regime where the reverse-delete
cross-segment machinery and the cleaning phase actually fire) and asserts
equality of:

* every :class:`~repro.core.forward.ForwardResult` field — dual values
  ``y`` included, compared with ``==`` (no tolerance);
* the reverse-delete cover ``B``, the anchor list, and the cleaning
  removals;
* the end-to-end :class:`~repro.core.result.TapResult` — augmentation
  links, weights, dual bound, primitive log — and the 2-ECSS edge set;
* the virtual-edge sequences themselves (column-oriented vs object list);
* error behavior on infeasible (bridged) inputs.
"""

from __future__ import annotations

import pytest

pytest.importorskip("numpy")

import networkx as nx

from conftest import random_tap_instance

from repro.analysis.experiments import _adversarial_tap_instance
from repro.core.forward import forward_phase
from repro.core.instance import TAPInstance
from repro.core.reverse import reverse_delete
from repro.core.tap import approximate_tap
from repro.core.tecss import approximate_two_ecss, nontree_links, rooted_mst
from repro.exceptions import NotTwoEdgeConnectedError
from repro.graphs.families import make_family_instance
from repro.runtime.plan import SolverPlan

# 5 families x 2 sizes x 2 seeds = 20 graph instances, plus the
# adversarial and tiny-segment grids below.
FAMILY_GRID = [
    (family, n, seed)
    for family in ("cycle_chords", "erdos_renyi", "grid", "hub_cycle", "ktree2")
    for n in (60, 140)
    for seed in (1, 2)
]


def _tap_instance(family: str, n: int, seed: int) -> tuple:
    graph = make_family_instance(family, n, seed=seed)
    plan = SolverPlan.for_graph(graph)
    return graph, plan.tree, plan.links


def assert_forward_equal(ref, fast) -> None:
    assert fast.y == ref.y  # exact float equality: the kernels are bit-identical
    assert fast.added == ref.added
    assert fast.epoch_added == ref.epoch_added
    assert fast.first_cover_epoch == ref.first_cover_epoch
    assert fast.r_sets == ref.r_sets
    assert fast.iterations_per_epoch == ref.iterations_per_epoch
    assert fast.log.counts == ref.log.counts


def assert_reverse_equal(ref, fast) -> None:
    assert fast.b == ref.b
    assert fast.anchors == ref.anchors
    assert fast.cleaning_removals == ref.cleaning_removals
    assert fast.x_by_epoch == ref.x_by_epoch


@pytest.mark.parametrize("family,n,seed", FAMILY_GRID)
def test_family_grid_bit_identical(family: str, n: int, seed: int) -> None:
    graph, tree, links = _tap_instance(family, n, seed)
    inst = TAPInstance.from_links(tree, links)
    fwd_ref = forward_phase(inst, eps=0.25)
    fwd_fast = forward_phase(inst, eps=0.25, backend="fast")
    assert_forward_equal(fwd_ref, fwd_fast)

    rev_ref = reverse_delete(inst, fwd_ref, variant="improved")
    rev_fast = reverse_delete(inst, fwd_ref, variant="improved", backend="fast")
    assert_reverse_equal(rev_ref, rev_fast)

    tap_ref = approximate_tap(tree, links, eps=0.5)
    tap_fast = approximate_tap(tree, links, eps=0.5, backend="fast")
    assert tap_fast.links == tap_ref.links
    assert tap_fast.weight == tap_ref.weight
    assert tap_fast.virtual_eids == tap_ref.virtual_eids
    assert tap_fast.virtual_weight == tap_ref.virtual_weight
    assert tap_fast.dual_bound == tap_ref.dual_bound
    assert tap_fast.max_coverage_of_dual_edges == tap_ref.max_coverage_of_dual_edges
    assert tap_fast.log.counts == tap_ref.log.counts


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("variant", ["basic", "improved"])
def test_adversarial_tiny_segments(seed: int, variant: str) -> None:
    """Path-heavy instances with tiny segments: the cleaning-phase regime."""
    src = _adversarial_tap_instance(130, seed)
    inst = TAPInstance(src.tree, list(src.edges), segment_size=5)
    fwd_ref = forward_phase(inst, eps=0.1)
    fwd_fast = forward_phase(inst, eps=0.1, backend="fast")
    assert_forward_equal(fwd_ref, fwd_fast)
    rev_ref = reverse_delete(inst, fwd_ref, variant=variant)
    rev_fast = reverse_delete(inst, fwd_ref, variant=variant, backend="fast")
    assert_reverse_equal(rev_ref, rev_fast)


@pytest.mark.parametrize("shape", ["uniform", "caterpillar", "broom"])
def test_random_instances_both_variants(shape: str) -> None:
    inst_src = random_tap_instance(90, 140, seed=29, shape=shape)
    tree = inst_src.tree
    links = [(e.dec, e.anc, e.weight) for e in inst_src.edges]
    for variant in ("basic", "improved"):
        ref = approximate_tap(tree, links, eps=0.4, variant=variant)
        fast = approximate_tap(tree, links, eps=0.4, variant=variant, backend="fast")
        assert fast.links == ref.links
        assert fast.weight == ref.weight
        assert fast.virtual_eids == ref.virtual_eids
        assert fast.dual_bound == ref.dual_bound


@pytest.mark.parametrize("family,seed", [("erdos_renyi", 3), ("grid", 1), ("geometric", 2)])
def test_two_ecss_end_to_end(family: str, seed: int) -> None:
    graph = make_family_instance(family, 120, seed=seed)
    ref = approximate_two_ecss(graph, eps=0.5)
    fast = approximate_two_ecss(graph, eps=0.5, backend="fast")
    assert fast.edges == ref.edges
    assert fast.weight == ref.weight
    assert fast.mst_edges == ref.mst_edges
    assert fast.mst_weight == ref.mst_weight
    assert fast.guarantee == ref.guarantee


def test_virtual_edges_materialize_identically() -> None:
    graph, tree, links = _tap_instance("erdos_renyi", 100, 7)
    ref = TAPInstance.from_links(tree, links)
    fast = TAPInstance.from_links(tree, links, backend="fast")
    assert len(fast.edges) == len(ref.edges)
    assert list(fast.edges) == list(ref.edges)
    # Indexing and negative indexing behave like the reference list.
    assert fast.edges[0] == ref.edges[0]
    assert fast.edges[-1] == ref.edges[-1]
    # Out-of-range indices raise (and never poison the materialization
    # cache with a wrong-eid edge).
    for bad in (len(ref.edges), -len(ref.edges) - 1):
        with pytest.raises(IndexError):
            fast.edges[bad]
    assert fast.edges[len(ref.edges) - 1].eid == len(ref.edges) - 1


def test_infeasible_raises_on_both_backends() -> None:
    # A path graph has bridges everywhere: TAP on it is infeasible.
    graph = nx.path_graph(8)
    nx.set_edge_attributes(graph, 1.0, "weight")
    # A plan would refuse the bridged graph, so derive tree and links here.
    tree, mst_edges = rooted_mst(graph)
    links = nontree_links(graph, set(mst_edges))
    inst = TAPInstance.from_links(tree, links)
    with pytest.raises(NotTwoEdgeConnectedError):
        forward_phase(inst, eps=0.5)
    with pytest.raises(NotTwoEdgeConnectedError):
        forward_phase(inst, eps=0.5, backend="fast")


def test_zero_weight_links_bit_identical() -> None:
    """Zero-weight links take the epoch-0 shortcut on both backends."""
    inst_src = random_tap_instance(70, 90, seed=41)
    tree = inst_src.tree
    links = [
        (e.dec, e.anc, 0.0 if i % 7 == 0 else e.weight)
        for i, e in enumerate(inst_src.edges)
    ]
    ref = approximate_tap(tree, links, eps=0.5)
    fast = approximate_tap(tree, links, eps=0.5, backend="fast")
    assert fast.links == ref.links
    assert fast.weight == ref.weight
    assert fast.virtual_eids == ref.virtual_eids

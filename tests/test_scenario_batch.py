"""Differential tests: scenario-vectorized solving and binary wire frames.

Three contracts from one PR, all bit-identity shaped:

* ``SolverSession.solve_batch_vectorized`` equals a looped
  :meth:`~repro.runtime.session.SolverSession.solve_many` — every result
  field, duals and anchors and certificates and primitive logs included —
  across every registered compute backend as the session default, with
  mixed-parameter batches split into the right groups and everything
  non-vectorizable falling back to the scalar path;
* the scenario-axis kernels (``*_2d``) equal their 1-D counterparts row
  by row, and :func:`repro.runtime.batch.stable_kruskal_mst` equals
  :func:`repro.core.tecss.rooted_mst` column by column;
* the ``RPF1`` binary frame codec round-trips, rejects malformed bytes
  with the structured ``bad-frame`` error, and a framed HTTP response
  decodes to the byte-identical JSON body a plain client receives.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import random

import networkx as nx
import pytest

from repro.fast import HAVE_NUMPY
from repro.graphs.families import make_family_instance
from repro.runtime.session import SolveQuery, SolverSession
from repro.serve.protocol import (
    FRAME_CONTENT_TYPE,
    FRAME_MAGIC,
    ProtocolError,
    graph_payload,
    pack_frame,
    unpack_frame,
)

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="scenario vectorization requires numpy"
)

COMPUTE_BACKENDS = ["reference"] + (["fast", "auto"] if HAVE_NUMPY else [])


def assert_results_equal(a, b) -> None:
    """Recursive field-by-field equality over dataclass result trees."""
    assert type(a) is type(b)
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_results_equal(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_results_equal(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_results_equal(x, y)
    else:
        assert a == b


def perturbed_columns(graph, count, seed=7):
    """``count`` seeded multiplicative perturbations of the weight column."""
    base = [w for _, _, w in graph_payload(graph)["edges"]]
    rng = random.Random(seed)
    columns = []
    for _ in range(count):
        column = list(base)
        for i in rng.sample(range(len(base)), max(1, len(base) // 20)):
            column[i] = column[i] * rng.uniform(1.0, 3.0)
        columns.append(column)
    return columns


# ---------------------------------------------------------------------------
# the vectorized-vs-looped differential suite
# ---------------------------------------------------------------------------


BIG_INT_EDGES = [
    (0, 1, 2**53 + 1), (1, 2, 2**53), (2, 3, 1), (3, 0, 1), (0, 2, 2**53 + 2)
]


def big_int_graph():
    """Integer weights around ``2**53``, where float64 casts collide.

    As floats, ``(0, 1)`` ties ``(1, 2)`` and wins on edge position, so a
    float64 Kruskal picks ``(0, 1)`` where the exact order picks
    ``(1, 2)``.
    """
    graph = nx.Graph()
    for u, v, w in BIG_INT_EDGES:
        graph.add_edge(u, v, weight=w)
    return graph


def big_int_columns():
    """Two columns only an exact comparison tells apart from the base.

    The first raises the non-tree ``(0, 2)`` to ``2**53 + 3``; the second
    raises the tree edge ``(1, 2)`` to ``2**53 + 1``, which a float64 cast
    cannot see and which swaps it out for ``(0, 1)``.
    """
    columns = []
    for edge, w in [((0, 2), 2**53 + 3), ((1, 2), 2**53 + 1)]:
        column = {(u, v): x for u, v, x in BIG_INT_EDGES}
        column[edge] = w
        columns.append(column)
    return columns


def assert_vectorized_matches_looped(graph, queries, backend):
    """Solve ``queries`` both ways; return the vectorized session's stats."""
    looped = SolverSession(graph, backend=backend).solve_many(queries)
    session = SolverSession(graph, backend=backend)
    batched = session.solve_batch_vectorized(queries)
    assert len(batched) == len(looped)
    for a, b in zip(batched, looped):
        assert_results_equal(a, b)
    stats = session.stats()
    assert stats["solves"] == len(queries)
    return stats


@needs_numpy
@pytest.mark.parametrize("backend", COMPUTE_BACKENDS)
def test_vectorized_bit_identical_to_looped(backend):
    graph = make_family_instance("cycle_chords", 26, seed=3)
    columns = perturbed_columns(graph, 6)
    queries = (
        [{"eps": 0.5, "weights": c} for c in columns[:4]]
        + [{"eps": 0.25, "weights": c} for c in columns[4:]]
        + [{"eps": 0.5}]                       # base column joins group 1
        + [{"eps": 0.5, "weights": columns[0]}]  # duplicate column
        + [{"eps": 0.5, "validate": False, "weights": c} for c in columns[:2]]
    )
    stats = assert_vectorized_matches_looped(graph, queries, backend)
    big_stats = assert_vectorized_matches_looped(
        big_int_graph(),
        [{"eps": 0.5, "weights": c} for c in big_int_columns()],
        backend,
    )
    from repro.runtime.registry import resolve_compute

    if resolve_compute(backend) == "fast":
        # eps=0.5, eps=0.25, and the validate=False group.
        assert stats["vectorized_batches"] == 3
        assert stats["scalar_fallback"] == 0
        assert big_stats["vectorized_batches"] == 1
    else:
        assert stats["vectorized_batches"] == 0
        assert stats["scalar_fallback"] == len(queries)


@needs_numpy
def test_mixed_batches_split_and_fall_back():
    graph = make_family_instance("grid", 25, seed=5)
    columns = perturbed_columns(graph, 4, seed=11)
    queries = [
        SolveQuery(eps=0.5, weights=columns[0], backend="fast"),
        SolveQuery(eps=0.5, weights=columns[1], backend="fast"),
        SolveQuery(eps=0.5, weights=columns[2], backend="reference"),
        SolveQuery(eps=1.0, weights=columns[3], backend="fast"),  # singleton
        SolveQuery(eps=0.5, backend="fast", engine="sim"),
    ]
    looped = SolverSession(graph).solve_many(queries)
    session = SolverSession(graph)
    batched = session.solve_batch_vectorized(queries)
    for a, b in zip(batched, looped):
        assert_results_equal(a, b)
    stats = session.stats()
    # One fused group (the two eps=0.5 fast queries); the reference query,
    # the demoted eps=1.0 singleton, and the sim query go scalar.
    assert stats["vectorized_batches"] == 1
    assert stats["scalar_fallback"] == 3


@needs_numpy
def test_vectorizable_gates():
    graph = make_family_instance("cycle_chords", 20, seed=1)
    session = SolverSession(graph, backend="fast")
    assert session._vectorizable(SolveQuery(eps=0.5))
    assert not session._vectorizable(SolveQuery(eps=0.5, k=3))
    assert not session._vectorizable(SolveQuery(eps=0.5, simulate_mst=True))
    assert not session._vectorizable(SolveQuery(eps=0.5, engine="sim"))
    assert not session._vectorizable(SolveQuery(eps=0.5, backend="reference"))
    assert not session._vectorizable(SolveQuery(eps=0.5, backend="warp"))
    assert not session._vectorizable(
        SolveQuery(eps=0.5, weights_delta={(0, 1): 2.0})
    )


def test_unknown_query_field_names_valid_fields():
    graph = make_family_instance("cycle_chords", 14, seed=2)
    session = SolverSession(graph)
    with pytest.raises(ValueError) as excinfo:
        session.solve_many([{"epz": 0.5}])
    message = str(excinfo.value)
    assert "unknown SolveQuery field(s) epz" in message
    assert "valid fields:" in message and "eps" in message


def test_solve_many_groups_by_weight_fingerprint():
    graph = make_family_instance("cycle_chords", 18, seed=4)
    column = perturbed_columns(graph, 1, seed=9)[0]
    session = SolverSession(graph)
    results = session.solve_many([
        {"eps": 0.5, "weights": column},
        {"eps": 0.25, "weights": column},   # same column, batch-local hit
        {"eps": 0.5, "weights": list(column)},  # equal copy, also a hit
    ])
    stats = session.stats()
    assert stats["plans_built"] == 1
    assert stats["plan_hits"] == 2
    single = SolverSession(graph)
    for query, result in zip(
        [{"eps": 0.5, "weights": column}, {"eps": 0.25, "weights": column},
         {"eps": 0.5, "weights": column}],
        results,
    ):
        assert_results_equal(result, single.solve(**query))


def int_float_cycle():
    """A 6-cycle weighted 1..6 plus the chord ``(0, 3)`` at 7, and its
    weight column as ints and as the equal floats."""
    graph = nx.cycle_graph(6)
    for i, (u, v) in enumerate(graph.edges()):
        graph[u][v]["weight"] = i + 1
    graph.add_edge(0, 3, weight=7)
    ints = [w for _, _, w in graph.edges(data="weight")]
    return graph, ints, [float(w) for w in ints]


@pytest.mark.parametrize("backend", COMPUTE_BACKENDS)
def test_equal_int_and_float_columns_are_not_merged(backend):
    """Result types follow weight types: a float column batched after an
    equal int column must still get float results, as a solo solve."""
    graph, ints, floats = int_float_cycle()
    queries = [{"weights": ints}, {"weights": floats}]
    for method in ("solve_many", "solve_batch_vectorized"):
        results = getattr(SolverSession(graph, backend=backend), method)(
            queries
        )
        for query, result in zip(queries, results):
            solo = SolverSession(graph, backend=backend).solve(**query)
            assert_results_equal(result, solo)
        assert type(results[1].mst_weight) is float


def big_int_tail_graph():
    """Six nodes of small integer weights hanging off a 90-node cycle.

    Raising four core edges past ``2**53`` (:data:`BIG_INT_TAIL_DIFF`)
    makes their float64 casts collide, and the cut rule must still pick
    ``(2, 3)`` over ``(0, 5)`` by exact comparison.
    """
    graph = nx.Graph()
    graph.add_nodes_from(range(6))
    graph.add_weighted_edges_from([
        (0, 1, 4), (0, 5, 1), (1, 2, 5), (2, 3, 4), (2, 4, 5), (3, 4, 3),
        (3, 5, 5), (4, 5, 2),
    ])
    nx.add_cycle(graph, [0, *range(6, 96)], weight=1)
    return graph


BIG_INT_TAIL_DIFF = {
    (1, 2): 2**53 + 1, (0, 5): 2**53 + 5, (2, 3): 2**53 + 3,
    (2, 4): 2**53 + 5,
}


def routing_columns(session):
    """One column per maintenance case, each checked against a Kruskal.

    Returns ``{case: column}``; the cases are a dearer tree edge that
    keeps the tree, a cut-rule swap, a cycle-rule swap (all within the
    delta limit), and a dense diff past ``delta_max_fraction``.
    """
    from repro.core.tecss import rooted_mst

    plan = session.base_plan()
    handle = plan.handle
    base = list(handle.weights)
    pair_index = handle._pair_index
    tree = sorted(pair_index[e] for e in plan.mst_edges)
    nontree = sorted(set(range(handle.m)) - set(tree))

    def mst_of(column):
        return rooted_mst(handle.reweight(column).graph)[1]

    def patched(changes):
        column = list(base)
        for j, w in changes.items():
            column[j] = w
        return column

    cases = {
        "dearer tree edge": next(
            column for column in (
                patched({j: base[j] * 1.000001}) for j in tree
            ) if mst_of(column) == plan.mst_edges
        ),
        "cut rule": patched({tree[0]: base[tree[0]] * 1000}),
        "cycle rule": patched({nontree[0]: 0.0}),
        "dense diff": [w * (1.1 if j % 2 else 0.9) for j, w in
                       enumerate(base)],
    }
    assert mst_of(cases["cut rule"]) != plan.mst_edges
    assert mst_of(cases["cycle rule"]) != plan.mst_edges
    return cases


@needs_numpy
def test_batch_routes_each_column_like_solve_many(monkeypatch):
    """Every maintenance route agrees with solve_many field for field;
    only the dense diff runs a Kruskal, and the ``batch.group`` span
    counts the columns each route took."""
    from repro import obs
    from repro.runtime import batch

    calls = []
    kruskal = batch.stable_kruskal_mst
    monkeypatch.setattr(
        batch, "stable_kruskal_mst",
        lambda *args: calls.append(1) or kruskal(*args),
    )
    graph = make_family_instance("cycle_chords", 40, seed=5)
    cases = routing_columns(SolverSession(graph, backend="fast"))
    for case, column in cases.items():
        queries = [{"eps": 0.5, "weights": column}, {"eps": 0.5}]
        tracer = obs.enable()
        try:
            del calls[:]
            assert_vectorized_matches_looped(graph, queries, "fast")
        finally:
            obs.disable()
        group = next(
            span for root in tracer.drain() for span in root.walk()
            if span.name == "batch.group"
        )
        dense = case == "dense diff"
        assert len(calls) == int(dense), case
        assert group.attrs["kruskal"] == int(dense), case
        assert group.attrs["maintained"] == 2 - int(dense), case

    tail = big_int_tail_graph()
    column = {(u, v): w for u, v, w in tail.edges(data="weight")}
    column.update(BIG_INT_TAIL_DIFF)
    del calls[:]
    # validate=False: the dual certificates cannot hold at this weight
    # spread in float64 (the scalar path raises on them too).
    assert_vectorized_matches_looped(
        tail, [{"eps": 0.5, "weights": column, "validate": False},
               {"eps": 0.5, "validate": False}], "fast"
    )
    assert calls == []


@needs_numpy
def test_base_tree_group_reuses_the_base_instance(monkeypatch):
    """Columns keeping the base tree patch the base plan's instance: no
    TAPInstance is built from scratch, not even by a group leader."""
    from repro.core.instance import TAPInstance

    graph = make_family_instance("cycle_chords", 40, seed=5)
    session = SolverSession(graph, backend="fast")
    session.solve(eps=0.5)
    base_plan = session.base_plan()
    builds = base_plan.instance_builds
    column = routing_columns(session)["dearer tree edge"]
    calls = []
    from_links = TAPInstance.from_links
    monkeypatch.setattr(
        TAPInstance, "from_links",
        lambda *args, **kw: calls.append(1) or from_links(*args, **kw),
    )
    scaled = [w * 1.5 for w in column]
    results = session.solve_batch_vectorized(
        [{"eps": 0.5, "weights": column}, {"eps": 0.5, "weights": scaled}]
    )
    assert calls == []
    assert base_plan.instance_builds == builds
    for query, result in zip([column, scaled], results):
        assert_results_equal(
            result, SolverSession(graph, backend="fast").solve(
                eps=0.5, weights=query
            ),
        )


# ---------------------------------------------------------------------------
# kernel/structure parity
# ---------------------------------------------------------------------------


def lettered_graph():
    """String labels ``'a'..'f'``, shaped like a small labelled example graph."""
    graph = nx.Graph()
    for u, v, w in [
        ("a", "b", 0.6), ("a", "c", 0.2), ("c", "d", 0.1), ("c", "e", 0.7),
        ("c", "f", 0.9), ("a", "d", 0.3), ("b", "c", 0.5), ("e", "f", 0.4),
    ]:
        graph.add_edge(u, v, weight=w)
    return graph


@needs_numpy
def test_stable_kruskal_matches_rooted_mst():
    from repro.core.tecss import rooted_mst
    from repro.runtime.batch import stable_kruskal_mst
    from repro.runtime.handle import GraphHandle

    cases = []
    for family, n, seed in [
        ("cycle_chords", 24, 0), ("grid", 25, 1), ("hub_cycle", 22, 2)
    ]:
        graph = make_family_instance(family, n, seed=seed)
        cases.append(
            (graph, [None] + perturbed_columns(graph, 3, seed=seed))
        )
    grid = make_family_instance("grid", 16, seed=3)
    m = grid.number_of_edges()
    big = 2**53
    cases.append((grid, [
        [1.0] * m,                                   # all ties: position order
        [0.0] * m,                                   # zero weights
        [0.0 if i % 3 else 2.5 for i in range(m)],   # zeros among positives
        [(i * 7) % 5 for i in range(m)],             # small integers
        [big - 1 - (i % 3) for i in range(m)],       # integers below 2**53
        [big + (i * 5) % 7 for i in range(m)],       # integers above 2**53
        [big + 2 - (i % 5) for i in range(m)],       # integers across 2**53
    ]))
    cases.append((big_int_graph(), [None] + big_int_columns()))
    cases.append((lettered_graph(), [None, [1.0] * 8, [0.0] * 8]))
    for graph, columns in cases:
        base = GraphHandle.from_graph(graph)
        for column in columns:
            handle = base if column is None else base.reweight(column)
            _, expected = rooted_mst(handle.graph)
            assert stable_kruskal_mst(handle, handle.weights) == expected


@needs_numpy
def test_2d_kernels_match_rowwise_1d():
    import numpy as np

    graph = make_family_instance("cycle_chords", 30, seed=6)
    session = SolverSession(graph, backend="fast")
    inst = session.plan().instance("fast")
    arrays = inst.arrays
    ta = arrays.ta
    rng = np.random.default_rng(12)
    values2 = rng.uniform(0.0, 4.0, size=(5, ta.n))
    rows = [ta.ancestor_sums(values2[s]) for s in range(5)]
    assert np.array_equal(ta.ancestor_sums_2d(values2), np.stack(rows))

    delta2 = rng.integers(-2, 3, size=(5, ta.n)).astype(np.int64)
    rows = [ta.subtree_counts(delta2[s]) for s in range(5)]
    assert np.array_equal(ta.subtree_counts_2d(delta2), np.stack(rows))

    dec, anc = arrays.dec, arrays.anc
    vals2 = rng.uniform(0.0, 10.0, size=(5, len(dec)))
    rows = [ta.path_chmin(dec, anc, vals2[s], np.inf) for s in range(5)]
    assert np.array_equal(
        ta.path_chmin_2d(dec, anc, vals2, np.inf), np.stack(rows)
    )


@needs_numpy
def test_coverage_counts_2d_matches_scalar_counter():
    import numpy as np

    from repro.fast.context import FastCoverageCounter

    graph = make_family_instance("grid", 16, seed=8)
    session = SolverSession(graph, backend="fast")
    inst = session.plan().instance("fast")
    arrays = inst.arrays
    ta = arrays.ta
    rng = random.Random(13)
    m = len(inst.edges)
    scenarios = []
    for _ in range(4):
        counter = FastCoverageCounter(ta)
        delta = np.zeros(ta.n, dtype=np.int64)
        for eid in rng.sample(range(m), max(2, m // 3)):
            dec, anc = int(arrays.dec[eid]), int(arrays.anc[eid])
            counter.add_path(dec, anc)
            delta[dec] += 1
            delta[anc] -= 1
        scenarios.append((counter, delta))
    stacked = FastCoverageCounter.counts_2d(
        ta, np.stack([delta for _, delta in scenarios])
    )
    for s, (counter, _) in enumerate(scenarios):
        for v in range(ta.n):
            assert int(stacked[s, v]) == counter.count(v)


@needs_numpy
def test_batched_forward_matches_scalar_forward():
    import numpy as np

    from repro.fast.forward import forward_phase_fast, forward_phase_fast_batch
    from repro.runtime.batch import (
        _group_instance,
        _TreeGroup,
        stable_kruskal_mst,
    )
    from repro.runtime.handle import GraphHandle
    from repro.runtime.plan import SolverPlan
    from repro.trees.rooted import RootedTree

    graph = make_family_instance("cycle_chords", 28, seed=10)
    base = GraphHandle.from_graph(graph)
    mst_edges = stable_kruskal_mst(base, base.weights)
    # Scale up only non-tree edges: the MST (and therefore the shared
    # structure every scenario derives from) is provably unchanged.
    pair_index = base._pair_index
    nontree = [
        i for i, e in enumerate(base.edge_list)
        if tuple(sorted(e[:2])) not in set(mst_edges)
    ]
    assert pair_index  # handles expose positions; sanity
    rng = random.Random(22)
    columns = [list(base.weights)]
    for _ in range(3):
        column = list(base.weights)
        for i in rng.sample(nontree, max(1, len(nontree) // 4)):
            column[i] = column[i] * rng.uniform(1.0, 2.5)
        columns.append(column)
    group = _TreeGroup(
        tree=RootedTree.from_edges(base.n, mst_edges, root=0),
        mst_edges=mst_edges,
    )
    instances = []
    for column in columns:
        handle = base.reweight(column)
        plan = SolverPlan.with_tree(handle, group.tree, group.mst_edges)
        instances.append(_group_instance(
            plan, group, np.asarray(handle.weights, dtype=np.float64)
        ))
    batch = forward_phase_fast_batch(instances, eps=0.25)
    for inst, fwd in zip(instances, batch):
        assert_results_equal(fwd, forward_phase_fast(inst, eps=0.25))


# ---------------------------------------------------------------------------
# the frame codec
# ---------------------------------------------------------------------------


class TestFrameCodec:
    def test_round_trip_with_nested_refs(self):
        header = {
            "requests": [
                {"weights": {"__frame__": 0}, "eps": 0.5},
                {"weights": {"__frame__": 1},
                 "nested": [{"deep": {"__frame__": 0}}]},
            ]
        }
        arrays = [[1.0, 2.5, 3.25], [0.125, 4.0]]
        decoded = unpack_frame(pack_frame(header, arrays))
        assert decoded["requests"][0]["weights"] == arrays[0]
        assert decoded["requests"][1]["weights"] == arrays[1]
        assert decoded["requests"][1]["nested"][0]["deep"] == arrays[0]

    def test_zero_array_frame_is_exactly_the_header(self):
        payload = {"protocol": 1, "result": {"weight": 12.5, "links": [1, 2]}}
        frame = pack_frame(payload)
        assert frame.startswith(FRAME_MAGIC)
        assert unpack_frame(frame) == payload
        # The header bytes are the compact JSON serialization — the
        # byte-for-byte response contract depends on this.
        compact = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        assert compact in frame

    @pytest.mark.parametrize("mutate, what", [
        (lambda f: b"XXXX" + f[4:], "magic"),
        (lambda f: f[:10], "truncated header"),
        (lambda f: f + b"\x00", "trailing bytes"),
        (lambda f: f[:4] + (2 ** 30).to_bytes(4, "little") + f[8:],
         "oversized header length"),
    ])
    def test_malformed_frames_raise_bad_frame(self, mutate, what):
        frame = pack_frame({"a": 1}, [[1.0, 2.0]])
        with pytest.raises(ProtocolError) as excinfo:
            unpack_frame(mutate(frame))
        assert excinfo.value.code == "bad-frame", what

    def test_non_json_header_raises_bad_frame(self):
        head = b"not json"
        frame = (
            FRAME_MAGIC + len(head).to_bytes(4, "little") + head
            + (0).to_bytes(4, "little")
        )
        with pytest.raises(ProtocolError) as excinfo:
            unpack_frame(frame)
        assert excinfo.value.code == "bad-frame"

    def test_out_of_range_array_reference_raises_bad_frame(self):
        frame = pack_frame({"weights": {"__frame__": 3}}, [[1.0]])
        with pytest.raises(ProtocolError) as excinfo:
            unpack_frame(frame)
        assert excinfo.value.code == "bad-frame"


# ---------------------------------------------------------------------------
# the wire: framed requests/responses against the real stack
# ---------------------------------------------------------------------------


def serve_session(coro_fn):
    """Boot an inline-worker server, run ``coro_fn(server)``, tear down."""
    from repro.serve.app import ServeApp, ServeConfig
    from repro.serve.server import HttpServer

    async def main():
        server = HttpServer(ServeApp(ServeConfig(workers=0)), port=0)
        await server.start()
        try:
            return await coro_fn(server)
        finally:
            await server.aclose()

    return asyncio.run(main())


async def raw_request(
    server, path: str, body: bytes, content_type: str, accept: str
) -> tuple[int, bytes, str]:
    """One raw round trip returning the untouched response body bytes."""
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    try:
        writer.write((
            f"POST {path} HTTP/1.1\r\n"
            f"Host: x\r\nContent-Type: {content_type}\r\n"
            f"Accept: {accept}\r\nContent-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1") + body)
        await writer.drain()
        status_line = await reader.readline()
        status = int(status_line.decode("latin-1").split()[1])
        length, ctype = 0, ""
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n"):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
            elif name.strip().lower() == "content-type":
                ctype = value.strip()
        return status, await reader.readexactly(length), ctype
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def _batch_bodies(graph):
    """Equivalent framed and plain ``/v1/solve_batch`` bodies."""
    columns = perturbed_columns(graph, 2, seed=17)
    payload = graph_payload(graph)
    header = {"requests": [
        {"graph": payload, "weights": {"__frame__": k}, "eps": 0.5}
        for k in range(len(columns))
    ]}
    plain = {"requests": [
        {"graph": payload, "weights": columns[k], "eps": 0.5}
        for k in range(len(columns))
    ]}
    return header, columns, plain


def test_framed_request_equals_json_request():
    graph = make_family_instance("cycle_chords", 20, seed=14)
    header, columns, plain = _batch_bodies(graph)

    async def scenario(server):
        framed_status, framed_body, _ = await raw_request(
            server, "/v1/solve_batch", pack_frame(header, columns),
            FRAME_CONTENT_TYPE, "application/json",
        )
        plain_status, plain_body, _ = await raw_request(
            server, "/v1/solve_batch",
            json.dumps(plain).encode(), "application/json",
            "application/json",
        )
        return framed_status, framed_body, plain_status, plain_body

    framed_status, framed_body, plain_status, plain_body = serve_session(
        scenario
    )
    assert framed_status == plain_status == 200
    assert framed_body == plain_body


def test_framed_response_decodes_to_exact_json_body():
    graph = make_family_instance("grid", 16, seed=15)
    header, columns, _ = _batch_bodies(graph)

    async def scenario(server):
        body = pack_frame(header, columns)
        _, plain_body, plain_type = await raw_request(
            server, "/v1/solve_batch", body, FRAME_CONTENT_TYPE,
            "application/json",
        )
        _, frame_body, frame_type = await raw_request(
            server, "/v1/solve_batch", body, FRAME_CONTENT_TYPE,
            FRAME_CONTENT_TYPE,
        )
        return plain_body, plain_type, frame_body, frame_type

    plain_body, plain_type, frame_body, frame_type = serve_session(scenario)
    assert plain_type.startswith("application/json")
    assert frame_type.startswith(FRAME_CONTENT_TYPE)
    assert frame_body.startswith(FRAME_MAGIC)
    decoded = unpack_frame(frame_body)
    assert json.dumps(
        decoded, separators=(",", ":")
    ).encode("utf-8") == plain_body
    # Deterministic solves: the two independent requests answered equal.
    assert decoded == json.loads(plain_body)


def test_malformed_frame_body_gets_structured_error():
    async def scenario(server):
        return await raw_request(
            server, "/v1/solve_batch", b"garbage-not-a-frame",
            FRAME_CONTENT_TYPE, "application/json",
        )

    status, body, _ = serve_session(scenario)
    assert status == 400
    assert json.loads(body)["error"]["code"] == "bad-frame"


def test_framed_delta_request_equals_json_delta():
    graph = make_family_instance("cycle_chords", 18, seed=16)
    payload = graph_payload(graph)
    register = {"graph": payload, "eps": 0.5}
    edges = payload["edges"]
    delta_body = {
        "topology": None,  # filled after registration
        "delta": [[edges[0][0], edges[0][1], edges[0][2] * 2.0]],
        "eps": 0.5,
    }

    async def scenario(server):
        _, reg_body, _ = await raw_request(
            server, "/v1/solve", json.dumps(register).encode(),
            "application/json", "application/json",
        )
        delta_body["topology"] = json.loads(reg_body)["topology"]
        raw = json.dumps(delta_body).encode()
        _, plain, _ = await raw_request(
            server, "/v1/delta", raw, "application/json", "application/json"
        )
        _, framed, _ = await raw_request(
            server, "/v1/delta", pack_frame(delta_body), FRAME_CONTENT_TYPE,
            "application/json",
        )
        return plain, framed

    plain, framed = serve_session(scenario)
    assert plain == framed
    assert json.loads(plain)["result"]


# ---------------------------------------------------------------------------
# loadgen montecarlo smoke
# ---------------------------------------------------------------------------


@needs_numpy
@pytest.mark.parametrize("binary", [False, True])
def test_loadgen_montecarlo_smoke(binary):
    from repro.serve.app import ServeConfig
    from repro.serve.loadgen import LoadgenConfig, run_loadgen

    cfg = LoadgenConfig(
        mode="montecarlo", duration_s=30.0, requests=3, concurrency=1,
        batch=4, binary=binary, size=24, topologies=1, scenarios=2,
        drift_edges=0.05, seed=3,
    )
    summary = run_loadgen(cfg, spawn=ServeConfig(workers=0))
    assert summary["mode"] == "montecarlo"
    assert summary["protocol_errors"] == 0
    assert summary["transport_errors"] == 0
    assert summary["ok"] >= 2 * cfg.batch  # post-registration scenarios
    assert summary["frames"] == (summary["requests"] if binary else 0)
    solver = summary["solver"]
    # Past the registration round the batches are compatible scenario
    # groups over one topology: the vectorized path must have engaged.
    assert solver["vectorized_batches"] >= 1

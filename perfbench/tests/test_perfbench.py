"""Tests of the benchmark's own code: ``python -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import checks, inputs  # noqa: E402
from perfbench.stats import Tally, median, percentile, summarize  # noqa: E402
from perfbench.trace import Instrumentation, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _triples(g: nx.Graph) -> list:
    return list(g.edges(data="weight"))


@pytest.mark.parametrize("family", sorted(inputs.FAMILIES))
def test_generators_are_seeded_and_two_edge_connected(family):
    a = inputs.make_graph(family, 120, 7)
    b = inputs.make_graph(family, 120, 7)
    c = inputs.make_graph(family, 120, 8)
    assert _triples(a) == _triples(b)
    assert _triples(a) != _triples(c)
    inputs.verify_input(a)
    assert sorted(a.nodes) == list(range(a.number_of_nodes()))


def test_patching_removes_every_bridge():
    g = nx.path_graph(30)
    g.add_edges_from([(40, 41), (41, 42), (42, 40)])  # a second component
    nx.set_edge_attributes(g, 1.0, "weight")
    assert nx.has_bridges(g)
    inputs.make_two_edge_connected(g, random.Random(1))
    inputs.verify_input(g)


def test_verify_input_rejects_a_bridge():
    g = nx.cycle_graph(5)
    g.add_edge(4, 5)
    with pytest.raises(inputs.InputError):
        inputs.verify_input(g)


def test_summary_reports_its_sample_count():
    s = summarize([float(x) for x in range(1, 201)])
    assert s.count == 200
    assert s.p50 == 100.5
    assert s.p95 == 190.0
    assert s.p99 == 198.0
    assert s.beyond_p99 == 2
    assert s.max == 200.0
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert percentile([5.0], 0.99) == 5.0
    with pytest.raises(ValueError):
        median([])


def test_error_rate_counts_failures_against_attempts():
    t = Tally()
    for _ in range(3):
        t.ok()
    assert t.check("x", ["bad weight"]) is False
    assert t.check("y", []) is True
    t.exception("z", RuntimeError("boom"))
    assert (t.attempted, t.failed) == (6, 2)
    assert t.error_rate == pytest.approx(2 / 6)
    assert t.reasons == ["x: bad weight", "z: RuntimeError: boom"]
    assert Tally().error_rate == 0.0


@pytest.fixture(scope="module")
def solved():
    from repro.runtime import SolverSession
    from repro.serve.protocol import result_to_payload

    g = inputs.make_graph("erdos_renyi", 60, 3)
    result = SolverSession(g, backend="fast").solve(eps=0.5)
    return g, result, result_to_payload(result)


def test_checker_accepts_a_real_result(solved):
    g, result, payload = solved
    weights = inputs.edge_weights(g)
    assert checks.check_result(weights, g.nodes, result) == []
    assert checks.check_result(weights, g.nodes, payload) == []
    assert checks.same_solution(result, payload) == []


def test_checker_rejects_a_dropped_augmentation_link(solved):
    g, _, payload = solved
    bad = json.loads(json.dumps(payload))
    link = bad["augmentation"]["links"].pop()
    bad["edges"] = [e for e in bad["edges"] if sorted(e) != sorted(link)]
    problems = checks.check_result(inputs.edge_weights(g), g.nodes, bad)
    assert problems
    assert checks.same_solution(payload, bad)


def test_checker_remembers_only_bridgeless_edge_sets(solved):
    g, _, payload = solved
    weights = inputs.edge_weights(g)
    bridgeless: set = set()
    assert checks.check_result(weights, g.nodes, payload, bridgeless) == []
    assert len(bridgeless) == 1
    bad = json.loads(json.dumps(payload))
    link = bad["augmentation"]["links"].pop()
    bad["edges"] = [e for e in bad["edges"] if sorted(e) != sorted(link)]
    bad["augmentation"]["weight"] -= weights[tuple(sorted(link))]
    bad["weight"] -= weights[tuple(sorted(link))]
    problems = checks.check_result(weights, g.nodes, bad, bridgeless)
    assert any("bridge" in p or "connected" in p for p in problems)
    assert len(bridgeless) == 1


def test_checker_rejects_a_wrong_weight(solved):
    g, _, payload = solved
    bad = json.loads(json.dumps(payload))
    bad["weight"] += 1.0
    problems = checks.check_result(inputs.edge_weights(g), g.nodes, bad)
    assert any("weight" in p for p in problems)


def test_checker_rejects_a_broken_certificate(solved):
    g, _, payload = solved
    bad = json.loads(json.dumps(payload))
    bad["augmentation"]["dual_bound"] /= 100.0
    problems = checks.check_result(inputs.edge_weights(g), g.nodes, bad)
    assert any("certificate" in p for p in problems)


def test_missing_probe_targets_are_reported_not_fatal():
    import repro.core.tap as tap

    original = tap.solve_virtual_tap
    instr = Instrumentation(Tracer(), probes=[
        ("tap.solve", "repro.core.tap", "solve_virtual_tap"),
        ("gone", "repro.core.tap", "no_such_function"),
        ("gone.module", "repro.no_such_module", "f"),
    ])
    with instr.active():
        assert tap.solve_virtual_tap is not original
    assert tap.solve_virtual_tap is original
    assert instr.unmeasured == ["repro.core.tap.no_such_function",
                                "repro.no_such_module.f"]


def test_tracer_self_time_and_coverage():
    from perfbench.trace import layer_self_times, op_breakdown

    tracer = Tracer()
    with tracer.op("warm_solve"):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    (wall, wrapped), = op_breakdown(tracer.spans)["warm_solve"]
    assert 0 <= wrapped <= wall
    selfs = layer_self_times(tracer.spans)
    outer = tracer.spans[1].duration
    assert selfs["outer"][0] == pytest.approx(outer - tracer.spans[2].duration)


def test_full_column_check_catches_a_wrongly_derived_delta_plan(monkeypatch):
    """A delta plan derived for the wrong weights but cached under the right
    key fools a comparison on the same session, not one on a fresh one."""
    from repro.runtime import SolverSession
    from repro.runtime.plan import SolverPlan
    from perfbench.sessions import EPS, full_column_diff

    g = inputs.make_graph("erdos_renyi", 60, 3)
    edges = list(g.edges)
    column = [w for _, _, w in g.edges(data="weight")]
    picks = range(0, len(edges), 3)
    delta = {edges[j]: column[j] * 5.0 for j in picks}
    for j in picks:
        column[j] *= 5.0

    good = SolverSession(g, backend="fast").solve(
        eps=EPS, weights_delta=delta, validate=False)
    assert full_column_diff(SolverSession(g, backend="fast"), column, good) == []

    derive = SolverPlan.from_delta.__func__

    one_edge = dict([next(iter(delta.items()))])

    def wrong(cls, parent, handle, **kw):
        # Derive from a one-edge diff instead of the requested one.
        return derive(cls, parent, parent.handle.reweight_delta(one_edge), **kw)

    monkeypatch.setattr(SolverPlan, "from_delta", classmethod(wrong))
    session = SolverSession(g, backend="fast")
    bad = session.solve(eps=EPS, weights_delta=delta, validate=False)
    same_session = session.solve(eps=EPS, weights=column, validate=False)
    assert checks.same_solution(bad, same_session) == []
    assert full_column_diff(SolverSession(g, backend="fast"), column, bad)


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_each_workload_passes_a_tiny_smoke_run(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "25",
                "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert last["metrics"] == {
        m["name"]: {"value": last["metrics"][m["name"]]["value"],
                    "unit": m["unit"]}
        for m in declared
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in last["metrics"].values())

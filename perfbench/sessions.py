"""The in-process workload, ``session-er2k``.

One closed-loop caller drives the library through ``SolverSession`` only
(``backend="fast"``, ``eps=0.5``).  For each fresh topology it runs:

1. a cold start — ``SolverSession(graph)`` plus the first validated solve;
2. then, interleaved on that session: validated warm solves; delta ticks
   (1% of the edges jittered by up to 1%, sent as ``weights_delta`` with
   ``validate=False``); and dense-column scenario batches (20 edges
   perturbed per scenario) through :func:`solve_scenarios`,
   ``validate=False``.

Traced runs add an ``engine="sim"`` solve on the last session.  Every run
ends with the caller's request stream for the ``serve.*`` metrics:
1000 closed-loop delta ticks over 50 Erdős–Rényi topologies of the size
``serve-zipf`` sends, enough for a p99 with ten samples beyond it.  Every
result is checked after its timed region; a sample is also compared with
a solve of the full weight column on a separate session
(:func:`full_column_diff`).
"""

from __future__ import annotations

import functools
import gc
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

from perfbench import checks, inputs, speed
from perfbench.stats import Tally, median, summarize
from perfbench.trace import Instrumentation, Tracer

EPS = 0.5


@dataclass(frozen=True)
class SessionConfig:
    """Sizes and operation counts of one in-process workload.

    Each cold start is followed by a block of warm solves, delta ticks
    and scenario batches on that session, interleaved so that a slow
    stretch of the machine spreads over every metric instead of landing
    on one phase.
    """

    n: int
    cold_starts: int
    warm_solves: int  # per block
    ticks: int  # per block
    batches: int  # per block
    batch_size: int
    #: ``engine="sim"`` solves, in traced runs only (per-layer metric).
    sims: int
    batch_perturb: int = 20
    tick_fraction: float = 0.01
    tick_rel: float = 0.01
    setup_repeats: int = 5
    #: The serve.* stream (untraced ops): ``stream_slices`` slices
    #: of ``stream_slice`` ticks, each on its own Erdős–Rényi topology of
    #: ``stream_n`` nodes and timed between speed probes, since a probe
    #: costs more than a tick.  Tick costs differ from graph to graph:
    #: with 20 graphs of 50 ticks the slowest graph's ticks made up the
    #: top 1%, and p50 and p99 spread 6-23% across seven seeds; with 50
    #: graphs of 20 ticks they spread 5-7%.  Mixing in the other families
    #: put the p50 between their clusters and spread it wider.
    stream_n: int = 150
    stream_slices: int = 50
    stream_slice: int = 20


CONFIG = SessionConfig(n=2000, cold_starts=3, warm_solves=6, ticks=12,
                       batches=2, batch_size=16, sims=1, setup_repeats=3)

TINY = replace(CONFIG, n=60, batch_perturb=3, tick_fraction=0.05,
               setup_repeats=1, stream_n=30, stream_slices=5)


def interleave(counts: dict[str, int]) -> list[str]:
    """Each kind ``counts[kind]`` times, spread evenly over the sequence."""
    slots = [((j + 0.5) / c, i, kind)
             for i, (kind, c) in enumerate(counts.items()) for j in range(c)]
    return [kind for _, _, kind in sorted(slots)]


def solve_scenarios(session: Any, queries: list[dict]) -> list:
    """The one call site of the scenario-batch API (see module docstring)."""
    return session.solve_batch_vectorized(queries)


def full_column_diff(reference: Any, column: list, result: Any) -> list[str]:
    """Fields on which ``result`` differs from a validated solve of the
    weight ``column`` (in ``g.edges`` order) on ``reference``.

    ``reference`` is a session of the same graph that only ever solves
    full columns, so it builds each plan from scratch: a plan the measured
    session derived or cached wrongly cannot answer for both sides of the
    comparison.
    """
    full = reference.solve(eps=EPS, weights=column)
    return checks.same_solution(result, full)


def warm_up() -> None:
    """Import the solver stack and run every path once on a tiny graph."""
    from repro.runtime import SolverSession

    g = inputs.cycle_chords_graph(24, 0)
    session = SolverSession(g, backend="fast")
    session.solve(eps=EPS)
    u, v = next(iter(g.edges))
    session.solve(eps=EPS, weights_delta={(u, v): 2.0}, validate=False)
    col = [w for _, _, w in g.edges(data="weight")]
    solve_scenarios(session, [
        {"eps": EPS, "weights": [w * s for w in col], "validate": False}
        for s in (1.5, 2.0)
    ])
    session.solve(eps=EPS, engine="sim")


#: Run in a fresh interpreter: import and warm up the stack between speed
#: probes taken in that same process, and print wall and reference
#: seconds.  (Probes in a parent that sat idle while a child ran read the
#: machine's speed poorly: medians of identical runs spread 40%.)
SETUP_CHILD = """
import sys
sys.path[:0] = sys.argv[1:3]
from perfbench import speed

def work():
    from perfbench.sessions import warm_up
    warm_up()

_, wall, ref = speed.bracketed(work)
print(wall, ref)
"""


def measure_setup(root: Path, repeats: int) -> tuple[list[float], list[float]]:
    """Wall and reference seconds of fresh interpreters that import and
    warm up the stack."""
    wall, ref = [], []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(root), str(root / "src")],
            check=True, cwd=root, timeout=120, capture_output=True, text=True,
        ).stdout.split()
        wall.append(float(out[-2]))
        ref.append(float(out[-1]))
    return wall, ref


class _Runner:
    """One workload run: the op schedule, timings, results and checks."""

    def __init__(self, cfg: SessionConfig, seed: int, scale: float,
                 traced: bool) -> None:
        self.cfg = cfg
        self.seed = seed
        self.scale = scale
        self.rng = random.Random(f"session:{cfg.n}:{seed}")
        self.tally = Tally()
        self.tracer = Tracer()
        self.instr = Instrumentation(self.tracer) if traced else None
        #: op kind -> untraced times, in reference seconds and in wall seconds
        self.times: dict[str, list[float]] = {}
        self.wall_times: dict[str, list[float]] = {}
        #: op kind -> traced wall times (traced runs only)
        self.traced_times: dict[str, list[float]] = {}
        self.sim_counts: dict[str, float] = {}
        #: wall seconds of the full collections run before ops
        self.gc_s = 0.0
        #: reference seconds of each tick of the serve.* stream
        self.stream_times: list[float] = []
        self.session: Any = None
        #: edge sets found spanning and bridgeless on the current topology
        self.bridgeless: set = set()
        self.equivalence_done: set[str] = set()
        #: full-column-only session of the current topology, made on demand
        self.reference: Any = None
        self.pairs = 0

    def count(self, n: int) -> int:
        return max(1, round(n * self.scale))

    def timed(self, kind: str, *steps: Callable[[Any], Any],
              traced: bool = False, per: int = 1) -> Any:
        """Run ``steps`` in turn, each given the previous one's result, as
        one op; record its time divided by ``per`` and return the last
        result.  Untraced ops are timed in reference seconds with every
        step bracketed by probes (see :mod:`perfbench.speed`); traced ops in
        wall seconds, under the probes and inside an op span.

        A full collection first gives every op the same garbage-collector
        state, so the collections its own allocations set off fall at the
        same points and count in its time.  That collection, which clears
        the garbage earlier ops left, is outside the op's time: its wall
        seconds are summed into ``gc_s`` instead (``gc.collect_s``).
        Without it the spreads of the op medians across seeds were about
        twice as wide in a five-seed trial.
        """
        self.collect()
        out: Any = None
        if traced and self.instr is not None:
            with self.instr.active(), self.tracer.op(kind):
                t0 = time.perf_counter()
                for step in steps:
                    out = step(out)
                wall = time.perf_counter() - t0
            self.traced_times.setdefault(kind, []).append(wall / per)
            return out
        wall = ref = 0.0
        for step in steps:
            out, w, r = speed.bracketed(functools.partial(step, out))
            wall += w
            ref += r
        self.wall_times.setdefault(kind, []).append(wall / per)
        self.times.setdefault(kind, []).append(ref / per)
        return out

    def collect(self) -> None:
        """A full garbage collection, its time added to ``gc_s``."""
        t0 = time.perf_counter()
        gc.collect()
        self.gc_s += time.perf_counter() - t0

    def each(self, kind: str, n: int, op: Callable[[bool], None]) -> None:
        """Run ``op`` ``n`` times untraced; traced runs interleave as many
        traced repetitions, so overhead compares like with like."""
        for _ in range(n):
            # Alternate which of each pair runs first, so warm-up effects
            # do not bias the overhead estimate.
            self.pairs += 1
            order = (False, True) if self.pairs % 2 else (True, False)
            for traced in (order if self.instr else (False,)):
                try:
                    op(traced)
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    self.tally.exception(kind, exc)

    def check(self, label: str, weights: Any, nodes: Any, result: Any) -> None:
        self.tally.check(label, checks.check_result(weights, nodes, result,
                                                    self.bridgeless))

    # -- the schedule --------------------------------------------------

    def run(self) -> dict:
        """Run the schedule; return ``stats()`` counters summed over the
        sessions."""
        cfg = self.cfg
        totals: dict[str, float] = {}
        for i in range(cfg.cold_starts):
            g = inputs.make_graph("erdos_renyi", cfg.n, self.seed * 100 + i)
            self.bridgeless.clear()
            self.session = None
            self.each("cold_start", 1, lambda traced: self.cold(g, traced))
            if self.session is None:
                continue
            self.bind(g)
            ops = {"warm_solve": self.warm, "delta_tick": self.tick,
                   "scenario": self.batch}
            for kind in interleave({
                "warm_solve": self.count(cfg.warm_solves),
                "delta_tick": self.count(cfg.ticks),
                "scenario": self.count(cfg.batches),
            }):
                self.each(kind, 1, ops[kind])
            if self.instr is not None and i == cfg.cold_starts - 1:
                self.each("sim_solve", cfg.sims, self.sim)
            for key, value in self.session.stats().items():
                if isinstance(value, int):
                    totals[key] = totals.get(key, 0) + value
        self.stream()
        return totals

    def cold(self, g: Any, traced: bool) -> None:
        from repro.runtime import SolverSession

        def solve(session: Any) -> Any:
            if traced:
                self.force_plan(session)
            return session, session.solve(eps=EPS)

        # Two steps, so the speed probes also bracket the handle build.
        self.session, result = self.timed(
            "cold_start", lambda _: SolverSession(g, backend="fast"), solve,
            traced=traced)
        self.check("cold_start", inputs.edge_weights(g), g.nodes, result)

    def force_plan(self, session: Any) -> None:
        """Build each plan artifact in turn under its own span."""
        plan = session.plan()
        for name, force in (
            ("plan.mst", lambda: plan.tree),
            ("plan.links", lambda: plan.links),
            ("plan.instance", lambda: plan.instance("fast")),
            ("plan.diameter", lambda: plan.diameter),
        ):
            with self.tracer.span(name):
                force()

    def bind(self, g: Any) -> None:
        """Per-topology inputs of the warm block, then one untimed delta
        tick and one small untimed batch: the first of each fills caches
        the session keeps for the topology, a cost paid once, not per op."""
        self.use(g)
        self.tick(traced=False, timed=False)
        self.batch(traced=False, timed=False, size=2)
        self.reference = None  # not kept alive through the timed ops

    def use(self, g: Any) -> None:
        """Make ``g`` the topology that ticks and checks refer to."""
        self.g = g
        self.base = inputs.edge_weights(g)
        self.edges = [(u, v) if u < v else (v, u) for u, v in g.edges]
        self.col = [self.base[e] for e in self.edges]
        self.nodes = list(g.nodes)

    def warm(self, traced: bool) -> None:
        result = self.timed(
            "warm_solve", lambda _: self.session.solve(eps=EPS), traced=traced)
        self.check("warm_solve", self.base, self.nodes, result)

    def next_delta(self) -> tuple[dict, list]:
        """One tick's sparse diff and the full weight column it gives."""
        cfg, edges = self.cfg, self.edges
        k = max(2, int(cfg.tick_fraction * len(edges)))
        changed = inputs.jitter(self.col, self.rng.sample(range(len(edges)), k),
                                self.rng, cfg.tick_rel)
        full = list(self.col)
        for j, w in changed.items():
            full[j] = w
        return {edges[j]: w for j, w in changed.items()}, full

    def solve_delta(self, delta: dict) -> Any:
        return self.session.solve(eps=EPS, weights_delta=delta, validate=False)

    def check_delta(self, label: str, delta: dict, result: Any) -> None:
        weights = dict(self.base)
        weights.update(delta)
        self.check(label, weights, self.nodes, result)

    def tick(self, traced: bool, timed: bool = True) -> None:
        delta, full = self.next_delta()
        solve = functools.partial(self.solve_delta, delta)
        result = (self.timed("delta_tick", lambda _: solve(), traced=traced)
                  if timed else solve())
        self.check_delta("delta_tick", delta, result)
        self.equivalence("delta_tick", full, result)

    def stream(self) -> None:
        """The serve.* request stream: closed-loop delta ticks, one slice
        on each of a series of small topologies; each tick is timed on its
        own and scaled by the probes around its slice.  The first tick on
        each session, which builds its base plan, is untimed."""
        from repro.runtime import SolverSession

        cfg = self.cfg
        self.collect()
        for i in range(self.count(cfg.stream_slices)):
            g = inputs.make_graph("erdos_renyi", cfg.stream_n,
                                  self.seed * 1000 + 100 + i)
            self.bridgeless.clear()
            self.session = SolverSession(g, backend="fast")
            self.use(g)
            self.tick(traced=False, timed=False)
            deltas = [self.next_delta()[0] for _ in range(cfg.stream_slice)]
            done, wall, ref = speed.bracketed(
                functools.partial(self.burst, deltas))
            for delta, (out, secs) in zip(deltas, done):
                if isinstance(out, Exception):
                    self.tally.exception("stream", out)
                    continue
                self.stream_times.append(secs * ref / wall)
                self.check_delta("stream", delta, out)

    def burst(self, deltas: list[dict]) -> list[tuple[Any, float]]:
        """Solve ``deltas`` back to back; (result or exception, seconds)
        for each."""
        done: list[tuple[Any, float]] = []
        for delta in deltas:
            t0 = time.perf_counter()
            try:
                out = self.solve_delta(delta)
            except Exception as exc:  # noqa: BLE001 - counted by the caller
                out = exc
            done.append((out, time.perf_counter() - t0))
        return done

    def batch(self, traced: bool, timed: bool = True,
              size: int | None = None) -> None:
        cfg, col = self.cfg, self.col
        columns = []
        for _ in range(size or cfg.batch_size):
            column = list(col)
            picks = self.rng.sample(range(len(col)), cfg.batch_perturb)
            for j, w in inputs.jitter(col, picks, self.rng, 0.01).items():
                column[j] = w
            columns.append(column)
        queries = [{"eps": EPS, "weights": c, "validate": False}
                   for c in columns]
        def solve(_: Any) -> Any:
            return solve_scenarios(self.session, queries)

        results = (self.timed("scenario", solve, traced=traced,
                              per=len(queries)) if timed else solve(None))
        for column, result in zip(columns, results):
            self.check("scenario", dict(zip(self.edges, column)), self.nodes,
                       result)
        self.equivalence("scenario", columns[0], results[0])

    def sim(self, traced: bool) -> None:
        result = self.timed(
            "sim_solve", lambda _: self.session.solve(eps=EPS, engine="sim"),
            traced=traced)
        self.check("sim_solve", self.base, self.nodes, result)
        self.sim_counts = {
            "sim.measured_rounds": result.measured_rounds,
            "sim.priced_rounds": result.priced_rounds,
            "sim.max_ratio": result.max_ratio,
        }

    def equivalence(self, kind: str, column: list, result: Any) -> None:
        """Once per kind and run, untimed: the result equals a solve of the
        full weight column on a separate full-column-only session."""
        from repro.runtime import SolverSession

        if kind in self.equivalence_done:
            return
        self.equivalence_done.add(kind)
        if self.reference is None:
            self.reference = SolverSession(self.g, backend="fast")
        diff = full_column_diff(self.reference, column, result)
        self.tally.check(f"{kind} vs full-column solve",
                         [f"differs in {', '.join(diff)}"] if diff else [])


def run(seed: int, scale: float, traced: bool, root: Path,
        tiny: bool = False) -> tuple[dict, Tally, list[str]]:
    """Run ``session-er2k`` with its operation counts scaled by ``scale``;
    return (metrics, tally, report lines)."""
    cfg = TINY if tiny else CONFIG
    setup_wall, setup = measure_setup(root, cfg.setup_repeats)
    warm_up()
    runner = _Runner(cfg, seed, scale, traced)
    stats = runner.run()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines = [f"setup: n={len(setup)}, wall p50 {median(setup_wall):.4g} s"]
    if traced:
        metrics = _layer_metrics(runner, stats)
    else:
        metrics = _end_to_end(runner, setup, peak_mb, lines)
    return metrics, runner.tally, lines


def _p50(values: list[float]) -> float:
    return median(values) if values else 0.0


def _end_to_end(runner: _Runner, setup: list[float], peak_mb: float,
                lines: list[str]) -> dict:
    t = runner.times
    for kind, values in sorted(t.items()):
        lines.append(f"{kind}: n={len(values)}, wall p50 "
                     f"{median(runner.wall_times[kind]):.4g} s")
    stream = runner.stream_times
    tail = summarize([x * 1000.0 for x in stream]) if stream else None
    if tail:
        lines.append(f"serve.* stream: n={tail.count} ticks of n="
                     f"{runner.cfg.stream_n}, {tail.beyond_p99} beyond p99")
    return {
        "setup_s": median(setup),
        "cold_start.p50_s": _p50(t.get("cold_start", [])),
        "warm_solve.p50_s": _p50(t.get("warm_solve", [])),
        "delta_tick.p50_s": _p50(t.get("delta_tick", [])),
        "scenario.p50_s": _p50(t.get("scenario", [])),
        "serve.p50_ms": tail.p50 if tail else 0.0,
        "serve.p95_ms": tail.p95 if tail else 0.0,
        "serve.max_rps": len(stream) / sum(stream) if stream else 0.0,
        "peak_rss_mb": peak_mb,
    }


def _layer_metrics(runner: _Runner, stats: dict) -> dict:
    from perfbench.trace import layer_self_times, op_breakdown

    metrics: dict[str, float] = {}
    spans = runner.tracer.spans
    for layer, values in layer_self_times(spans).items():
        if layer != "sim.solve":  # its whole op is sim_solve.p50_s
            metrics[f"{layer}_s"] = sum(values)
    metrics["tap.calls"] = float(sum(1 for s in spans if s.name == "tap.solve"))
    for op, rows in op_breakdown(spans).items():
        metrics[f"{op}.unattributed_s"] = median([w - c for w, c in rows])
        metrics[f"{op}.coverage_frac"] = median([c / w for w, c in rows])
        untraced = runner.wall_times.get(op)
        if untraced:
            metrics[f"{op}.trace_overhead_frac"] = (
                median(runner.traced_times[op]) / median(untraced) - 1.0)
    if "sim_solve" in runner.traced_times:
        metrics["sim_solve.p50_s"] = median(runner.traced_times["sim_solve"])
    metrics.update(runner.sim_counts)
    if runner.stream_times:
        metrics["serve.p99_ms"] = summarize(
            [x * 1000.0 for x in runner.stream_times]).p99
    metrics["gc.collect_s"] = runner.gc_s
    built, hits = stats.get("plans_built", 0), stats.get("plan_hits", 0)
    deltas = stats.get("delta_requests", 0)
    metrics.update({
        "plan.built": float(built),
        "plan.hits": float(hits),
        "plan.hit_ratio": hits / (hits + built) if hits + built else 0.0,
        "delta.tree_reuses": float(stats.get("delta_tree_reuses", 0)),
        "delta.tree_swaps": float(stats.get("delta_tree_swaps", 0)),
        "delta.fallbacks": float(stats.get("delta_fallbacks", 0)),
        "delta.fallback_ratio":
            stats.get("delta_fallbacks", 0) / deltas if deltas else 0.0,
        "batch.vectorized_batches": float(stats.get("vectorized_batches", 0)),
        "batch.scalar_fallback": float(stats.get("scalar_fallback", 0)),
        "trace.unmeasured_layers": float(len(runner.instr.unmeasured)
                                         if runner.instr else 0),
        "error_rate": runner.tally.error_rate,
    })
    return metrics

"""The ``serve-zipf`` workload: the HTTP service driven from outside.

``python -m repro serve --port 0 --workers 1`` runs in its own process
group.  This process is the only client and holds at most two keep-alive
connections, using its own stdlib HTTP client.  Traffic is zipf (s=1.1)
over 16 topologies of about 150 nodes (``erdos_renyi``, ``cycle_chords``,
``grid``), each with 4 weight scenarios and 2 sparse deltas.  Phases:

1. registration — one full-graph ``/v1/solve`` per topology, one at a time,
   for the 16 topologies and for 32 more that are only registered; then,
   untimed, one request per scenario and delta of the 16, to build plans;
2. open loop — requests sent on a fixed schedule, 20% ``/v1/delta`` and
   the rest validated full-column requests by fingerprint, each timed from
   its scheduled send time to its last response byte;
3. scenario batches — two passes over all 48 registered topologies, one
   ``/v1/solve_batch`` per round of families carrying their 12 scenarios;
4. closed loop — both connections send back to back, for capacity.

Times are reported in reference seconds (:mod:`perfbench.speed`): phases
1 and 3 probe the machine's speed between requests, the open loop probes
whenever the server is idle, and the closed loop runs in slices with
probes between them.

Connections are closed before the server is stopped.  Every response is
checked; a sample is also compared with ``result_to_payload`` of the
library's result for the same input.
"""

from __future__ import annotations

import bisect
import http.client
import itertools
import json
import os
import queue
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from perfbench import checks, inputs, speed
from perfbench.stats import Tally, median, summarize

EPS = 0.5
FAMILIES = ("erdos_renyi", "cycle_chords", "grid")
#: The open-loop scheduler probes only when the next send is this far off.
PROBE_GAP_S = 0.02


@dataclass(frozen=True)
class ServeConfig:
    """Traffic shape of the workload (at the declared run length)."""

    topologies: int = 16
    #: Topologies registered only, to sample cold starts (a multiple of 3).
    cold_only: int = 32
    n: int = 150
    scenarios: int = 4
    deltas: int = 2
    delta_share: float = 0.2
    zipf_s: float = 1.1
    rate: float = 25.0
    open_requests: int = 1000
    batch_repeats: int = 2
    closed_seconds: float = 3.0
    closed_slices: int = 6
    spawns: int = 3


TINY = ServeConfig(topologies=4, cold_only=2, n=30, open_requests=40,
                   batch_repeats=1, closed_seconds=0.5, closed_slices=2,
                   spawns=1)

_LISTENING = re.compile(r"listening on http://([^:\s]+):(\d+)")


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------


def _children(pid: int) -> list[int]:
    out = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(c) for c in fh.read().split())
    except OSError:
        pass
    return out


def _descendants(pid: int) -> list[int]:
    found, todo = [], [pid]
    while todo:
        for child in _children(todo.pop()):
            found.append(child)
            todo.append(child)
    return found


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class ServerProcess:
    """``python -m repro serve`` in its own process group."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.proc: subprocess.Popen | None = None
        self.host, self.port = "127.0.0.1", 0
        self.stdout: list[str] = []
        self.stderr: list[str] = []
        self._threads: list[threading.Thread] = []

    def _drain(self, stream: Any, sink: list[str]) -> None:
        for line in stream:
            sink.append(line)

    def start(self, timeout: float = 60.0) -> float:
        """Spawn the server; return seconds until ``/healthz`` answers 200."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.stdout = []  # a fresh sink: the port line must be this spawn's
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1"],
            cwd=self.root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        for stream, sink in ((self.proc.stdout, self.stdout),
                             (self.proc.stderr, self.stderr)):
            t = threading.Thread(target=self._drain, args=(stream, sink),
                                 daemon=True)
            t.start()
            self._threads.append(t)
        deadline = t0 + timeout
        while time.perf_counter() < deadline:
            found = _LISTENING.search("".join(self.stdout))
            if found:
                self.host, self.port = found.group(1), int(found.group(2))
                break
            if self.proc.poll() is not None:
                raise RuntimeError("server exited: " + "".join(self.stderr)[-500:])
            time.sleep(0.005)
        else:
            raise RuntimeError("server did not report its port")
        while time.perf_counter() < deadline:
            try:
                conn = Connection(self.host, self.port, timeout=5.0)
                try:
                    status, _, _, _ = conn.call("GET", "/healthz")
                finally:
                    conn.close()
                if status == 200:
                    return time.perf_counter() - t0
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("server never answered /healthz")

    def peak_rss_mb(self) -> float:
        """Peak RSS of the server and every process beneath it, in MB."""
        if self.proc is None:
            return 0.0
        pids = [self.proc.pid, *_descendants(self.proc.pid)]
        return sum(_peak_rss_kb(p) for p in pids) / 1024.0

    def stop(self, timeout: float = 10.0) -> None:
        """SIGINT (graceful drain), then SIGKILL the group; wait for all."""
        if self.proc is None:
            return
        family = _descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait(timeout=timeout)
        deadline = time.monotonic() + timeout
        while any(_alive(p) for p in family) and time.monotonic() < deadline:
            time.sleep(0.01)
        for pid in family:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        for t in self._threads:
            t.join(timeout=5.0)
        self._threads = []
        self.proc = None


# ---------------------------------------------------------------------------
# the client
# ---------------------------------------------------------------------------


class Connection:
    """One keep-alive HTTP/1.1 connection (stdlib ``http.client``)."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.host, self.port, self.timeout = host, port, timeout
        self._conn: http.client.HTTPConnection | None = None

    def call(self, method: str, path: str, body: bytes | None = None
             ) -> tuple[int, bytes, float, float]:
        """Send one request; return (status, body, send time, done time)."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        headers = {"Content-Type": "application/json"} if body else {}
        t_send = time.perf_counter()
        try:
            self._conn.request(method, path, body=body, headers=headers)
            resp = self._conn.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        t_done = time.perf_counter()
        if resp.will_close:
            self.close()
        return resp.status, data, t_send, t_done

    def close(self) -> None:
        """Close the socket (the server sees an orderly EOF)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None


@dataclass
class Request:
    """One prepared request and, after sending, what came back."""

    kind: str  # register | full | delta | batch
    topology: int
    variant: int
    path: str
    body: bytes
    timings: bool = False
    status: int = 0
    data: bytes = b""
    error: str = ""
    scheduled: float = 0.0
    enqueued: float = 0.0
    picked: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    #: reference seconds per wall second around this request (speed.py)
    scale: float = 1.0

    def send(self, conn: Connection) -> None:
        try:
            self.status, self.data, self.sent, self.done = conn.call(
                "POST", self.path, self.body)
        except (OSError, http.client.HTTPException) as exc:
            self.error = f"{type(exc).__name__}: {exc}"
            self.sent = self.sent or time.perf_counter()
            self.done = time.perf_counter()


@dataclass
class Topology:
    """One served graph with its weight scenarios and deltas."""

    graph: Any
    payload: dict
    base: dict
    edges: list
    columns: list[list[float]]
    deltas: list[list[list]]
    tid: str = ""

    def weights_for(self, kind: str, variant: int) -> dict:
        """The input weights a request of ``kind``/``variant`` solves on."""
        if kind == "full":
            return dict(zip(self.edges, self.columns[variant]))
        weights = dict(self.base)
        if kind == "delta":
            for u, v, w in self.deltas[variant]:
                weights[(u, v) if u < v else (v, u)] = w
        return weights


def make_topologies(cfg: ServeConfig, seed: int) -> list[Topology]:
    """The workload's graphs, scenario columns and deltas for ``seed``: the
    ``cfg.topologies`` that get traffic, then the cold-start-only ones."""
    rng = random.Random(f"serve:{seed}")
    out = []
    for i in range(cfg.topologies + cfg.cold_only):
        g = inputs.make_graph(FAMILIES[i % len(FAMILIES)], cfg.n,
                              seed * 100 + i)
        triples = [[u, v, w] for u, v, w in g.edges(data="weight")]
        edges = [(u, v) if u < v else (v, u) for u, v, _ in triples]
        col = [w for _, _, w in triples]
        columns = [[w * (1.0 + rng.uniform(-0.05, 0.05)) for w in col]
                   for _ in range(cfg.scenarios)]
        k = max(2, len(col) // 100)
        deltas = [
            [[triples[j][0], triples[j][1], w]
             for j, w in sorted(inputs.jitter(
                 col, rng.sample(range(len(col)), k), rng, 0.01).items())]
            for _ in range(cfg.deltas)
        ]
        out.append(Topology(g, {"nodes": list(g.nodes), "edges": triples},
                            inputs.edge_weights(g), edges, columns, deltas))
    return out


def _body(obj: dict) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode()


def registration(topo: Topology, index: int) -> Request:
    return Request("register", index, 0, "/v1/solve",
                   _body({"graph": topo.payload, "eps": EPS}))


def popularity_order(count: int, rng: random.Random) -> list[int]:
    """Topology indices by popularity rank, random within each family but
    with the families taking turns, so that every seed puts the same
    family mix at the head of the zipf curve (topology ``i`` is of family
    ``i % 3``; the families' costs differ about twofold)."""
    by_family = [list(range(f, count, len(FAMILIES)))
                 for f in range(len(FAMILIES))]
    for members in by_family:
        rng.shuffle(members)
    order = itertools.chain.from_iterable(itertools.zip_longest(*by_family))
    return [i for i in order if i is not None]


def traffic(topos: list[Topology], cfg: ServeConfig, rng: random.Random,
            ranks: list[int], timings: bool = False) -> Iterator[Request]:
    """Endless zipf-distributed full-column and delta requests.

    ``ranks[r]`` is the topology of popularity rank ``r``; with
    ``timings`` every second request asks for the server's phase times.
    """
    popularity = [1.0 / (r + 1) ** cfg.zipf_s for r in range(len(topos))]
    for i in itertools.count():
        t = ranks[rng.choices(range(len(topos)), popularity)[0]]
        topo = topos[t]
        flag = timings and i % 2 == 1
        extra = {"timings": True} if flag else {}
        if rng.random() < cfg.delta_share:
            v = rng.randrange(cfg.deltas)
            body = {"topology": topo.tid, "delta": topo.deltas[v],
                    "eps": EPS, "validate": False, **extra}
            yield Request("delta", t, v, "/v1/delta", _body(body), flag)
        else:
            v = rng.randrange(cfg.scenarios)
            body = {"topology": topo.tid, "weights": topo.columns[v],
                    "eps": EPS, **extra}
            yield Request("full", t, v, "/v1/solve", _body(body), flag)


def warmup_requests(topo: Topology, index: int,
                    cfg: ServeConfig) -> list[Request]:
    """One request for each weight scenario and each delta of a topology."""
    full = [Request("full", index, v, "/v1/solve", _body(
        {"topology": topo.tid, "weights": topo.columns[v], "eps": EPS}))
        for v in range(cfg.scenarios)]
    delta = [Request("delta", index, v, "/v1/delta", _body(
        {"topology": topo.tid, "delta": topo.deltas[v], "eps": EPS,
         "validate": False}))
        for v in range(cfg.deltas)]
    return full + delta


def batch_request(topos: list[Topology], first: int, repeat: int) -> Request:
    """Every scenario of ``topos`` (one round of families, starting at
    topology index ``first``) in one ``/v1/solve_batch``."""
    items = [{"topology": topo.tid, "weights": c, "eps": EPS}
             for topo in topos for c in topo.columns]
    return Request("batch", first, repeat, "/v1/solve_batch",
                   _body({"requests": items}))


def family_rounds(reqs: list[Request], value: Any) -> list[float]:
    """Mean of ``value(req)`` over each complete round of one topology per
    family.  Latency depends strongly on the family, so a median over
    single requests would jump between families from seed to seed."""
    rounds: dict[int, list[float]] = {}
    for r in reqs:
        rounds.setdefault(r.topology // len(FAMILIES), []).append(value(r))
    return [sum(v) / len(v) for v in rounds.values() if len(v) == len(FAMILIES)]


def open_loop(conns: list[Connection], requests: list[Request],
              rate: float) -> list[tuple[float, float]]:
    """Send ``requests`` at ``rate`` per second on ``conns`` (open loop).

    While no request is in flight and the next send is far enough off,
    the scheduler runs a speed probe; returns the ``(time, seconds)`` of
    each, for :func:`local_scale`.  Probing only when the server is idle
    keeps it from competing with a request for the two cores.
    """
    pending: queue.Queue = queue.Queue()
    lock = threading.Lock()
    in_flight = [0]
    probes: list[tuple[float, float]] = []

    def worker(conn: Connection) -> None:
        while True:
            req = pending.get()
            if req is None:
                return
            req.picked = time.perf_counter()
            req.send(conn)
            with lock:
                in_flight[0] -= 1

    threads = [threading.Thread(target=worker, args=(c,)) for c in conns]
    for t in threads:
        t.start()
    start = time.perf_counter() + 0.05
    last_probe = 0.0
    try:
        for i, req in enumerate(requests):
            req.scheduled = start + i / rate
            while True:
                now = time.perf_counter()
                delay = req.scheduled - now
                if delay <= 0:
                    break
                with lock:
                    idle = in_flight[0] == 0
                if idle and delay > PROBE_GAP_S and now - last_probe > 0.2:
                    last_probe = now
                    probes.append((now, speed.probe()))
                else:
                    time.sleep(min(delay, 0.002))
            with lock:
                in_flight[0] += 1
            req.enqueued = time.perf_counter()
            pending.put(req)
    finally:
        for _ in threads:
            pending.put(None)
        for t in threads:
            t.join()
    return probes


def local_scale(probes: list[tuple[float, float]], at: float,
                window: float = 1.5) -> float:
    """Reference-second scale at time ``at``: ``REFERENCE_S`` over the
    median probe within ``window`` seconds (or the nearest three)."""
    times = [t for t, _ in probes]
    lo = bisect.bisect_left(times, at - window)
    hi = bisect.bisect_right(times, at + window)
    near = [d for _, d in probes[lo:hi]]
    if len(near) < 3:
        near = [d for _, d in sorted(probes, key=lambda p: abs(p[0] - at))[:3]]
    return speed.REFERENCE_S / median(near)


def one_by_one(conn: Connection, requests: list[Request]) -> None:
    """Send ``requests`` one at a time, each between two speed probes."""
    before = speed.probe()
    for req in requests:
        req.send(conn)
        after = speed.probe()
        req.scale = 2.0 * speed.REFERENCE_S / (before + after)
        before = after


def closed_loop(conns: list[Connection], streams: list[Iterator[Request]],
                seconds: float, slices: int) -> tuple[float, float, list[Request]]:
    """Each connection sends its stream back to back, in ``slices`` slices
    of ``seconds / slices`` with speed probes between them (the server is
    idle then).  Return the median slice throughput in reference requests
    per second, the overall wall-clock throughput, and the requests sent."""
    done: list[Request] = []
    ref_rps, wall_ok, wall_time = [], 0, 0.0
    before = speed.probe_median(3)
    for _ in range(slices):
        sent: list[list[Request]] = [[] for _ in conns]
        deadline = time.perf_counter() + seconds / slices

        def worker(k: int) -> None:
            for req in streams[k]:
                if time.perf_counter() >= deadline:
                    return
                req.send(conns[k])
                sent[k].append(req)

        t0 = time.perf_counter()
        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(len(conns))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0
        after = speed.probe_median(3)
        batch = [r for reqs in sent for r in reqs]
        ok = sum(1 for r in batch if r.status == 200)
        ref_rps.append(ok / elapsed * (before + after) / 2.0 / speed.REFERENCE_S)
        wall_ok += ok
        wall_time += elapsed
        done.extend(batch)
        before = after
    return median(ref_rps), wall_ok / wall_time, done


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


class _Checker:
    """Checks responses; compares a sample with the library's payload."""

    def __init__(self, topos: list[Topology], tally: Tally) -> None:
        self.topos = topos
        self.tally = tally
        self.sessions: dict[int, Any] = {}
        #: (kind, topology, variant) -> a result that passed every check;
        #: a response equal to it has passed them too.
        self.verified: dict[tuple, dict] = {}
        self.payload_s: list[float] = []
        self.payload_bytes: list[int] = []

    def reference(self, kind: str, t: int, variant: int) -> dict:
        from repro.runtime import SolverSession
        from repro.serve.protocol import graph_from_payload, result_to_payload

        topo = self.topos[t]
        session = self.sessions.get(t)
        if session is None:
            session = SolverSession(graph_from_payload(topo.payload),
                                    backend="auto")
            self.sessions[t] = session
        if kind == "register":
            result = session.solve(eps=EPS)
        elif kind == "delta":
            result = session.solve(
                eps=EPS, validate=False,
                weights_delta={(u, v): w for u, v, w in topo.deltas[variant]})
        else:
            result = session.solve(eps=EPS, weights=topo.columns[variant])
        t0 = time.perf_counter()
        payload = result_to_payload(result)
        wire = json.dumps(payload)
        self.payload_s.append(time.perf_counter() - t0)
        self.payload_bytes.append(len(wire))
        return payload

    def one(self, label: str, kind: str, t: int, variant: int,
            status: int, obj: Any) -> None:
        if status != 200 or not isinstance(obj, dict) or "result" not in obj:
            self.tally.fail(f"{label}: HTTP {status} {str(obj)[:200]}")
            return
        key = (kind, t, variant)
        if self.verified.get(key) == obj["result"]:
            self.tally.ok()
            return
        topo = self.topos[t]
        problems = checks.check_result(topo.weights_for(kind, variant),
                                       topo.graph.nodes, obj["result"])
        if not problems and obj["result"] != self.reference(kind, t, variant):
            problems.append("response differs from the library payload")
        if self.tally.check(label, problems):
            self.verified.setdefault(key, obj["result"])

    def response(self, req: Request) -> Any:
        """Check one sent request; return its decoded body (or None)."""
        if req.error:
            self.tally.fail(f"{req.kind}: {req.error}")
            return None
        try:
            obj = json.loads(req.data)
        except ValueError:
            self.tally.fail(f"{req.kind}: HTTP {req.status} undecodable body")
            return None
        if req.kind == "batch":
            items = obj.get("responses", []) if req.status == 200 else []
            per = len(self.topos[0].columns)
            if len(items) != len(FAMILIES) * per:
                self.tally.fail(f"batch: HTTP {req.status}, "
                                f"{len(items)} responses")
                return obj
            for i, item in enumerate(items):
                self.one("batch item", "full", req.topology + i // per,
                         i % per, item.get("status", 0), item)
            return obj
        self.one(req.kind, req.kind, req.topology, req.variant, req.status, obj)
        return obj


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


@dataclass
class _Run:
    #: server start-up times, in reference and in wall seconds
    setup: list[float] = field(default_factory=list)
    setup_wall: list[float] = field(default_factory=list)
    #: (time, seconds) of the probes taken inside the open loop
    open_probes: list[tuple[float, float]] = field(default_factory=list)
    registrations: list[Request] = field(default_factory=list)
    warmup: list[Request] = field(default_factory=list)
    open: list[Request] = field(default_factory=list)
    batches: list[Request] = field(default_factory=list)
    closed: list[Request] = field(default_factory=list)
    max_rps: float = 0.0  # reference requests per second
    max_rps_wall: float = 0.0
    peak_rss_mb: float = 0.0
    server_metrics: dict = field(default_factory=dict)
    stderr: str = ""


def _drive(cfg: ServeConfig, seed: int, scale: float, traced: bool,
           root: Path, topos: list[Topology]) -> _Run:
    run = _Run()
    server = ServerProcess(root)
    conns: list[Connection] = []
    try:
        for i in range(cfg.spawns):
            _, wall, ref = speed.bracketed(server.start)
            run.setup_wall.append(wall)
            run.setup.append(ref)
            if i + 1 < cfg.spawns:
                server.stop()
        conns = [Connection(server.host, server.port) for _ in range(2)]
        run.registrations = [registration(t, i) for i, t in enumerate(topos)]
        one_by_one(conns[0], run.registrations)
        for topo, req in zip(topos, run.registrations):
            if req.status == 200:
                topo.tid = json.loads(req.data)["topology"]
        served = topos[:cfg.topologies]
        # Untimed: one request per weight scenario and delta of each served
        # topology builds the plans the open loop reuses, so its tail does
        # not depend on how many first-time plans a seed's draw contains.
        run.warmup = [req for t, topo in enumerate(served)
                      for req in warmup_requests(topo, t, cfg)]
        for req in run.warmup:
            req.send(conns[0])
        rng = random.Random(f"serve-traffic:{seed}")
        ranks = popularity_order(len(served), rng)
        n_open = max(10, round(cfg.open_requests * scale))
        run.open = list(itertools.islice(
            traffic(served, cfg, rng, ranks, traced), n_open))
        run.open_probes = open_loop(conns, run.open, cfg.rate)
        k = len(FAMILIES)
        run.batches = [batch_request(topos[i:i + k], i, repeat)
                       for repeat in range(cfg.batch_repeats)
                       for i in range(0, len(topos) - k + 1, k)]
        one_by_one(conns[0], run.batches)
        streams = [traffic(served, cfg,
                           random.Random(f"serve-closed:{seed}:{k}"), ranks)
                   for k in range(len(conns))]
        run.max_rps, run.max_rps_wall, run.closed = closed_loop(
            conns, streams, max(0.2, cfg.closed_seconds * scale),
            cfg.closed_slices)
        if traced:
            status, data, _, _ = conns[0].call("GET", "/metrics")
            if status == 200:
                run.server_metrics = json.loads(data)
        run.peak_rss_mb = server.peak_rss_mb()
    finally:
        for conn in conns:
            conn.close()
        if conns:
            time.sleep(0.3)  # let the server see the EOFs before SIGINT
        server.stop()
        run.stderr = "".join(server.stderr)
    return run


def run(seed: int, scale: float, traced: bool, root: Path,
        tiny: bool = False) -> tuple[dict, Tally, list[str]]:
    """Run ``serve-zipf`` with its timed phases scaled by ``scale``;
    return (metrics, tally, report lines)."""
    cfg = TINY if tiny else ServeConfig()
    topos = make_topologies(cfg, seed)
    result = _drive(cfg, seed, scale, traced, root, topos)
    tally = Tally()
    checker = _Checker(topos, tally)
    decoded = {}
    for req in (result.registrations + result.warmup + result.open
                + result.batches
                + result.closed):
        decoded[id(req)] = checker.response(req)
    lines = [
        f"registrations: n={len(result.registrations)}",
        f"open loop: n={len(result.open)} at {cfg.rate:g} req/s",
        f"scenario batches: n={len(result.batches)}",
        f"closed loop: n={len(result.closed)}",
        f"server stderr tracebacks: {result.stderr.count('Traceback')}",
    ]
    if traced:
        metrics = _layer_metrics(result, checker, decoded, tally)
    else:
        metrics = _end_to_end(result, cfg, lines)
    return metrics, tally, lines


def _ok(reqs: list[Request]) -> list[Request]:
    return [r for r in reqs if r.status == 200 and not r.error]


def _p50(values: list[float]) -> float:
    return median(values) if values else 0.0


def open_latency(result: _Run) -> list[tuple[Request, float]]:
    """Each successful open-loop request with its latency from scheduled
    send to last byte, in reference seconds (scaled by the probes taken
    around it)."""
    open_ok = _ok(result.open)
    for r in open_ok:
        r.scale = local_scale(result.open_probes, r.scheduled)
    return [(r, (r.done - r.scheduled) * r.scale) for r in open_ok]


def _end_to_end(result: _Run, cfg: ServeConfig, lines: list[str]) -> dict:
    open_ok = _ok(result.open)
    latency = open_latency(result)
    summary = summarize([x * 1000.0 for _, x in latency]) if latency else None
    if summary:
        wall_ms = summarize([(r.done - r.scheduled) * 1000.0 for r in open_ok])
        lines.append(f"open loop latency: n={summary.count}, "
                     f"{summary.beyond_p99} beyond p99, "
                     f"{len(result.open_probes)} probes; wall p50 "
                     f"{wall_ms.p50:.4g} ms, p99 {wall_ms.p99:.4g} ms")
    lines.append(f"setup wall p50 {median(result.setup_wall):.4g} s; "
                 f"closed loop wall {result.max_rps_wall:.4g} req/s")
    return {
        "setup_s": median(result.setup),
        "cold_start.p50_s": _p50(family_rounds(
            _ok(result.registrations), lambda r: (r.done - r.sent) * r.scale)),
        "warm_solve.p50_s": _p50([x for r, x in latency if r.kind == "full"]),
        "delta_tick.p50_s": _p50([x for r, x in latency if r.kind == "delta"]),
        "scenario.p50_s": _p50(scenario_passes(result.batches, cfg)),
        "serve.p50_ms": summary.p50 if summary else 0.0,
        "serve.p95_ms": summary.p95 if summary else 0.0,
        "serve.max_rps": result.max_rps,
        "peak_rss_mb": result.peak_rss_mb,
    }


def scenario_passes(batches: list[Request], cfg: ServeConfig) -> list[float]:
    """Per pass over all topologies: scaled batch time per scenario."""
    passes: dict[int, list[Request]] = {}
    for r in batches:
        passes.setdefault(r.variant, []).append(r)
    out = []
    for reqs in passes.values():
        if all(r.status == 200 and not r.error for r in reqs):
            scenarios = len(reqs) * len(FAMILIES) * cfg.scenarios
            out.append(sum((r.done - r.sent) * r.scale for r in reqs)
                       / scenarios)
    return out


def _phase_ms(timings: dict, name: str) -> float:
    return float(timings.get(name, {}).get("total_ms", 0.0))


def _layer_metrics(result: _Run, checker: _Checker, decoded: dict,
                   tally: Tally) -> dict:
    metrics: dict[str, float] = {}
    latency = open_latency(result)
    if latency:
        metrics["serve.p99_ms"] = summarize(
            [x * 1000.0 for _, x in latency]).p99
    open_ok = _ok(result.open)
    traced = [r for r in open_ok if r.timings]
    plain = [r for r in open_ok if not r.timings]
    timings = [decoded[id(r)].get("timings", {}) for r in traced
               if isinstance(decoded.get(id(r)), dict)]
    if timings:
        parse = [_phase_ms(t, "serve.parse") for t in timings]
        wait = [_phase_ms(t, "serve.batch_wait") for t in timings]
        dispatch = [_phase_ms(t, "serve.dispatch") for t in timings]
        worker = [_phase_ms(t, "worker.solve_batch") for t in timings]
        metrics.update({
            "serve.parse_ms": median(parse),
            "serve.batch_wait_ms": median(wait),
            "serve.dispatch_ms": median(dispatch),
            "serve.worker_ms": median(worker),
            "serve.ipc_ms": median([d - w for d, w in zip(dispatch, worker)]),
            "serve.serialize_ms": median(
                [_phase_ms(t, "serve.serialize") for t in timings]),
        })
        walls = [(r.done - r.sent) * 1000.0 for r in traced]
        covered = [p + w for p, w in zip(parse, wait)]
        metrics["request.unattributed_s"] = median(
            [(x - c) / 1000.0 for x, c in zip(walls, covered)])
        metrics["request.coverage_frac"] = median(
            [c / x for x, c in zip(walls, covered)])
        if plain:
            metrics["request.trace_overhead_frac"] = (
                median([r.done - r.sent for r in traced])
                / median([r.done - r.sent for r in plain]) - 1.0)
    sizes = [decoded[id(r)].get("server", {}).get("batch_size", 0)
             for r in open_ok if isinstance(decoded.get(id(r)), dict)]
    if sizes:
        metrics["serve.batch_size_mean"] = sum(sizes) / len(sizes)
    if open_ok:
        lag_ms = [(r.sent - r.scheduled) * 1000.0 for r in open_ok]
        metrics["client.lag_p50_ms"] = median(lag_ms)
        metrics["client.lag_max_ms"] = max(lag_ms)
        metrics["client.conn_wait_ms"] = median(
            [(r.picked - r.enqueued) * 1000.0 for r in open_ok])
        metrics["serve.response_bytes"] = median(
            [float(len(r.data)) for r in open_ok])
    if checker.payload_s:
        metrics["protocol.payload_s"] = median(checker.payload_s)
        metrics["protocol.payload_bytes"] = median(
            [float(b) for b in checker.payload_bytes])
    server = result.server_metrics
    counters = server.get("counters", {})
    metrics["serve.registrations"] = float(
        counters.get("topologies.registered", 0))
    metrics["serve.reregistrations"] = float(sum(
        1 for r in result.open if r.status == 404))
    built = hits = 0
    for worker_stats in server.get("workers", []):
        for session in worker_stats.get("sessions", []):
            built += session.get("plans_built", 0)
            hits += session.get("plan_hits", 0)
    metrics["plan.built"] = float(built)
    metrics["plan.hits"] = float(hits)
    metrics["plan.hit_ratio"] = hits / (hits + built) if hits + built else 0.0
    phases = server.get("phases", {})
    for metric, phase in (("plan.mst_s", "plan.mst"),
                          ("plan.links_s", "plan.links"),
                          ("plan.instance_s", "plan.instance:fast"),
                          ("plan.diameter_s", "plan.diameter"),
                          ("tap.solve_s", "solve.tap")):
        metrics[metric] = float(phases.get(phase, {}).get("total_s", 0.0))
    metrics["tap.calls"] = float(phases.get("solve.tap", {}).get("count", 0))
    solver = server.get("solver", {})
    metrics["batch.vectorized_batches"] = float(
        solver.get("vectorized_batches", 0))
    metrics["batch.scalar_fallback"] = float(solver.get("scalar_fallback", 0))
    metrics["error_rate"] = tally.error_rate
    return metrics

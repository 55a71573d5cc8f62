"""Benchmark entry point: ``python3 perfbench/run.py --workload W --seed S``.

Run from the repository root (``--trace 1`` for the per-layer run,
``--seconds`` to scale the run length, ``--tiny`` for smoke-test sizes).
Workloads, metric names, units, bounds and the run length are read from
``BENCHMARK.json``, the one place they are declared.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  Lines
before it name every metric with its unit, the sample counts, the raw
wall-clock medians, the error rate and every failed check.  The exit
code is non-zero when any operation or output check failed, and when the
program under ``src/`` is missing.

End-to-end times are in reference seconds: wall time scaled by a
calibration probe run next to each operation (:mod:`perfbench.speed`),
which removes most of the machine's own speed swings.  How each
end-to-end metric reads on each kind of workload:

=============  =============================  ===============================
metric         session-er2k (in-process)      serve-zipf (over HTTP)
=============  =============================  ===============================
setup_s        fresh interpreter: imports +   server spawn until ``/healthz``
               warm-up (median of 3)          answers 200 (median of 3)
cold_start     ``SolverSession(g)`` + first   a registration request (full
               validated solve                graph upload), mean per round
                                              of one topology per family
warm_solve     validated solve, warm plan     validated full-column request
                                              by fingerprint (open loop)
delta_tick     ``weights_delta`` solve,       ``/v1/delta`` request (open
               ``validate=False``             loop)
scenario       vectorized batch wall time /   ``/v1/solve_batch`` wall time /
               scenarios                      scenarios
serve.p50_ms   latency of 1000 closed-loop    open-loop latency from
serve.p95_ms   delta ticks, 50 n=150 graphs   scheduled send to last byte
serve.max_rps  ticks per second of tick time  closed loop, 2 connections
peak_rss_mb    the benchmark process          server plus its worker
=============  =============================  ===============================

Every end-to-end metric is reported on every workload.  The in-process
caller's ``serve.*`` stream sends the kind of delta ``/v1/delta`` carries
on ``serve-zipf`` (1% of the edges moved by up to 1%), on Erdős–Rényi
graphs of the same size, so the two workloads' ``serve.*`` figures differ
mostly by what the service adds.

The gated tail is p95.  Both streams have 1000 samples, so a p99 has ten
beyond it, but on serve-zipf it is decided by the handful of requests
that hit a 60-130 ms stall of the machine or the server: across ten
seeds it spread 11-28% (quartile distance over median) in four sets,
past the largest bound a metric may have (25%).  ``serve.p99_ms`` is
therefore a per-layer metric, from the same streams in the traced run
(where half of serve-zipf's requests also ask for phase timings).

Per-layer metrics (``--trace 1``): library layer times, ``handle.*`` to
``batch.*`` in seconds, are self times summed over one run's traced
operations; ``serve.*_ms`` other than ``serve.p99_ms``, and
``client.*_ms``, are per-request medians;
``<op>.*`` are medians over that op's traced samples.  A layer the
workload does not exercise reports 0.

``error_rate`` (failed over attempted operations) is the ``failed`` and
``attempted`` pair of the result line and a per-layer metric: it is 0 on a
correct tree, and a bounded end-to-end metric must never read 0.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (not a measurement)")
    return ap.parse_args(argv)


def _terminate(signum: int, frame: object) -> None:
    """SIGTERM unwinds like an exception, so a spawned server is stopped."""
    sys.exit(128 + signum)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _terminate)
    # A background job may start with SIGINT ignored, and children inherit
    # that; a handled signal is reset on exec, so the spawned server can
    # still be stopped gracefully with SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads)}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # Operation counts are sized for ``run_seconds``; --seconds scales them.
    scale = (1.0 if args.seconds is None
             else args.seconds / spec["run_seconds"])
    traced = bool(args.trace)
    if args.workload == "session-er2k":
        from perfbench import sessions

        metrics, tally, lines = sessions.run(
            args.seed, scale, traced, ROOT, tiny=args.tiny)
    else:
        from perfbench import serving

        metrics, tally, lines = serving.run(
            args.seed, scale, traced, ROOT, tiny=args.tiny)

    declared = spec["per_layer"] if traced else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    unknown = set(metrics) - set(units)
    # Layers a workload does not exercise report 0; an end-to-end metric
    # must always be measured.
    missing = set() if traced else set(units) - set(metrics)
    if unknown or missing:
        raise RuntimeError("metric names differ from BENCHMARK.json: "
                           f"{sorted(unknown | missing)}")
    metrics = {name: metrics.get(name, 0.0) for name in units}
    for line in lines:
        print(f"# {line}")
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    if not traced:
        print(f"error_rate = {tally.error_rate:.6g} fraction")
    print(f"# {tally.failed} of {tally.attempted} operations failed")
    for reason in tally.reasons[:20]:
        print(f"FAILED {reason}")
    ok = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

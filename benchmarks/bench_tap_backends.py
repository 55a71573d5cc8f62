"""The 2000-node TAP backend benchmark: reference loops vs fast kernels.

Runs :func:`repro.core.tap.approximate_tap` on the canonical 2000-node
Erdős–Rényi instance with both backends, asserts that the augmentations are
bit-identical, and records the wall-clock comparison in
``BENCH_tap_backends.json`` at the repo root (the acceptance artifact; CI
uploads it as a workflow artifact).  The speedup gate asserts the
kernelized backend is at least 5x faster.

Also runnable directly (no pytest) to refresh the JSON:

    PYTHONPATH=src python benchmarks/bench_tap_backends.py
"""

from __future__ import annotations

import json
import os
import platform
import time

from history import append_history

from repro.core.tap import approximate_tap
from repro.graphs.families import make_family_instance
from repro.runtime.plan import SolverPlan

N = 2000
SEED = 1
EPS = 0.5
ROUNDS = 3
MIN_SPEEDUP = 5.0

BENCH_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_tap_backends.json",
)


def _instance():
    plan = SolverPlan.for_graph(make_family_instance("erdos_renyi", N, seed=SEED))
    return plan.tree, plan.links


def _time_backend(tree, links, backend: str, validate: bool) -> tuple[float, object]:
    best = float("inf")
    res = None
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        res = approximate_tap(
            tree, links, eps=EPS, validate=validate, backend=backend
        )
        best = min(best, time.perf_counter() - t0)
    return best, res


def run_backend_benchmark() -> dict:
    """Time both backends, check bit-identity, and write the BENCH json."""
    tree, links = _instance()
    record: dict = {
        "benchmark": "tap_backends",
        "instance": {"family": "erdos_renyi", "n": N, "seed": SEED,
                     "links": len(links), "eps": EPS},
        "rounds": ROUNDS,
        "python": platform.python_version(),
        "results": {},
    }
    for validate in (False, True):
        ref_s, ref = _time_backend(tree, links, "reference", validate)
        fast_s, fast = _time_backend(tree, links, "fast", validate)
        assert fast.links == ref.links and fast.weight == ref.weight, (
            "backends diverged — the differential contract is broken"
        )
        key = "validated" if validate else "raw"
        record["results"][key] = {
            "reference_s": round(ref_s, 4),
            "fast_s": round(fast_s, 4),
            "speedup": round(ref_s / fast_s, 2),
            "weight": ref.weight,
        }
    with open(BENCH_PATH, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    append_history("tap_backends", record)
    # Enforce the gate here so both entry points (pytest and the CI docs
    # job's direct `python benchmarks/bench_tap_backends.py`) fail loudly
    # on a performance regression.
    raw_speedup = record["results"]["raw"]["speedup"]
    assert raw_speedup >= MIN_SPEEDUP, (
        f"fast backend speedup {raw_speedup}x below the {MIN_SPEEDUP}x gate"
    )
    return record


def test_bench_tap_backends(benchmark):
    record = benchmark.pedantic(run_backend_benchmark, rounds=1, iterations=1)
    raw = record["results"]["raw"]
    print(
        f"\nTAP n={N}: reference {raw['reference_s']*1e3:.0f} ms, "
        f"fast {raw['fast_s']*1e3:.0f} ms, speedup {raw['speedup']}x "
        f"-> {BENCH_PATH}"
    )
    assert raw["speedup"] >= MIN_SPEEDUP


if __name__ == "__main__":
    rec = run_backend_benchmark()
    print(json.dumps(rec, indent=2))

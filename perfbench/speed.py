"""Machine-speed normalization of wall times.

On a shared virtual machine the same code runs up to ~1.7x slower for
stretches of tens of seconds, so raw wall times of identical runs spread
by far more than any useful regression bound.  Each timed operation is
therefore bracketed by a fixed pure-Python calibration loop, :func:`probe`,
and reported in *reference seconds*: its wall time scaled by
``REFERENCE_S / probe``, i.e. the time it would take on a machine where
the probe takes :data:`REFERENCE_S` (the probe takes 6-12 ms on a 2-core
Intel Xeon VM at 2.0 GHz).  The probe disables the garbage collector and
touches only its own small working set, so nothing the benchmarked
program does changes its time; a program that gets 20% slower reads 20%
slower after scaling too.  Raw wall times are printed alongside.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Callable

from perfbench.stats import median

#: Probe time, in seconds, at which reference seconds equal wall seconds.
REFERENCE_S = 0.009


def probe() -> float:
    """Seconds one fixed calibration loop takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        for i in range(20000):
            table[(i * 7919) % 20011] = i
        sorted(table.items(), key=lambda kv: kv[1] % 97)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def probe_median(n: int = 9) -> float:
    """Median of ``n`` back-to-back probes."""
    return median([probe() for _ in range(n)])


def bracketed(fn: Callable[[], Any]) -> tuple[Any, float, float]:
    """Run ``fn`` between two probes; return (result, wall s, reference s)."""
    before = probe()
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    after = probe()
    return out, wall, wall * REFERENCE_S * 2.0 / (before + after)

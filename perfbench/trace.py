"""Spans recorded from the benchmark's own code, around calls into layers.

The traced run wraps the public functions named in :data:`PROBES` by
replacing module (or class) attributes for the duration of the run — in
the defining module and in every loaded ``repro`` module that imported
the same object — so no file under ``src/`` changes.  A probe whose
target no longer exists is reported as unmeasured instead of failing the
run.  Spans are kept in memory; :func:`op_breakdown` and
:func:`layer_self_times` derive the per-layer numbers from them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: (span name, defining module, attribute path).  ``SolverSession.plan``
#: is split by its arguments into ``delta.plan`` (a ``weights_delta``
#: call) and ``plan.lookup`` (any other call).
PROBES: list[tuple[str, str, str]] = [
    ("handle.build", "repro.runtime.handle", "GraphHandle.from_graph"),
    ("plan.lookup", "repro.runtime.session", "SolverSession.plan"),
    ("tap.solve", "repro.core.tap", "solve_virtual_tap"),
    ("assemble.tap", "repro.core.tap", "assemble_tap_result"),
    ("assemble.two_ecss", "repro.core.tecss", "assemble_two_ecss"),
    ("batch.group", "repro.runtime.batch", "solve_scenario_group"),
    ("batch.mst", "repro.runtime.batch", "stable_kruskal_mst"),
    ("sim.solve", "repro.dist.pipeline", "distributed_two_ecss"),
]


@dataclass
class Span:
    """One timed interval; ``parent`` indexes the enclosing span, if any."""

    name: str
    start: float
    end: float
    op: int
    parent: int | None

    @property
    def duration(self) -> float:
        """Span length in seconds."""
        return self.end - self.start


class Tracer:
    """In-memory span recorder with an explicit parent stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record ``name`` around the body, nested under the open span."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, self._op, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    @contextmanager
    def op(self, kind: str) -> Iterator[None]:
        """Record one benchmark operation as a root span with a new op id."""
        if self._stack:
            raise RuntimeError("operations do not nest")
        self._op += 1
        with self.span(kind):
            yield


class Instrumentation:
    """Install and remove the probe wrappers around one tracer."""

    def __init__(self, tracer: Tracer,
                 probes: list[tuple[str, str, str]] = PROBES) -> None:
        self.tracer = tracer
        self.probes = probes
        self.unmeasured: list[str] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self.tracer
        if name == "plan.lookup":
            @functools.wraps(fn)
            def plan_wrapper(*args: Any, **kwargs: Any) -> Any:
                delta = kwargs.get("weights_delta",
                                   args[2] if len(args) > 2 else None)
                with tracer.span("delta.plan" if delta is not None
                                 else "plan.lookup"):
                    return fn(*args, **kwargs)
            return plan_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Patch every probe target; record the ones that cannot be found."""
        if self._patched:
            return
        self.unmeasured = []
        # Resolve (and so import) every target before patching any, so the
        # importer scan below sees modules that other probes pull in.
        targets = []
        for name, module_name, path in self.probes:
            try:
                owner: Any = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.unmeasured.append(f"{module_name}.{path}")
                continue
            targets.append((name, owner, outer, attr, raw))
        for name, owner, outer, attr, raw in targets:
            if isinstance(raw, classmethod):
                self._set(owner, attr, raw, classmethod(self._wrap(name, raw.__func__)))
            elif outer:
                self._set(owner, attr, raw, self._wrap(name, raw))
            else:
                wrapped = self._wrap(name, raw)
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").startswith("repro") \
                            and getattr(module, attr, None) is raw:
                        self._set(module, attr, raw, wrapped)

    def _set(self, owner: Any, attr: str, original: Any, new: Any) -> None:
        setattr(owner, attr, new)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def active(self) -> Iterator[None]:
        """The probes installed for the body only."""
        self.install()
        try:
            yield
        finally:
            self.uninstall()


def _children(spans: list[Span]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(i)
    return kids


def op_breakdown(spans: list[Span]) -> dict[str, list[tuple[float, float]]]:
    """``{op kind: [(wall, wrapped), ...]}``: each op's wall time and the
    part of it covered by the layer spans directly beneath it."""
    kids = _children(spans)
    out: dict[str, list[tuple[float, float]]] = {}
    for i, s in enumerate(spans):
        if s.parent is None:
            wrapped = sum(spans[j].duration for j in kids.get(i, []))
            out.setdefault(s.name, []).append((s.duration, wrapped))
    return out


def layer_self_times(spans: list[Span]) -> dict[str, list[float]]:
    """``{layer span name: [self time per call, ...]}`` over non-root spans.

    A span's self time is its duration minus its direct children's.
    """
    kids = _children(spans)
    out: dict[str, list[float]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            inner = sum(spans[j].duration for j in kids.get(i, []))
            out.setdefault(s.name, []).append(s.duration - inner)
    return out

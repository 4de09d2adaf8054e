"""In-memory span tracing of the package's public functions.

The tracer replaces a function where the *calling* module binds it (for
example ``bifidelity.cli.read_snapshots``, not ``bifidelity.snapio``'s own
name), so a span records exactly the calls that module makes. Nothing under
``src/`` changes: the originals are put back by :meth:`Tracer.uninstall`.

Each span holds ``(id, name, parent, start, end)`` in ``perf_counter``
seconds; spans stay in memory until the run writes them out. With
``memory=True`` each span also records the peak of tracemalloc-tracked
allocations while it was open, above the level at which it started.
"""

import functools
import os
import time
import tracemalloc

import bifidelity.bound as bound
import bifidelity.cli as cli
import bifidelity.interp as interp
import bifidelity.linalg as linalg
import bifidelity.models as models
import bifidelity.snapio as snapio

# (module that binds the name, attribute, span name). The span name is the
# defining module plus the function, so one layer shows under one prefix
# whichever module called it.
TRACED = [
    (cli, "cli_main", "cli.cli_main"),
    (cli, "read_snapshots", "snapio.read_snapshots"),
    (cli, "write_snapshots", "snapio.write_snapshots"),
    (cli, "read_id", "snapio.read_id"),
    (cli, "write_id", "snapio.write_id"),
    (cli, "build_id", "interp.build_id"),
    (cli, "required_samples", "lifting.required_samples"),
    (cli, "lift", "lifting.lift"),
    (cli, "evaluate_all", "lifting.evaluate_all"),
    (cli, "singular_values", "linalg.singular_values"),
    (cli, "minimize_bound", "bound.minimize_bound"),
    (cli, "efficacy_study", "bound.efficacy_study"),
    (cli, "write_bound_report", "bound.write_bound_report"),
    (bound, "build_id", "interp.build_id"),
    (bound, "minimize_bound", "bound.minimize_bound"),
    (bound, "epsilon_estimated", "bound.epsilon_estimated"),
    (bound, "spectral_norm", "linalg.spectral_norm"),
    (bound, "singular_values", "linalg.singular_values"),
    (interp, "build_id", "interp.build_id"),
    (interp, "pivoted_qr", "linalg.pivoted_qr"),
    (interp, "spectral_norm", "linalg.spectral_norm"),
    (linalg, "singular_values", "linalg.singular_values"),
    (snapio, "write_snapshots", "snapio.write_snapshots"),
    (models, "draw_diffusion_samples", "models.draw_diffusion_samples"),
    (models, "diffusion_pair", "models.diffusion_pair"),
]

# methods and classmethods, patched on the class itself
TRACED_METHODS = [
    (interp.InterpDecomposition, "coeff_norm", "interp.coeff_norm"),
    (bound.GramianPair, "from_columns", "bound.gramian"),
    (bound.GramianPair, "from_snapshots", "bound.gramian"),
    (bound.GramianPair, "full", "bound.gramian"),
]


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "peak", "base",
                 "result")

    def __init__(self, sid, name, parent, start):
        self.id = sid
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.peak = 0
        self.base = 0
        self.result = None


class Tracer:
    """Records nested spans around the functions in :data:`TRACED`."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved = []

    # -- span bookkeeping ------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, None if parent is None else parent.id,
                    time.perf_counter())
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
            span.base = span.peak = cur
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            span.peak = max(span.peak, peak)
            if self._stack:
                parent = self._stack[-1]
                parent.peak = max(parent.peak, span.peak)
            tracemalloc.reset_peak()

    def _wrap(self, func, name):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                tracer.close(span)
                span.result = _summary(name, args, result)
        return traced

    # -- installing the wrappers ------------------------------------------

    def install(self) -> None:
        if self.memory:
            tracemalloc.start()
        for module, attr, name in TRACED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        for cls, attr, name in TRACED_METHODS:
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            if isinstance(original, classmethod):
                setattr(cls, attr, classmethod(self._wrap(original.__func__, name)))
            else:
                setattr(cls, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        if self.memory:
            tracemalloc.stop()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def dump(self):
        """Spans as plain lists: [id, name, parent, start, end]."""
        return [[s.id, s.name, s.parent, s.start, s.end] for s in self.spans]


def _summary(name, args, result):
    """The few facts per call that the layer counters need."""
    if name.startswith("snapio."):
        path = args[0] if name.startswith("snapio.read") else args[1]
        size = os.path.getsize(path)
        if name.endswith("_snapshots") and os.path.exists(f"{path}.json"):
            size += os.path.getsize(f"{path}.json")  # ids sidecar
        return {"bytes": size}
    if result is None:
        return None
    if name == "linalg.pivoted_qr":
        return {"steps": int(result[3])}
    if name == "bound.minimize_bound":
        rho = result.rho_values
        return {"invalid": int((rho != rho).sum()), "cells": int(rho.size)}
    return None


# --------------------------------------------------------------------------
# aggregation
# --------------------------------------------------------------------------

def covered(spans, names) -> float:
    """Total time of spans named in ``names`` not nested in another one."""
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = by_id.get(s.parent)
        while p is not None and p.name not in names:
            p = by_id.get(p.parent)
        if p is None:
            total += s.end - s.start
    return total


def self_times(spans) -> dict:
    """name -> [calls, total seconds, self seconds]."""
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    table = {}
    for s in spans:
        row = table.setdefault(s.name, [0, 0.0, 0.0])
        dur = s.end - s.start
        row[0] += 1
        row[1] += dur
        row[2] += dur - child_time.get(s.id, 0.0)
    return table


def peak_mb(spans, prefix: str) -> float:
    """Largest allocation peak of any span of a layer, in MB."""
    peaks = [s.peak - s.base for s in spans if s.name.startswith(prefix)]
    return max(peaks, default=0) / 2**20

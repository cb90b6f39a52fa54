"""In-memory span tracer that times patchfit from outside.

A ``Tracer`` wraps chosen patchfit functions. Each call becomes a span
``(name, start, end, parent, op)``; spans of one benchmark op share the op id,
and the op itself is the root span ``"op"``. Self time, call counts and
per-op sums are derived from the span list after the run.

A module that did ``from .x import y`` holds its own reference to ``y``, so
patching only the defining module misses those calls. ``install`` therefore
replaces the function in every loaded ``patchfit`` module namespace that
holds it, and ``uninstall`` puts every original back.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

ROOT = "op"
HOOK = "trace.hook"


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module.attr`` recorded as span ``span``.

    ``hook(counts, args, kwargs, result, exc)`` runs after the call, in its
    own ``trace.hook`` span, so counter work is charged to no layer.
    """

    module: str
    attr: str
    span: str
    hook: Callable | None = None


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[tuple | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._op = -1
        self._patched: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "patchfit" or name.startswith("patchfit."))]
        for target in self.targets:
            original = getattr(importlib.import_module(target.module), target.attr)
            wrapper = self._wrap(target, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def bindings(self) -> list[str]:
        """``module.name`` of every namespace entry currently wrapped."""
        return sorted(f"{mod.__name__}.{key}" for mod, key, _ in self._patched)

    # -- recording ----------------------------------------------------------

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        self.spans[idx] = (name, start, end, self._stack[-1], self._op)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name, hook = target.span, target.hook

        def wrapper(*args, **kwargs):
            idx = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, name, start, perf_counter())
                if hook is not None:
                    self._run_hook(hook, args, kwargs, None, exc)
                raise
            self._close(idx, name, start, perf_counter())
            if hook is not None:
                self._run_hook(hook, args, kwargs, result, None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _run_hook(self, hook, args, kwargs, result, exc) -> None:
        idx = self._open()
        start = perf_counter()
        try:
            hook(self.counts, args, kwargs, result, exc)
        finally:
            self._close(idx, HOOK, start, perf_counter())

    @contextmanager
    def op(self, op_id: int):
        """Root span for one benchmark op."""
        self._op = op_id
        idx = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(idx, ROOT, start, perf_counter())
            self._op = -1

    # -- analysis -----------------------------------------------------------

    def table(self) -> "SpanTable":
        return SpanTable(self.spans)

    def write_csv(self, path) -> None:
        """Gzipped CSV of every span; times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start", "end", "parent", "op"])
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                out.writerow([idx, name, f"{start - origin:.9f}", f"{end - origin:.9f}",
                              parent, op])


class SpanTable:
    """Column view of finished spans with derived self times."""

    def __init__(self, spans: list[tuple]):
        if any(span is None for span in spans):
            raise ValueError("a span is still open")
        self.name = np.array([s[0] for s in spans], dtype=object)
        self.start = np.array([s[1] for s in spans], dtype=np.float64)
        self.end = np.array([s[2] for s in spans], dtype=np.float64)
        self.parent = np.array([s[3] for s in spans], dtype=np.int64)
        self.op = np.array([s[4] for s in spans], dtype=np.int64)
        self.duration = self.end - self.start
        child = np.zeros(len(spans))
        nested = self.parent >= 0
        np.add.at(child, self.parent[nested], self.duration[nested])
        self.self_time = self.duration - child

    def self_seconds(self, name: str) -> float:
        return float(self.self_time[self.name == name].sum())

    def calls(self, name: str) -> int:
        return int(np.count_nonzero(self.name == name))

    def per_op(self, name: str, op_ids) -> list[float]:
        """Inclusive seconds of ``name`` spans in each op, in ``op_ids`` order."""
        sums = defaultdict(float)
        for idx in np.flatnonzero(self.name == name):
            sums[int(self.op[idx])] += float(self.duration[idx])
        return [sums[op] for op in op_ids]

    def op_walls(self) -> dict[int, float]:
        roots = np.flatnonzero(self.name == ROOT)
        return {int(self.op[i]): float(self.duration[i]) for i in roots}

    def self_sums(self) -> dict[int, float]:
        """Per op, the summed self time of every span below the root."""
        sums = defaultdict(float)
        for idx in np.flatnonzero(self.name != ROOT):
            sums[int(self.op[idx])] += float(self.self_time[idx])
        return dict(sums)

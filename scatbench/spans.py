"""Spans around a package's functions, installed from outside the package.

A Tracer wraps functions named "module.function" (relative to a package)
and replaces every reference to the original function object in the
package's loaded modules: where it is defined, and wherever another module
imported it by name. Each call then records a span: name, start, end and
the span that caused it. Spans stay in memory until the caller writes them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float
    thread: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def replace_everywhere(package: str, replacements: dict):
    """Point every module attribute of `package` that is one of the keys of
    `replacements` (compared by identity) at its value. Returns a function
    that undoes the change."""
    by_id = {id(old): (old, new) for old, new in replacements.items()}
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            entry = by_id.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                undo.append((module, attr, value))

    def restore():
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)
    return restore


def resolve(package: str, qualname: str):
    """The function object `package.<module>.<function>` names."""
    module, _, func = qualname.rpartition(".")
    return getattr(importlib.import_module(f"{package}.{module}"), func)


class Tracer:
    """Records one span per call of each wrapped function.

    counters maps a wrapped name to a function of the call's return value
    that gives extra counts for the span, e.g. the SMO iteration count.
    A span opened on a thread with no open span of its own (a pool worker)
    takes the main thread's innermost open span as its parent.
    """

    def __init__(self, counters: dict | None = None):
        self.spans: list[Span] = []
        self._counters = counters or {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn):
        count = self._counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(span_id, name, parent, start, end, threading.get_ident())
                self.spans.append(span)
            if count is not None:
                span.counts = count(result)
            return result
        return traced

    def install(self, package: str, qualnames) -> callable:
        """Wrap every named function of `package`; returns the undo."""
        originals = {resolve(package, q): q for q in qualnames}
        return replace_everywhere(
            package, {fn: self.wrap(q, fn) for fn, q in originals.items()})

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans) -> dict:
    """Per name: calls, total seconds, self seconds (duration minus the time
    its child spans cover) and summed counts."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                     "counts": defaultdict(float)})
    for s in spans:
        entry = out[s.name]
        entry["calls"] += 1
        entry["s"] += s.duration
        entry["self_s"] += s.duration - covered(children[s.id], s.start, s.end)
        for key, value in s.counts.items():
            entry["counts"][key] += value
    return dict(out)

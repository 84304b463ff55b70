"""Benchmark-side spans around the program's public entry points.

The traced run swaps each hooked attribute (a module function, a class
imported into a module, a method or a classmethod) for a wrapper that
records one span: name, start, end, parent span and op id.  Nothing in
``src/`` changes; :func:`uninstall` puts the originals back, so untraced
blocks run exactly the code users run.  Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Hook:
    """Wrap ``owner.attr`` in a span called ``name``.

    ``observe(result)`` may return a dict of counts attached to the span.
    """

    owner: object
    attr: str
    name: str
    observe: Callable | None = None


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    op_id: int | None
    name: str
    start: float
    end: float
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Thread-aware span sink; a span's parent is the innermost open span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, observe=None, op_id=None, attrs=None):
        stack = self._stack()
        parent_id, parent_op = stack[-1] if stack else (None, None)
        op = op_id if op_id is not None else parent_op
        span_id = next(self._ids)
        stack.append((span_id, op))
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, parent_id, op, name, start, end, attrs)
            )
        if observe is not None:
            self.spans[-1].attrs = observe(result)
        return result

    def root(self, op_id: int, op_class: str, execute) -> None:
        """Run one op under its root span."""
        self.call("op", execute, op_id=op_id, attrs={"class": op_class})

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")


def _wrap(recorder: Recorder, hook: Hook, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(hook.name, fn, args, kwargs, hook.observe)

    return wrapper


def install(recorder: Recorder, hooks: list[Hook]) -> list[tuple]:
    """Swap every hook's target for a span wrapper; returns the undo list."""
    saved = []
    for hook in hooks:
        owner = hook.owner
        raw = (
            owner.__dict__[hook.attr]
            if isinstance(owner, type)
            else getattr(owner, hook.attr)
        )
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(recorder, hook, raw.__func__))
        else:
            wrapped = _wrap(recorder, hook, raw)
        setattr(owner, hook.attr, wrapped)
        saved.append((owner, hook.attr, raw))
    return saved


def uninstall(saved: list[tuple]) -> None:
    for owner, attr, raw in reversed(saved):
        setattr(owner, attr, raw)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def summarize(spans: list[Span], inner_seconds: Callable | None = None) -> dict:
    """Per-op means of each layer's time and count, plus self times.

    ``inner_seconds(span)`` returns time a span's own program measured
    inside it (solve phases read from ``SolverStats``) that no wrapped
    child covers; it counts as attributed, not as the span's self time.
    Returns ``{"ops", "total_ms", "self_ms", "counts", "unattributed_ms"}``
    with every value a mean per traced op.
    """
    spans = [s for s in spans if s.op_id is not None]
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append(span)
    ops = [s for s in spans if s.name == "op"]
    n_ops = max(len(ops), 1)
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    for span in spans:
        kids = children.get(span.span_id, [])
        own = span.duration - _covered([(k.start, k.end) for k in kids])
        if inner_seconds is not None:
            own -= inner_seconds(span)
        self_time[span.name] += own
        total[span.name] += span.duration
        for key, value in (span.attrs or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                counts[key] += value
    return {
        "ops": len(ops),
        "total_ms": {k: v * 1000.0 / n_ops for k, v in total.items()},
        "self_ms": {k: v * 1000.0 / n_ops for k, v in self_time.items()},
        "counts": {k: v / n_ops for k, v in counts.items()},
        "unattributed_ms": self_time.get("op", 0.0) * 1000.0 / n_ops,
    }

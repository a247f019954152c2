"""In-memory spans recorded around the package's public functions.

The tracer replaces module attributes with timing wrappers and puts the
originals back on restore(). The package binds names with `from .x import y`,
so one function is reachable through several module attributes; wrap_everywhere
finds every attribute of the package's modules that holds the function and
wraps each one, so a call is seen whichever module it goes through.

Spans are kept in memory and written out once, when the run ends. The tracer
assumes one calling thread (the benchmark fits levels with n_jobs=1).
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []  # a span's id is its index here
        self._stack: list[Span] = []
        self._patches: list[tuple] = []
        self._paused = 0

    # -- recording ---------------------------------------------------------

    @property
    def active(self) -> bool:
        return self._paused == 0

    def start(self, name: str, **attrs) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self.clock(), attrs=attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = self.clock()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name} closed out of order (open: {top.name})")

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.active:
            yield None
            return
        s = self.start(name, **attrs)
        try:
            yield s
        finally:
            self.finish(s)

    @contextmanager
    def paused(self):
        """Calls made inside run untraced, e.g. the benchmark's own checks."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def parent(self, span: Span) -> Span | None:
        return None if span.parent is None else self.spans[span.parent]

    # -- wrapping ----------------------------------------------------------

    def wrap(self, module, attr: str, name: str, before=None, after=None) -> None:
        """Replace module.attr with a wrapper that records a span per call.

        before(span, args, kwargs) runs when the span opens and after(span,
        args, kwargs, result) when the call returns; both may set span.attrs.
        """
        original = getattr(module, attr)
        tracer = self
        site = f"{module.__name__}.{attr}"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            span = tracer.start(name, site=site)
            if before is not None:
                before(span, args, kwargs)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                tracer.finish(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def wrap_everywhere(self, modules, target, name: str, before=None, after=None) -> list:
        """Wrap every attribute of the given modules that is `target`; returns the sites."""
        sites = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is target:
                    self.wrap(module, attr, name, before, after)
                    sites.append(f"{module.__name__}.{attr}")
        return sites

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- analysis ----------------------------------------------------------

    def children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(s)
        return kids

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                rec = {"id": s.id, "parent": s.parent, "name": s.name,
                       "start": s.start, "end": s.end, "attrs": s.attrs}
                fh.write(json.dumps(rec, default=str) + "\n")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(tracer: Tracer) -> dict[int, float]:
    """Span duration minus the part of it that child spans cover, per span id."""
    kids = tracer.children()
    out = {}
    for s in tracer.spans:
        inner = [(c.start, c.end) for c in kids.get(s.id, ())]
        out[s.id] = s.duration - covered(inner, s.start, s.end)
    return out

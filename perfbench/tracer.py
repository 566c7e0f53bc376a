"""In-memory span tracer that wraps riskcap's module-boundary functions.

The tracer lives entirely outside riskcap: :meth:`Tracer.installed` swaps a
module attribute for a timing wrapper, where the caller looks the name up,
and puts the original back on exit. Spans record their name, start, end,
parent and thread id and stay in memory until the run writes them out.

A span opened on a thread with no open span of its own (a worker thread of
riskcap's batch pool) takes as parent the innermost open span of the thread
that created the tracer, which is the thread that called into riskcap.
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Map span id to its duration minus the union of its children's intervals.

    Children are clipped to the parent's interval; overlapping children (spans
    of concurrent worker threads) are counted once.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
            if c.end > s.start and c.start < s.end
        ]
        out[s.id] = s.duration - union_length(covered)
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the enclosed block; yields the attribute dict of the span."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            owner = self._owner_stack
            parent = owner[-1] if owner else None
        with self._lock:
            span_id = next(self._ids)
        attrs = {}
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(span_id, name, start, end, parent, threading.get_ident(), attrs)
            with self._lock:
                self.spans.append(span)

    def _wrap(self, fn, name, after):
        sig = inspect.signature(fn) if after else None

        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
            if after:
                # Runs outside the span so its cost is not charged to the layer.
                after(attrs, sig.bind(*args, **kwargs).arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch each ``(owner, attribute, span_name, after)`` for the block.

        ``after(attrs, bound_arguments, result)`` may add attributes to the
        span once the call has returned. A property is wrapped through its
        getter.
        """
        saved = []
        try:
            for owner, attr, name, after in targets:
                original = inspect.getattr_static(owner, attr)
                if isinstance(original, property):
                    patched = property(self._wrap(original.fget, name, after))
                else:
                    patched = self._wrap(original, name, after)
                saved.append((owner, attr, original))
                setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self) -> list:
        """Spans as JSON-ready rows: name, start, end, id, parent, thread, attrs."""
        return [
            [s.name, s.start, s.end, s.id, s.parent, s.thread,
             {k: v for k, v in s.attrs.items() if isinstance(v, (int, float, str))}]
            for s in self.spans
        ]

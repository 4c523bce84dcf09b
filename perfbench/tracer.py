"""In-memory span recorder for the traced run.

The recorder wraps the public entry points of each layer of ``repro``
from the benchmark's side (the program itself is not changed) and keeps
one span per call: name, start, end, parent spans, operation id and a
few counts.  Nothing is written until the run ends.

A span's parent is the innermost open span of the same thread.  Work
that a layer hands to another thread (service workers, shard scatter
threads) starts with no parent there; it is adopted by the open spans
that carry the same *tag*, the name of the query table both sides see.
A discover batch is adopted by every request it serves.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Iterable


class Span:
    __slots__ = ("id", "name", "start", "end", "parents", "op", "tags", "count", "meta")

    def __init__(self, span_id: int, name: str, parents: tuple, op: Any, tags: tuple):
        self.id = span_id
        self.name = name
        self.start = time.perf_counter()
        self.end = self.start
        self.parents = parents
        self.op = op
        self.tags = tags
        self.count = 0
        self.meta: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parents": list(self.parents),
            "op": self.op,
            "count": self.count,
        }


class Recorder:
    """Spans of one traced run; ``patch`` installs, ``restore`` removes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open_by_tag: dict[str, list[Span]] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        #: While set, wrapped calls record nothing (the benchmark's own
        #: checks call into the program too).
        self.paused = False

    # Operation ids ------------------------------------------------------
    def set_op(self, op: Any) -> None:
        """Stamp spans opened by this thread from now on with *op*."""
        self._local.op = op

    # Span lifecycle -----------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, tags: tuple = ()) -> Span:
        stack = self._stack()
        with self._lock:
            if stack:
                parents: tuple = (stack[-1].id,)
                op = stack[-1].op
            else:
                adopted = [
                    self._open_by_tag[tag][-1]
                    for tag in tags
                    if self._open_by_tag.get(tag)
                ]
                parents = tuple(dict.fromkeys(span.id for span in adopted))
                op = adopted[0].op if adopted else getattr(self._local, "op", None)
            span = Span(len(self.spans), name, parents, op, tags)
            self.spans.append(span)
            for tag in tags:
                self._open_by_tag.setdefault(tag, []).append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            for tag in span.tags:
                spans = self._open_by_tag.get(tag)
                if spans and span in spans:
                    spans.remove(span)

    # Patching -----------------------------------------------------------
    def patch(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[[tuple], str],
        tags: Callable[[tuple, dict], Iterable[str]] | None = None,
        count: Callable[[tuple, dict, Any], int] | None = None,
        meta: Callable[[tuple, dict], Any] | None = None,
    ) -> None:
        """Wrap ``owner.attr`` so each call records one span.

        *name* may depend on the call's arguments (``args[0]`` is the
        instance for methods); *tags*, *count* and *meta* extract the
        adoption tags, a count from the result, and any value kept for
        post-processing."""
        original = owner.__dict__[attr]
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if recorder.paused:
                return func(*args, **kwargs)
            span_name = name(args) if callable(name) else name
            span = recorder.open(span_name, tuple(tags(args, kwargs)) if tags else ())
            if meta is not None:
                span.meta = meta(args, kwargs)
            try:
                result = func(*args, **kwargs)
                if count is not None:
                    span.count = count(args, kwargs, result)
                return result
            finally:
                recorder.close(span)

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def union_seconds(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    current_start = current_end = None
    for a, b in clipped:
        if current_end is None or a > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = a, b
        else:
            current_end = max(current_end, b)
    if current_end is not None:
        total += current_end - current_start
    return total


class SpanIndex:
    """Parent/child lookups and self time over a finished span list."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.children: dict[int, list[Span]] = {}
        for span in spans:
            for parent in span.parents:
                self.children.setdefault(parent, []).append(span)

    def named(self, *names: str) -> list[Span]:
        wanted = set(names)
        return [s for s in self.spans if s.name in wanted]

    def self_seconds(self, span: Span) -> float:
        """Duration minus the part its child spans cover."""
        covered = union_seconds(
            [(c.start, c.end) for c in self.children.get(span.id, ())],
            span.start,
            span.end,
        )
        return span.duration - covered

    def descendants(self, span: Span) -> Iterable[Span]:
        pending = list(self.children.get(span.id, ()))
        seen: set[int] = set()
        while pending:
            child = pending.pop()
            if child.id in seen:
                continue
            seen.add(child.id)
            yield child
            pending.extend(self.children.get(child.id, ()))

    def outermost(self, spans: list[Span]) -> list[Span]:
        """*spans* without those nested under another span of the list."""
        ids = {s.id for s in spans}
        by_id = {s.id: s for s in self.spans}

        def nested(span: Span) -> bool:
            pending = list(span.parents)
            seen: set[int] = set()
            while pending:
                parent = pending.pop()
                if parent in seen:
                    continue
                seen.add(parent)
                if parent in ids:
                    return True
                pending.extend(by_id[parent].parents)
            return False

        return [s for s in spans if not nested(s)]

"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code, around calls into the
program's public functions (:meth:`Tracer.wrap` swaps a module or class
attribute for a timing wrapper and :meth:`Tracer.restore` puts the
original back) or rebuilt from the per-rank events the program's own
observer already emits (:meth:`Tracer.add`).  Nothing is written while
the workload runs; :meth:`Tracer.dump` writes the spans once at exit.

A span's *self time* is its duration minus the part of its interval its
child spans cover; the self time of a root span is the run's named
residual — time no instrumented layer accounts for.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None = None
    #: Job id, rank id or workload name the span belongs to.
    owner: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: int | None = None,
        owner: str | None = None,
        **attrs: Any,
    ) -> Span:
        span = Span(next(self._ids), name, start, end, parent, owner, attrs)
        self.spans.append(span)
        return span

    def call(
        self,
        name: str,
        fn: Callable,
        args: tuple = (),
        kwargs: dict[str, Any] | None = None,
        *,
        owner: str | None = None,
    ) -> tuple[Any, Span]:
        """Run ``fn(*args, **kwargs)`` inside a span; nested wrapped calls
        on the same thread become its children."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(span_id, name, start, end, parent, owner)
            self.spans.append(span)
        return result, span

    def wrap(
        self,
        target: Any,
        attr: str,
        name: str,
        annotate: Callable[[Span, tuple, dict, Any], None] | None = None,
    ) -> None:
        """Replace ``target.attr`` by a wrapper recording a span per call;
        *annotate(span, args, kwargs, result)* may add attributes."""
        original = getattr(target, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result, span = tracer.call(name, original, args, kwargs)
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result

        self._patched.append((target, attr, original))
        setattr(target, attr, wrapper)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)

    # ------------------------------------------------------------- analysis
    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(s)
        return kids

    def self_times(self) -> dict[int, float]:
        """Self time of every span, by span id."""
        kids = self.children()
        return {s.id: s.duration - covered(s, kids.get(s.id, ())) for s in self.spans}

    def self_time_table(self) -> list[tuple[str, int, float, float]]:
        """``(name, count, total_s, self_s)`` per span name, largest
        self time first."""
        selfs = self.self_times()
        rows: dict[str, list[float]] = {}
        for s in self.spans:
            row = rows.setdefault(s.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s.duration
            row[2] += selfs[s.id]
        return sorted(
            ((n, int(r[0]), r[1], r[2]) for n, r in rows.items()),
            key=lambda r: -r[3],
        )

    def residual_share(self) -> float:
        """Self time of the root spans over their total duration: the
        share of traced time no child span accounts for."""
        selfs = self.self_times()
        roots = [s for s in self.spans if s.parent is None]
        total = sum(s.duration for s in roots)
        return sum(selfs[s.id] for s in roots) / total if total > 0 else 0.0

    def dump(self, path: str | Path, meta: dict[str, Any]) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"meta": meta, "spans": [asdict(s) for s in self.spans]}
        path.write_text(json.dumps(doc, default=str), encoding="utf-8")


def covered(span: Span, kids) -> float:
    """Length of the union of the *kids* intervals, clipped to *span*."""
    intervals = sorted(
        (max(k.start, span.start), min(k.end, span.end)) for k in kids
    )
    total = 0.0
    cur_start = cur_end = None
    for a, b in intervals:
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total

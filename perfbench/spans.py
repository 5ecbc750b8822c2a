"""In-memory span tracer that wraps program entry points from outside.

The benchmark never edits the program to trace it.  Instead a
:class:`Tracer` replaces an attribute (a module-level function as the
calling module looks it up, or a method on its class) with a thin
wrapper that records one span per call: name, start, end, parent span
and the benchmark operation it belongs to.  :meth:`Tracer.installed`
puts the wrappers in place for the duration of a ``with`` block and
restores the original attributes on exit.

Spans live in flat lists while the workload runs and are written out
only when it ends (:meth:`Tracer.write_spans`).  A span's *self time*
is its duration minus the part of it that its child spans cover, so the
self times of all spans plus the time spent outside any span (the
residual) add up to the traced wall-clock.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterator

_clock = time.perf_counter_ns


@dataclass(frozen=True)
class WrapPoint:
    """One attribute to wrap: ``getattr(owner, attr)`` becomes a span.

    ``before(args)`` runs before the call and its value is handed to
    ``after(tracer, args, result, token)``, which runs once the span has
    ended, so neither is part of the span's duration.
    """

    owner: Any
    attr: str
    span: str
    before: Callable[[tuple], Any] | None = None
    after: Callable[["Tracer", tuple, Any, Any], None] | None = None


class Tracer:
    """Records nested spans around wrapped calls, one flat list per field."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: The benchmark operation (round, unit pass, reproduction) the
        #: next spans belong to; set by the workload loop.
        self.op = -1
        self._stack: list[int] = []

    # ------------------------------------------------------------ record

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    def _wrap(self, func: Callable, point: WrapPoint) -> Callable:
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, stack = self.parents, self.ops, self._stack
        span, before, after = point.span, point.before, point.after

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            index = len(names)
            names.append(span)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0)
            stack.append(index)
            starts.append(_clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[index] = _clock()
                stack.pop()
            if after is not None:
                after(self, args, result, token)
            return result

        traced.__wrapped__ = func  # type: ignore[attr-defined]
        traced.__name__ = getattr(func, "__name__", span)
        return traced

    @contextlib.contextmanager
    def installed(self, points: list[WrapPoint]) -> Iterator["Tracer"]:
        """Wrap every point for the duration of the block, then restore."""
        undo: list[tuple[Any, str, bool, Any]] = []
        try:
            for point in points:
                raw = vars(point.owner).get(point.attr)
                own = raw is not None  # False: inherited from a base class
                if isinstance(raw, staticmethod):
                    wrapped: Any = staticmethod(self._wrap(raw.__func__, point))
                elif isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, point))
                else:
                    wrapped = self._wrap(getattr(point.owner, point.attr), point)
                undo.append((point.owner, point.attr, own, raw))
                setattr(point.owner, point.attr, wrapped)
            yield self
        finally:
            for owner, attr, own, raw in reversed(undo):
                if own:
                    setattr(owner, attr, raw)
                else:
                    delattr(owner, attr)

    # ----------------------------------------------------------- analyse

    def durations_ns(self) -> list[int]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times_ns(self) -> list[int]:
        """Each span's duration minus the part its children cover.

        Children of one parent never overlap (calls are sequential on a
        single thread), so the covered part is the sum of the children's
        durations.
        """
        durations = self.durations_ns()
        own = list(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[index]
        return own

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: outermost ``calls`` and ``s``, and summed ``self_s``."""
        durations = self.durations_ns()
        self_ns = self.self_times_ns()
        nested = self._nested_in_same_name()
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for index, span in enumerate(self.names):
            row = table[span]
            row["self_s"] += self_ns[index] * 1e-9
            if not nested[index]:
                row["calls"] += 1
                row["s"] += durations[index] * 1e-9
        return dict(table)

    def _nested_in_same_name(self) -> list[bool]:
        """Whether each span has an ancestor of the same name (recursion)."""
        ancestors: list[frozenset[str]] = []
        nested = []
        for span, parent in zip(self.names, self.parents):
            above = ancestors[parent] if parent >= 0 else frozenset()
            nested.append(span in above)
            ancestors.append(above | {span})
        return nested

    def top_level_ns(self) -> int:
        """Summed duration of spans with no parent (what spans cover)."""
        return sum(
            end - start
            for start, end, parent in zip(self.starts, self.ends, self.parents)
            if parent < 0
        )

    def write_spans(self, path) -> None:
        """Write every span as one tab-separated line (ns since first span)."""
        origin = self.starts[0] if self.starts else 0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\top\tname\tstart_ns\tend_ns\n")
            for index, (span, start, end, parent, op) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents, self.ops)
            ):
                handle.write(
                    f"{index}\t{parent}\t{op}\t{span}\t"
                    f"{start - origin}\t{end - origin}\n"
                )

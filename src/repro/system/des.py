"""Minimal discrete-event simulation core.

A classic event-calendar design: a priority queue of timestamped
events, a clock that jumps from event to event, and handlers that may
schedule further events.  Deliberately small — just enough to run the
machine processes and the mechanism protocol — but complete: stable
FIFO ordering of simultaneous events, cancellation, and run-until
horizons are all supported and tested.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["Event", "EventQueue", "Simulator"]


@dataclass
class Event:
    """A scheduled event.

    The queue orders events by (time, sequence number), so simultaneous
    events fire in the order they were scheduled (stable FIFO
    tie-breaking).
    """

    time: float
    seq: int
    handler: Callable[["Simulator"], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    _on_cancel: Callable[[], None] | None = field(
        default=None, compare=False, repr=False
    )

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when it surfaces."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._on_cancel is not None:
            self._on_cancel()

    def _detach(self) -> None:
        # Once an event leaves the queue live, cancelling the stale
        # handle must not disturb the queue's live count.
        self._on_cancel = None


class EventQueue:
    """Priority queue of events with lazy cancellation.

    Heap entries are ``(time, seq, event)`` tuples: the sequence number
    is unique, so tuple comparison settles on the first two fields in
    C and never compares events.

    ``__len__``/``__bool__`` are O(1): a live-event counter is bumped on
    push and decremented the moment an event is cancelled or popped
    live, so no scan over lazily-cancelled heap entries is ever needed.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0

    def push(self, time: float, handler: Callable[["Simulator"], None]) -> Event:
        """Schedule ``handler`` at ``time`` and return the event handle."""
        seq = next(self._counter)
        event = Event(time, seq, handler, False, self._note_cancel)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def _note_cancel(self) -> None:
        self._live -= 1

    def pop(self) -> Event | None:
        """Next non-cancelled event, or ``None`` when empty."""
        while self._heap:
            event = heapq.heappop(self._heap)[2]
            if not event.cancelled:
                self._live -= 1
                event._detach()
                return event
        return None

    def peek_time(self) -> float | None:
        """Timestamp of the next live event without removing it."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0


class Simulator:
    """Event-driven simulator with a monotone clock."""

    def __init__(self) -> None:
        self._queue = EventQueue()
        self.now: float = 0.0
        self.events_processed: int = 0

    def schedule(self, delay: float, handler: Callable[["Simulator"], None]) -> Event:
        """Schedule ``handler`` to run ``delay`` seconds from now."""
        if delay < 0.0:
            raise ValueError(f"delay must be non-negative, got {delay:g}")
        return self._queue.push(self.now + delay, handler)

    def schedule_at(self, time: float, handler: Callable[["Simulator"], None]) -> Event:
        """Schedule ``handler`` at absolute ``time`` (>= the current clock)."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at {time:g}, before the current time {self.now:g}"
            )
        return self._queue.push(time, handler)

    def run(self, until: float | None = None) -> None:
        """Process events in time order.

        Parameters
        ----------
        until:
            Stop once the next event is past this horizon (the clock is
            then advanced to the horizon).  ``None`` runs to quiescence.
        """
        while True:
            next_time = self._queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                break
            event = self._queue.pop()
            assert event is not None  # peek_time said there was one
            self.now = event.time
            self.events_processed += 1
            event.handler(self)
        if until is not None and until > self.now:
            self.now = until

    def pending(self) -> int:
        """Number of live scheduled events."""
        return len(self._queue)

"""Host speed, sampled with a fixed reference kernel, to normalise times.

The shared host this benchmark was built on runs identical work up to
1.8 times faster or slower over a few seconds (its other tenants come
and go), and CPU time moves with wall time, so neither clock is steady.
The benchmark therefore runs a small fixed kernel (``reference``) every
0.1 s of wall-clock, from an interval timer, while it measures.  The
kernel's duration over its nominal duration is the host's slowness at
that moment.  The speed flips within fractions of a second, so single
samples are noisy, but the mean of the samples around an operation (at
least a second's worth) is the factor by which the host stretched it:
the operation's duration divided by that factor is what it would have
taken with the host at nominal speed.

The kernel mixes the kinds of work the program does (JSON encoding,
dict and tuple churn, a heap, small NumPy ops, ``list.index``, BLAKE2b
hashing) and never calls the program.  It does run in the program's
process, between the program's own bytecodes, so the program's cache
state could move it: timed cold, right after sweeps over a large array
it ran up to 15% slower than after plain rounds, and the normalised
figures lost up to 11% of the sweeps' cost.  So each sample runs the
kernel twice and times the second run only.  ``calibrate.py`` checks
that a known added cost moves the normalised figures as much as the
wall-clock ones.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import signal
import time

import numpy as np

#: The kernel's median warm duration on the 2-vCPU Xeon host it was
#: built on.
NOMINAL_S = 0.0009
#: Sampling interval.  The host's speed flips within fractions of a
#: second, so samples are frequent; each is two kernel runs, about 2% of
#: the measured time.
SAMPLE_EVERY_S = 0.1
#: An operation is normalised by the samples within at least this window
#: around it (the operation itself when it is longer): about ten samples.
WINDOW_S = 1.0

_NAMES = [f"C{i}" for i in range(2000)]
_DOC = {f"C{i}": [i * 0.37, (i, i * 1.5), "phase"] for i in range(256)}
_ARRAY = np.linspace(0.5, 2.0, 256)
_BLOB = b"abcdefgh" * 512


def reference() -> float:
    """Run the fixed kernel twice; return the second run's wall-clock seconds.

    The first run brings the kernel's code and data back into the
    caches, so the state the program left them in (after a sweep over
    a large array, say) does not move the timed run.  The garbage
    collector is held off while it runs, so a collection of the
    program's objects is not charged to the host.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        _kernel()
        return _kernel()
    finally:
        if collecting:
            gc.enable()


def _kernel() -> float:
    start = time.perf_counter()
    json.dumps(_DOC)
    table: dict[int, float] = {}
    for i in range(600):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        _pair = (i, i + 1)
    heap: list[tuple[int, int]] = []
    for i in range(200):
        heapq.heappush(heap, (i * 7919 % 200, i))
    while heap:
        heapq.heappop(heap)
    values = _ARRAY
    for _ in range(15):
        values = np.sqrt(values * values + 1.0) - 0.5
    for name in _NAMES[-3:]:
        _NAMES.index(name)
    for _ in range(6):
        hashlib.blake2b(_BLOB).digest()
    return time.perf_counter() - start


class HostSpeed:
    """Slowness sampled every 0.1 s of wall-clock by an interval timer.

    Use as a context manager: while active, ``SIGALRM`` runs the kernel
    between two bytecodes of whatever the main thread is doing, so long
    operations are sampled too.  The time the samples take is summed in
    ``stolen`` and subtracted from every timed interval.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.slowness: list[float] = []
        self.stolen = 0.0
        self._previous = None

    def sample(self) -> float:
        """Measure the host's slowness now (one ``reference`` call)."""
        start = time.perf_counter()
        slowness = reference() / NOMINAL_S
        self.times.append(time.perf_counter())
        self.slowness.append(slowness)
        self.stolen += self.times[-1] - start
        return slowness

    def _on_timer(self, _signum, _frame) -> None:
        self.sample()

    def __enter__(self) -> "HostSpeed":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def mean_slowness(self, start: float, end: float) -> float:
        """Mean slowness sampled in [start, end] (nearest sample if none)."""
        return float(self.local_slowness(np.array([start]), np.array([end]))[0])

    def local_slowness(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Each interval's mean slowness, over at least ``WINDOW_S`` around it.

        Samples come at regular intervals, so the mean is time-weighted.
        Samples beyond the 1st and 99th percentile are clipped first: an
        interrupt or page fault inside one kernel run is not the host's
        speed.
        """
        times = np.asarray(self.times)
        slowness = np.asarray(self.slowness)
        low, high = np.percentile(slowness, [1, 99])
        sums = np.concatenate([[0.0], np.cumsum(np.clip(slowness, low, high))])
        middle = (starts + ends) / 2
        half = np.maximum((ends - starts) / 2, WINDOW_S / 2)
        first = np.searchsorted(times, middle - half, side="left")
        last = np.searchsorted(times, middle + half, side="right")
        count = last - first
        nearest = np.interp(middle, times, slowness)
        return np.where(
            count > 0, (sums[last] - sums[first]) / np.maximum(count, 1), nearest
        )


class Arm:
    """The timed operations of one arm of a workload.

    Each operation's wall-clock duration is recorded without the time
    the host-speed samples took, and normalised by the host's mean
    slowness around it.
    """

    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed
        self.starts: list[float] = []
        self.durations: list[float] = []

    def timed(self, operation):
        """Run ``operation()`` and record its duration."""
        stolen = self.speed.stolen
        start = time.perf_counter()
        result = operation()
        end = time.perf_counter()
        self.starts.append(start)
        self.durations.append(end - start - (self.speed.stolen - stolen))
        return result

    def __len__(self) -> int:
        return len(self.starts)

    def mean_slowness(self) -> float:
        """The host's mean slowness from the first operation to the last."""
        end = self.starts[-1] + self.durations[-1]
        return self.speed.mean_slowness(self.starts[0], end)

    def seconds(self) -> np.ndarray:
        """Wall-clock seconds of every operation, samples excluded."""
        return np.asarray(self.durations)

    def normalised_seconds(self) -> np.ndarray:
        """Every operation's seconds at nominal host speed."""
        starts = np.asarray(self.starts)
        seconds = self.seconds()
        return seconds / self.speed.local_slowness(starts, starts + seconds)

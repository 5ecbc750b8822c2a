"""Batched job-event execution engine for protocol rounds.

The paper's linear-latency machines serve jobs *concurrently* with
i.i.d. service draws, so per-job event interleaving carries no
information the verification estimator uses: the estimate is a mean of
sojourn times, and each sojourn is exactly the drawn duration.  The
whole job lifecycle is therefore batchable — generate the Poisson
stream in one draw, route it with one vectorised multinomial, sample
every machine's service times in one draw, and advance the simulator
clock with a single *event-horizon* no-op instead of two heap events
per job.  Only the O(n) control messages (bids, allocation, reports,
payments) remain as discrete events, so the coordinator phase machine
and the message-count claim are untouched (DESIGN.md §11).

Contract: with deterministic service the batched engine is
bit-identical to the per-job event engine — same RNG stream, same
per-job sojourn floats (``(arrival + duration) - arrival``), same
per-machine aggregation order, same final clock.  With stochastic
service it consumes the same RNG stream *shape* (one draw per machine
instead of one per job) and matches estimates to statistical
tolerance.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.observability.instrumentation import record_gauge
from repro.system.des import Simulator
from repro.system.machine import LinearLatencyMachine

__all__ = ["EXECUTION_MODES", "resolve_execution", "dispatch_batched"]

EXECUTION_MODES = ("event", "batched", "auto")


def resolve_execution(execution: str) -> str:
    """Map an execution request to the engine that will run the jobs.

    ``"event"`` and ``"batched"`` are honoured verbatim.  ``"auto"``
    picks the batched engine whenever the round's machines support
    vectorised submission — true for every
    :class:`~repro.system.machine.LinearLatencyMachine` round today, so
    ``"auto"`` currently always resolves to ``"batched"``; the
    indirection exists so future per-job observation hooks (or machine
    models whose sojourns depend on the event interleaving) can fall
    back to ``"event"`` without changing call sites.
    """
    if execution not in EXECUTION_MODES:
        raise ValueError(
            f"execution must be one of {EXECUTION_MODES}, got {execution!r}"
        )
    return "batched" if execution == "auto" else execution


def dispatch_batched(
    sim: Simulator,
    machines: Sequence[LinearLatencyMachine],
    arrival_times: np.ndarray,
    assignments: np.ndarray,
) -> int:
    """Execute a routed arrival stream without per-job heap events.

    Parameters
    ----------
    sim:
        The round's simulator; receives one no-op event at the latest
        completion time so the clock advances exactly as far as the
        event engine's last completion event would have taken it.
    machines:
        The round's machines, already ``configure``-d with their loads.
    arrival_times:
        Absolute arrival times (round start already added), in arrival
        order — the same floats the event engine would schedule.
    assignments:
        Machine index per job, from
        :func:`~repro.system.workload.split_assignments`.  Each machine
        that receives jobs gets them in arrival order, in one
        ``submit_batch`` call, in machine-index order; a machine with
        no jobs is not called at all.

    Returns the number of jobs routed.  Records the
    ``protocol.events_skipped`` gauge: the event engine would have
    pushed two heap events per job (arrival + completion) where this
    engine pushes one horizon event total.
    """
    arrival_times = np.asarray(arrival_times, dtype=np.float64)
    count = int(arrival_times.size)
    if count == 0:
        return 0
    # One stable sort groups the jobs by machine, each machine's jobs
    # in arrival order: the same subarray a per-machine mask selects.
    # Machines without jobs are never touched (they would draw nothing).
    routed = arrival_times[np.argsort(assignments, kind="stable")]
    counts = np.bincount(assignments, minlength=len(machines))
    bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
    horizon = -np.inf
    for index in np.flatnonzero(counts).tolist():
        completions = machines[index].submit_batch(
            routed[bounds[index] : bounds[index + 1]]
        )
        horizon = max(horizon, float(completions.max()))
    sim.schedule_at(horizon, lambda s: None)
    record_gauge("protocol.events_skipped", 2 * count - 1)
    return count

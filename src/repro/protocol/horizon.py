"""Clean supervised rounds: one implementation, run alone or stacked.

In the paper a round is simple once the bids and the verified execution
values are known: one PR allocation, then compensation plus bonus.  The
message protocol — a discrete-event simulator (DES), ~5n control
messages, retries, checkpoint/restore — only earns its cost when
messages or machines fail.  :func:`phase_a` is the one implementation
of a round where nothing fails; :func:`run_horizon` stacks the pricing
of many such rounds.

A round is **clean** (``RoundSupervisor._takes_direct_path``) when its
fault entry is ``None`` or clean (no drops, machine faults or
coordinator crash), no remediation skip is pending, and the monolithic
batched engine runs it (``shards == 1``, ``execution == "batched"``:
the per-job event path interleaves its service draws with event
delivery order).  Phase A takes it from bids to the quarantine update
— bids with remediation overrides, the supervisor's allocator (a fresh
PR solve), the workload draw through the message path's own
``RoundSupervisor._generate_times``, one sort-once routing, the service
draws and sojourn statistics of all machines with jobs in one vector
pass, the estimates, CUSUM detection and one bulk quarantine update —
in O(jobs + changes) Python plus O(n) vector work.  Two callers:

* **direct** — ``RoundSupervisor.run_round``: each stage runs in its
  ``supervisor.{bidding,execution,reporting,detection}`` span, the
  round's write-ahead log gets what the message path's coordinator
  writes (``resilience.supervisor._RoundLog``), and the round is priced
  at once as one B=1 row;
* **fused** — :func:`run_horizon` (``horizon=True``), over maximal runs
  of clean rounds with no remediation pipeline attached (a pipeline
  acts *between* rounds, so then every round goes through
  ``run_round``, which is direct when clean): no spans, no log, and
  Phase B prices the segment's live rounds per width as one
  ``(T_seg, n)`` block through
  :func:`~repro.mechanism.pricing.price_rows` (DESIGN.md §14).

Other mechanisms are priced per round through ``mechanism.run`` on
both.  Every other round runs the coordinator over the DES in the
supervisor, which :func:`run_horizon` reaches through ``run_round``
(``horizon.defused.boundaries``).

Parity contract
---------------
Direct and fused rounds run the same code; both are **bit-identical**
to the message path on the same seed — every float of every
:class:`RoundResult`, and a direct round's final checkpoint — because:

1. **RNG stream order.**  A clean message-path round draws the Poisson
   count, the uniform positions, the routing ``choice``, then
   (stochastic service only) one exponential batch per machine with
   jobs, in machine-index order.  Phase A draws those batches as one
   ``exponential`` call over the per-job means, which consumes the
   stream element for element in that order.  Clean rounds never
   retry, so backoff RNG is never consumed.
2. **Zero-delay timing.**  The network delivers at delay 0.0, so the
   dispatched arrival times are ``0.0 + times``, bitwise the draw;
   sojourns are ``(times_k + duration) - times_k`` on the per-machine
   subarrays ``dispatch_batched`` submits, and a machine's mean sojourn
   is ``ndarray.mean`` of its subarray (written out for one and two
   jobs, where it is ``s0`` and ``(s0 + s1) / 2``).

The allocator's loads are the mechanism's loads bit for bit, so one
array configures the machines, routes the jobs, scales the estimates
and feeds detection; a mechanism with its own allocation is priced
inside Phase A and its loads feed detection, as on the message path.

Counters: ``supervisor.direct_rounds``, ``supervisor.message_rounds``,
``horizon.fused.rounds`` (with the sequential ``supervisor.rounds``,
``supervisor.jobs_routed`` and quarantine gauge) and
``horizon.defused.boundaries``; ``repro metrics`` prints them as one
"Round paths" table.
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING

import numpy as np

from repro._validation import check_positive_scalar
from repro.mechanism.compensation_bonus import VerificationMechanism
from repro.mechanism.pricing import price_rows
from repro.observability.instrumentation import (
    annotate,
    observe_value,
    record_counter,
    record_gauge,
    trace_span,
)
from repro.protocol.execution import route_by_machine
from repro.protocol.monitoring import CusumSlowdownDetector
from repro.system.workload import split_assignments
from repro.types import AllocationResult, MechanismOutcome

if TYPE_CHECKING:  # pragma: no cover - cycle guard (resilience imports protocol)
    from repro.resilience.chaos import RoundFaults
    from repro.resilience.supervisor import RoundSupervisor, SupervisorReport

__all__ = ["fusible_round", "phase_a", "run_horizon"]


_NO_SPAN = contextlib.nullcontext()


def _no_span(_name: str) -> contextlib.nullcontext:
    """Stand-in for a stage span on fused rounds."""
    return _NO_SPAN


def fusible_round(
    supervisor: "RoundSupervisor", faults: "RoundFaults | None"
) -> bool:
    """Whether the next round can join a fused segment.

    A clean round (the direct path's predicate) with no remediation
    pipeline attached; decided *before* any supervisor state is
    touched.  Anything else goes to ``supervisor.run_round``.
    """
    if supervisor.remediation is not None:
        return False
    return supervisor._takes_direct_path(faults)


def phase_a(
    supervisor: "RoundSupervisor",
    index: int,
    rate: float,
    admitted: list[str],
    probes: list[str],
    quarantined: list[str],
    wal=None,
) -> dict:
    """One clean round, from bids to the quarantine update.

    ``admitted`` (at least two machines), ``probes`` and
    ``quarantined`` come from this round's ``begin_round``.  Returns
    the round's record for :func:`round_result`.

    ``wal`` is a direct round's write-ahead log (the supervisor's
    ``_RoundLog``): each stage then runs in its ``supervisor.*`` span,
    the log is written as the stages complete, and the round is priced
    at once.  A fused round passes none: no spans, no log, and a
    verification-mechanism round leaves ``record["outcome"]`` as
    ``None`` for Phase B.
    """
    mechanism = supervisor.mechanism
    agents = supervisor.agents
    stage = _no_span if wal is None else trace_span

    with stage("supervisor.bidding"):
        if wal is not None:
            wal.begin()
        # The message path materialises machines (one
        # ``agent.execution_value()`` each, in admitted order) before
        # any bid is requested; stateful agents observe the same call
        # sequence here.
        execution_values = np.array(
            [agents[name].execution_value() for name in admitted],
            dtype=np.float64,
        )
        # Validated as the message path's machine constructor does.
        if not (
            np.isfinite(execution_values).all() and (execution_values > 0.0).all()
        ):
            for value in execution_values.tolist():
                check_positive_scalar(value, "execution_value")  # raises
        bid_list = [agents[name].bid() for name in admitted]
        if supervisor.bid_overrides:
            for k, name in enumerate(admitted):
                override = supervisor.bid_overrides.get(name)
                if override is not None and override > bid_list[k]:
                    record_counter("remediation.bid_overrides")
                    annotate(
                        "remediation.bid_override",
                        machine=name,
                        declared=bid_list[k],
                        override=override,
                    )
                    bid_list[k] = float(override)
        bids = np.array(bid_list, dtype=np.float64)
        # The allocator is the fresh PR solve, so these loads are the
        # mechanism's loads bit for bit: they configure the machines,
        # route the jobs, and feed the estimates and the detection.
        loads = supervisor._allocator.allocate(admitted, bids, rate).loads
        if wal is not None:
            wal.allocated(bids, loads)

    with stage("supervisor.execution"):
        times = supervisor._generate_times(index)
        jobs_routed = int(times.size)
        assignments = split_assignments(
            jobs_routed, loads / loads.sum(), supervisor._rng
        )
        counts, sojourns, bounds, mean_sojourns = _execute(
            supervisor, times, assignments, execution_values, loads
        )

    with stage("supervisor.reporting"):
        # Execution-value estimates (the coordinator's
        # ``_complete_verification`` rule): a machine with no
        # completions reports mean_sojourn 0.0 and falls back to its bid.
        with np.errstate(divide="ignore", invalid="ignore"):
            estimates = np.where(
                (counts == 0) | (loads == 0.0), bids, mean_sojourns / loads
            )
        if wal is not None:
            wal.reported(counts, mean_sojourns)
        record = {
            "index": index,
            "rate": rate,
            "admitted": admitted,
            "probes": probes,
            "quarantined": quarantined,
            "bids": bids,
            "estimates": estimates,
            "jobs_routed": jobs_routed,
            "outcome": None,
        }
        if (
            type(mechanism) is VerificationMechanism
            and np.all(bids > 0.0)
            and np.all(estimates > 0.0)
            and np.all(np.isfinite(estimates))
        ):
            if wal is not None:
                _price_block(mechanism, [record])
        else:
            # Non-verification mechanisms (or degenerate inputs, which
            # must raise exactly as the message path would) are priced
            # through the mechanism itself.
            record["outcome"] = mechanism.run(bids, rate, estimates)
        outcome = record["outcome"]
        if wal is not None:
            wal.paid(outcome.payments)

    mech_loads = loads if outcome is None else outcome.loads
    alerts: list[str] = []
    with stage("supervisor.detection"):
        for k in _watched(supervisor, counts, sojourns, bounds, bids, mech_loads):
            detector = CusumSlowdownDetector(
                float(bids[k]),
                float(mech_loads[k]),
                threshold=supervisor.detector_threshold,
                slack=supervisor.detector_slack,
            )
            alert = detector.observe_many(sojourns[bounds[k] : bounds[k + 1]])
            if alert is not None:
                alerts.append(admitted[k])
                record_counter("supervisor.slowdown_alerts")
                annotate("slowdown.alert", machine=admitted[k])
    record["alerts"] = alerts

    supervisor.quarantine.record_outcomes(
        admitted, dict.fromkeys(alerts, "slowdown_alert")
    )
    return record


def _execute(supervisor, times, assignments, execution_values, loads):
    """Service draws and sojourn statistics of one clean round.

    Returns ``(counts, sojourns, bounds, mean_sojourns)``: machine
    ``k``'s sojourns are ``sojourns[bounds[k] : bounds[k + 1]]``, in
    arrival order, and its mean sojourn is 0.0 without jobs.  One vector
    pass covers every job; only machines with three or more jobs take a
    per-machine ``mean`` (the pairwise sum is not a plain left-to-right
    one beyond two terms).
    """
    n = loads.size
    routed, counts, bounds = route_by_machine(times, assignments, n)
    mean_sojourns = np.zeros(n)
    if not routed.size:
        return counts, routed, bounds, mean_sojourns
    means = np.repeat(execution_values * loads, counts)
    if supervisor.deterministic_service:
        durations = means
    else:
        # One draw over the per-job means consumes the stream exactly as
        # one ``exponential(mean, size)`` per machine in machine order.
        durations = supervisor._rng.exponential(means)
    sojourns = (routed + durations) - routed
    starts = np.asarray(bounds[:-1])
    one = counts == 1
    mean_sojourns[one] = sojourns[starts[one]]
    two = np.flatnonzero(counts == 2)
    pair = starts[two]
    mean_sojourns[two] = (sojourns[pair] + sojourns[pair + 1]) / 2.0
    for k in np.flatnonzero(counts > 2).tolist():
        mean_sojourns[k] = float(sojourns[bounds[k] : bounds[k + 1]].mean())
    return counts, sojourns, bounds, mean_sojourns


def _watched(supervisor, counts, sojourns, bounds, bids, loads) -> list[int]:
    """Machines whose jobs could move a fresh CUSUM detector, in index order.

    The message path builds a detector for every machine with jobs and
    a positive load.  From its zero statistic a detector whose sojourns
    are all non-negative, none NaN, and the largest within the slack
    band (``max / (b x) - 1 - slack <= 0``) stays at zero and raises
    nothing — the exact screen ``observe_many`` runs first — so this
    screen runs for every machine in one vector pass, with the same
    float operations, and only the machines failing it get a detector.
    A machine with a bid or load the detector would reject fails it
    too, so the detector raises as on the message path.
    """
    busy = np.flatnonzero(counts)
    if not busy.size:
        return []
    starts = np.asarray(bounds[:-1])[busy]
    peaks = np.maximum.reduceat(sojourns, starts)
    lows = np.minimum.reduceat(sojourns, starts)
    declared, load = bids[busy], loads[busy]
    with np.errstate(all="ignore"):
        quiet = (
            (lows >= 0.0)
            & (peaks / (declared * load) - 1.0 - supervisor.detector_slack <= 0.0)
            & (declared > 0.0)
            & np.isfinite(declared)
            & np.isfinite(load)
        )
    return busy[~quiet & ~(load <= 0.0)].tolist()


def _price_block(mechanism, records: list[dict]) -> None:
    """Price same-width clean rounds as one block; fill their outcomes.

    ``price_rows`` is the kernel ``VerificationMechanism.run`` prices
    its single row with, so a row priced here — alone (a direct round)
    or stacked (Phase B) — has the same bits.
    """
    rates = np.array([record["rate"] for record in records])
    priced = price_rows(
        np.array([record["bids"] for record in records]),
        np.array([record["estimates"] for record in records]),
        rates,
        mechanism.compensation_mode,
    )
    for r, record in enumerate(records):
        record["outcome"] = MechanismOutcome(
            allocation=AllocationResult(
                loads=priced.loads[r],
                arrival_rate=float(rates[r]),
                bids=record["bids"],
                total_latency=float(priced.declared_latency[r]),
            ),
            payments=priced.payments_of(r),
            execution_values=record["estimates"],
            metadata={"mechanism": type(mechanism).__name__},
        )


def round_result(record: dict):
    """The RoundResult of one priced clean round."""
    from repro.resilience.supervisor import RoundResult

    outcome = record["outcome"]
    names = record["admitted"]
    return RoundResult(
        index=record["index"],
        participants=list(names),
        probes=record["probes"],
        quarantined=record["quarantined"],
        excluded=[],
        withheld=[],
        alerts=record["alerts"],
        faulted=[],
        fault_kinds={},
        voided=False,
        outcome=outcome,
        loads=dict(zip(names, outcome.loads.tolist())),
        payments=dict(zip(names, outcome.payments.payment.tolist())),
        utilities=dict(zip(names, outcome.payments.utility.tolist())),
        payment_notices=dict.fromkeys(names, 1),
        bid_retries=0,
        report_retries=0,
        coordinator_restarts=0,
        arrival_rate=record["rate"],
        jobs_routed=record["jobs_routed"],
    )


def _run_fused_segment(supervisor: "RoundSupervisor", count: int) -> list:
    """Run ``count`` consecutive fusible rounds; price them in Phase B."""
    from repro.resilience.supervisor import RoundResult

    quarantine = supervisor.quarantine
    results: list = []
    deferred: dict[int, list[tuple[int, dict]]] = {}  # width -> (slot, record)

    for _ in range(count):
        index = supervisor._round_index
        supervisor._round_index += 1
        rate = supervisor.round_rate(index)

        admitted = quarantine.begin_round()
        probes = quarantine.probes()
        quarantined = quarantine.quarantined()

        record_counter("horizon.fused.rounds")
        record_counter("supervisor.rounds")
        record_gauge("resilience.quarantine.open", len(quarantined))

        if len(admitted) < 2:
            # Too few live machines to price: the sequential path voids
            # without touching quarantine outcomes — replicated inline
            # (delegating to run_round would re-run begin_round and
            # corrupt the cooldown clocks).
            record_counter("supervisor.rounds_voided")
            observe_value("supervisor.jobs_routed", 0)
            results.append(RoundResult.voided_round(
                index, rate, admitted, probes, quarantined, list(admitted)
            ))
            continue

        record = phase_a(supervisor, index, rate, admitted, probes, quarantined)
        observe_value("supervisor.jobs_routed", record["jobs_routed"])
        if record["outcome"] is None:
            deferred.setdefault(len(admitted), []).append((len(results), record))
            results.append(None)  # filled by Phase B
        else:
            results.append(round_result(record))

    # ---------------------------------------------------------- Phase B
    # Stack the deferred rounds by machine count and price each group
    # as one broadcast.  Rows are independent, so membership may vary
    # within a group; grouping by n only keeps the block rectangular.
    for members in deferred.values():
        _price_block(supervisor.mechanism, [record for _, record in members])
        for slot, record in members:
            results[slot] = round_result(record)
    return results


def run_horizon(
    supervisor: "RoundSupervisor",
    n_rounds: int,
    fault_plan=None,
) -> "SupervisorReport":
    """Drive ``n_rounds`` rounds, fusing every maximal fusible run.

    Bit-identical to ``supervisor.run(n_rounds, fault_plan)`` without
    ``horizon`` on the same seed (the A27 bench asserts this against
    the message path before timing anything); every other round goes
    to ``supervisor.run_round``, so chaos and remediation semantics are
    the supervisor's own code.
    """
    from repro.resilience.supervisor import SupervisorReport

    if n_rounds < 1:
        raise ValueError("n_rounds must be at least 1")
    report = SupervisorReport()
    k = 0
    while k < n_rounds:
        faults = fault_plan[k] if fault_plan is not None else None
        if not fusible_round(supervisor, faults):
            record_counter("horizon.defused.boundaries")
            report.rounds.append(supervisor.run_round(faults))
            k += 1
            continue
        end = k + 1
        while end < n_rounds and fusible_round(
            supervisor, fault_plan[end] if fault_plan is not None else None
        ):
            end += 1
        with trace_span("horizon.segment", rounds=end - k):
            report.rounds.extend(_run_fused_segment(supervisor, end - k))
        k = end
    return report

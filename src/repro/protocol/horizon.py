"""Horizon-fused multi-round engine: stacked rounds between event boundaries.

The sequential :class:`~repro.resilience.supervisor.RoundSupervisor`
pays full per-round protocol machinery even when nothing interesting
happens: a fresh discrete-event simulator, ~5n messages through the
network layer, a write-ahead log with up to four full checkpoint
snapshots per round, and a pile of per-round dataclass churn.  On a
fault-free horizon every one of those rounds computes the same *kind*
of thing — bids, one PR solve, one Poisson window, masked
per-machine sojourn statistics, one mechanism evaluation — so this
module evaluates maximal fault-free runs of rounds as one fused
segment instead.

Fusible-segment model
---------------------
:func:`run_horizon` walks the horizon and partitions it into maximal
**fusible segments**.  A round is fusible (:func:`fusible_round`) iff
nothing about it needs the message-driven machinery:

* its fault entry is ``None`` or clean (no drops, no machine faults,
  no coordinator crash);
* the supervisor has no pending remediation skip (``skip_rounds == 0``)
  and no remediation pipeline at all (the pipeline may mutate
  supervisor state *between* rounds, which only the sequential path
  sequences correctly);
* the monolithic batched execution engine is active (``shards == 1``,
  ``execution == "batched"`` — the per-job event path interleaves its
  service draws with event delivery order and cannot be replayed as a
  batch).

Every non-fusible round **de-fuses**: it is delegated verbatim to
``supervisor.run_round(faults)`` (counted by
``horizon.defused.boundaries``), so chaos, remediation, retry, and
crash-recovery semantics are exactly the sequential code — not a
reimplementation.

A fused segment runs in two phases:

* **Phase A (per round, cheap):** quarantine admission, agent bids
  with remediation overrides, the supervisor's allocator (a fresh PR
  solve), the round's workload draw through the *same*
  ``RoundSupervisor._generate_times`` the sequential path uses, one
  sort-once routing (:func:`~repro.protocol.execution.route_by_machine`)
  and sojourn statistics for the machines that received jobs, the
  estimates in one ``np.where``, CUSUM detection over the machines
  with jobs, and one bulk quarantine update.  A wide round with few
  jobs costs O(jobs + changes) Python plus O(n) vector work (and one
  ``bid()`` and ``execution_value()`` call per admitted agent).
  Membership churn (an alert quarantining a machine mid-segment,
  probes re-admitted) is handled naturally because admission still
  happens round by round.
* **Phase B (stacked):** all live rounds of the segment are grouped
  by machine count and priced as one ``(T_seg, n)`` block through
  :func:`~repro.mechanism.pricing.price_rows`, the kernel the
  per-round ``VerificationMechanism.run`` prices its single row with
  (DESIGN.md §14), so Phase B cannot drift from the sequential
  pricing.  Other mechanism types are priced per round through
  ``mechanism.run`` while Phase A still skips the protocol tax.

Parity contract
---------------
Results are **bit-identical** to ``supervisor.run(n_rounds)`` on the
same seed — every float in every :class:`RoundResult`, through
``repr`` and back.  Two properties carry the contract:

1. **RNG stream order.**  A clean sequential round consumes, in
   order: the Poisson count draw, the uniform position draws, the
   routing ``choice`` draw, then (stochastic service only) one
   exponential batch per machine with jobs, in machine-index order.
   Phase A replays exactly that order; notably the workload is drawn
   per round (``PoissonWorkload.horizon_times`` documents why a
   single segment-level draw is off the table) and backoff RNG is
   never consumed because clean rounds never retry.
2. **Zero-delay timing.**  The simulated network delivers at delay
   0.0, so allocation fires at ``sim.now == 0.0`` and the dispatched
   arrival times are ``0.0 + times`` — bitwise the raw draw.
   Sojourns are ``(times_k + duration) - times_k`` per machine on the
   same per-machine subarrays (arrival order) ``dispatch_batched``
   hands to ``submit_batch``.

Loads need no clause of their own: the supervisor's allocator is the
fresh PR solve over the round's bids, so the loads that configure the
machines, route the jobs and scale the estimates *are* the loads the
mechanism prices and the detector reads, bit for bit (a test pins
this on the sequential, sharded and fused paths).  A mechanism with
its own allocation is priced per round, and its loads feed detection
and ``RoundResult.loads`` as in the sequential round.

Detection runs through the same
:meth:`~repro.protocol.monitoring.CusumSlowdownDetector.observe_many`
the sequential round calls; its exact zero-statistic screen is what
makes a quiet machine's per-job loop free on both paths.

Observability: fused rounds record the sequential counters
(``supervisor.rounds``, ``supervisor.jobs_routed``, quarantine gauge)
plus ``horizon.fused.rounds``; every de-fused round additionally
counts ``horizon.defused.boundaries``.  ``repro metrics --horizon``
surfaces both next to the campaign fusion counters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

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
    from repro.resilience.supervisor import (
        RoundResult,
        RoundSupervisor,
        SupervisorReport,
    )

__all__ = ["fusible_round", "run_horizon"]


def fusible_round(
    supervisor: "RoundSupervisor", faults: "RoundFaults | None"
) -> bool:
    """Whether the next round can join a fused segment.

    Decided *before* any supervisor state is touched: fault-free (or a
    clean :class:`~repro.resilience.chaos.RoundFaults`), no pending
    remediation skip, no remediation pipeline, monolithic batched
    execution.  Anything else de-fuses to ``supervisor.run_round``.
    """
    if supervisor.shards > 1 or supervisor.remediation is not None:
        return False
    if supervisor.skip_rounds > 0:
        return False
    if supervisor.execution != "batched":
        return False
    if faults is None:
        return True
    return bool(getattr(faults, "is_clean", False))


def _run_fused_segment(supervisor: "RoundSupervisor", count: int) -> list:
    """Evaluate ``count`` consecutive fusible rounds as one segment."""
    from repro.resilience.supervisor import RoundResult

    mechanism = supervisor.mechanism
    exact_stack = type(mechanism) is VerificationMechanism
    agents = supervisor.agents
    quarantine = supervisor.quarantine

    results: list = []
    deferred: list[tuple[int, dict]] = []  # (slot in results, phase-A record)

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
            results.append(
                RoundResult(
                    index=index,
                    participants=list(admitted),
                    probes=probes,
                    quarantined=quarantined,
                    excluded=list(admitted),
                    withheld=[],
                    alerts=[],
                    faulted=[],
                    fault_kinds={},
                    voided=True,
                    outcome=None,
                    loads={},
                    payments={},
                    utilities={},
                    payment_notices={},
                    bid_retries=0,
                    report_retries=0,
                    coordinator_restarts=0,
                    arrival_rate=rate,
                    jobs_routed=0,
                )
            )
            continue

        # -------------------------------------------------- wiring order
        # The sequential round materialises machines (one
        # ``agent.execution_value()`` each, in admitted order) before
        # any bid is requested; stateful agents observe the same call
        # sequence here.
        execution_values = [agents[name].execution_value() for name in admitted]
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
        allocation = supervisor._allocator.allocate(admitted, bids, rate)
        alloc_loads = allocation.loads

        times = supervisor._generate_times(index)
        jobs_routed = int(times.size)
        assignments = split_assignments(
            jobs_routed, alloc_loads / alloc_loads.sum(), supervisor._rng
        )

        # Per-machine execution statistics on the same per-machine
        # subarrays dispatch_batched submits (arrivals are 0.0 + times,
        # bitwise the raw draws under the zero-delay network), visiting
        # only the machines that received jobs, in machine-index order.
        n = len(admitted)
        routed, counts, bounds = route_by_machine(times, assignments, n)
        busy = np.flatnonzero(counts).tolist()
        mean_sojourns = np.zeros(n)
        busy_sojourns: list[np.ndarray] = []
        for k in busy:
            sub = routed[bounds[k] : bounds[k + 1]]
            mean = float(execution_values[k]) * float(alloc_loads[k])
            if supervisor.deterministic_service:
                durations = np.full(sub.size, mean)
            else:
                durations = supervisor._rng.exponential(mean, size=sub.size)
            sojourns = (sub + durations) - sub
            busy_sojourns.append(sojourns)
            mean_sojourns[k] = float(sojourns.mean())

        # Execution-value estimates (the coordinator's
        # ``_complete_verification`` rule): a machine with no
        # completions reports mean_sojourn 0.0 and falls back to its bid.
        with np.errstate(divide="ignore", invalid="ignore"):
            estimates = np.where(
                (counts == 0) | (alloc_loads == 0.0),
                bids,
                mean_sojourns / alloc_loads,
            )

        # ---------------------------------------------------- mechanism
        outcome: MechanismOutcome | None = None
        if (
            exact_stack
            and np.all(bids > 0.0)
            and np.all(estimates > 0.0)
            and np.all(np.isfinite(estimates))
        ):
            # Deferred: priced in the stacked Phase B broadcast.
            mech_loads = alloc_loads
        else:
            # Non-verification mechanisms (or degenerate inputs, which
            # must raise exactly as the sequential path would) are
            # priced per round; the protocol tax is still skipped.
            outcome = mechanism.run(bids, rate, estimates)
            mech_loads = outcome.loads

        # ---------------------------------------------------- detection
        alerts: list[str] = []
        for k, sojourns in zip(busy, busy_sojourns):
            load = float(mech_loads[k])
            if load <= 0.0:
                continue
            detector = CusumSlowdownDetector(
                float(bids[k]),
                load,
                threshold=supervisor.detector_threshold,
                slack=supervisor.detector_slack,
            )
            if detector.observe_many(sojourns) is not None:
                alerts.append(admitted[k])
                record_counter("supervisor.slowdown_alerts")
                annotate("slowdown.alert", machine=admitted[k])

        quarantine.record_outcomes(
            admitted, dict.fromkeys(alerts, "slowdown_alert")
        )
        observe_value("supervisor.jobs_routed", jobs_routed)

        record = {
            "index": index,
            "rate": rate,
            "admitted": admitted,
            "probes": probes,
            "quarantined": quarantined,
            "alerts": alerts,
            "bids": bids,
            "estimates": estimates,
            "jobs_routed": jobs_routed,
            "outcome": outcome,
        }
        if outcome is None:
            deferred.append((len(results), record))
            results.append(None)  # filled by Phase B
        else:
            results.append(_round_result(RoundResult, record))

    # ---------------------------------------------------------- Phase B
    # Stack the deferred rounds by machine count and price each group
    # as one broadcast.  Rows are independent, so membership may vary
    # within a group; grouping by n only keeps the block rectangular.
    by_width: dict[int, list[tuple[int, dict]]] = {}
    for slot, record in deferred:
        by_width.setdefault(record["bids"].size, []).append((slot, record))
    # ``price_rows`` is the kernel a sequential round's ``mechanism.run``
    # prices its single row with, so a row priced here has the same bits.
    for members in by_width.values():
        rates = np.array([rec["rate"] for _, rec in members])
        priced = price_rows(
            np.array([rec["bids"] for _, rec in members]),
            np.array([rec["estimates"] for _, rec in members]),
            rates,
            mechanism.compensation_mode,
        )
        for r, (slot, record) in enumerate(members):
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
            results[slot] = _round_result(RoundResult, record)
    return results


def _round_result(round_result_cls, record: dict):
    """Assemble one clean fused round's RoundResult from its outcome."""
    outcome = record["outcome"]
    names = record["admitted"]
    return round_result_cls(
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


def run_horizon(
    supervisor: "RoundSupervisor",
    n_rounds: int,
    fault_plan=None,
) -> "SupervisorReport":
    """Drive ``n_rounds`` rounds, fusing every maximal fault-free run.

    Bit-identical to ``supervisor.run(n_rounds, fault_plan)`` on the
    same seed (the A27 bench asserts this before timing anything);
    every non-fusible round de-fuses to ``supervisor.run_round`` so
    chaos and remediation semantics are the sequential code itself.
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

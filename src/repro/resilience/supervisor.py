"""Supervised multi-round protocol: retry, quarantine, recover, repeat.

One :func:`~repro.protocol.run_protocol` call prices a single clean
round.  A deployment runs the mechanism continuously against machines
that flap, links that drop, and a coordinator that can itself die; the
:class:`RoundSupervisor` here is the control loop that keeps allocating
through all of that:

* **retry with backoff** — a machine that misses the bid or report
  deadline is re-asked under a jittered exponential
  :class:`~repro.resilience.retry.BackoffPolicy` before being excluded,
  so transient unresponsiveness does not cost it the round;
* **quarantine** — per-round outcomes (missed deadlines after retries,
  CUSUM slowdown alerts) feed a
  :class:`~repro.resilience.quarantine.QuarantinePolicy` circuit
  breaker in one bulk update; quarantined machines sit out and their
  load is reallocated to the survivors by a fresh closed-form PR solve
  over the admitted bids (O(n) vector work, bit-identical to the
  mechanism's own allocation);
* **coordinator recovery** — the per-round
  :class:`SupervisedCoordinator` keeps one write-ahead log per round in
  a :class:`~repro.resilience.checkpoint.CheckpointStore`: a full
  snapshot at each phase transition (at most four per clean round) and
  an O(1) record per bid, report and payment in between; a crashed
  coordinator is restored from the snapshot plus the replayed records
  and either resumes the round or voids it, never paying a machine
  twice.

A clean round — no injected fault, no pending remediation skip, the
monolithic batched engine — needs none of that machinery, so it takes
the **direct path**: :func:`repro.protocol.horizon.phase_a` (the one
implementation of a clean round, shared with the horizon engine) plus
one priced row, writing the same write-ahead log
(:class:`_RoundLog`) and stage spans.  The coordinator over the
discrete-event simulator runs only the rounds that need it; both paths
give the same results bit for bit.

The supervisor is deliberately deterministic given its seed: the chaos
harness (:mod:`repro.resilience.chaos`) replays identical fault
schedules against it and asserts the mechanism invariants after every
round.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro._validation import check_positive_scalar
from repro.agents.base import Agent
from repro.allocation.pr import pr_allocation
from repro.mechanism.base import Mechanism
from repro.mechanism.compensation_bonus import VerificationMechanism
from repro.observability.instrumentation import (
    annotate,
    observe_value,
    record_counter,
    record_gauge,
    trace_span,
)
from repro.protocol.coordinator import COORDINATOR_NAME, MachineNode, ProtocolPhase
from repro.protocol.faults import FaultTolerantCoordinator, ReliableNetwork
from repro.protocol.horizon import phase_a, round_result, run_horizon
from repro.protocol.messages import (
    AllocationNotice,
    BidRequest,
    CompletionReport,
    Message,
    PaymentNotice,
)
from repro.protocol.monitoring import CusumSlowdownDetector
from repro.protocol.network import SimulatedNetwork
from repro.resilience.checkpoint import CheckpointStore, CoordinatorCheckpoint
from repro.resilience.quarantine import QuarantinePolicy
from repro.resilience.retry import BackoffPolicy
from repro.system.des import Simulator
from repro.protocol.execution import dispatch_batched, resolve_execution
from repro.system.machine import LinearLatencyMachine
from repro.system.workload import (
    ArrivalSchedule,
    Job,
    PoissonWorkload,
    split_assignments,
    split_workload,
)
from repro.types import AllocationResult, MechanismOutcome

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (chaos imports us)
    from repro.remediation.pipeline import RemediationPipeline
    from repro.resilience.chaos import RoundFaults

__all__ = [
    "CoordinatorCrash",
    "SupervisedCoordinator",
    "RoundResult",
    "SupervisorReport",
    "RoundSupervisor",
]


class CoordinatorCrash(RuntimeError):
    """Injected coordinator failure: the process died mid-round."""


@dataclass
class SupervisedCoordinator(FaultTolerantCoordinator):
    """A fault-tolerant coordinator that checkpoints and pays at most once.

    Extends :class:`~repro.protocol.FaultTolerantCoordinator` with:

    * ``allocator`` — optional override for the allocation step (the
      supervisor passes its one allocation entry point);
    * ``checkpoint_store`` — the round's write-ahead log: a full
      snapshot at every phase transition, and one O(1) record per
      bid, report, and issued payment in between;
    * ``payments_sent`` — the at-most-once ledger: a payment is
      recorded (and logged) *before* its notice is sent, and never
      re-issued by a restored coordinator;
    * ``fail_after_payments`` — chaos hook: raise
      :class:`CoordinatorCrash` once that many payments were issued;
    * ``min_participants`` — rounds that shrink below this many
      responders are voided (the bonus term needs a leave-one-out
      system, so fewer than two machines cannot be priced);
    * ``bid_overrides`` — remediation-imposed effective declared values:
      a machine the pipeline has re-estimated (its verified execution
      value exceeded its bid) is priced at the override rather than its
      declared bid.  Overrides only ever *raise* a recorded bid, never
      lower it, and apply at recording time, so allocation, payments,
      and checkpoints all see one consistent value.
    """

    allocator: (
        Callable[[list[str], np.ndarray, float], AllocationResult] | None
    ) = None
    checkpoint_store: CheckpointStore | None = None
    fail_after_payments: int | None = None
    min_participants: int = 2
    payments_sent: dict[str, tuple[float, float, float]] = field(
        default_factory=dict
    )
    bid_overrides: dict[str, float] = field(default_factory=dict)

    # --------------------------------------------------------- overrides

    def _set_phase(self, phase: ProtocolPhase) -> None:
        # Every transition is a snapshot, written before the messages
        # of the new phase go out; events in between are log records.
        super()._set_phase(phase)
        self._save_checkpoint()

    def _record_bid(self, reply) -> None:
        override = self.bid_overrides.get(reply.sender)
        if override is not None and override > reply.bid:
            record_counter("remediation.bid_overrides")
            annotate(
                "remediation.bid_override",
                machine=reply.sender,
                declared=reply.bid,
                override=override,
            )
            reply = replace(reply, bid=float(override))
        super()._record_bid(reply)
        if self.checkpoint_store is not None:
            self.checkpoint_store.append_bid(reply.sender, reply.bid)

    def _record_report(self, report) -> None:
        super()._record_report(report)
        if self.checkpoint_store is not None:
            self.checkpoint_store.append_report(
                report.sender, report.jobs_completed, report.mean_sojourn
            )

    def _allocate_to_responders(self) -> None:
        responders = [n for n in self.machine_names if n in self._bids]
        if len(responders) < self.min_participants:
            self.void_round()
            return
        self.excluded = [n for n in self.machine_names if n not in self._bids]
        self.machine_names = responders
        self._reset_membership_caches()

        bids = self.bids_vector()
        if self.allocator is not None:
            allocation = self.allocator(responders, bids, self.arrival_rate)
        else:
            allocation = self.mechanism.allocate(bids, self.arrival_rate)
        self._loads = allocation.loads
        self._set_phase(ProtocolPhase.EXECUTING)
        for name, load in zip(self.machine_names, allocation.loads):
            self.network.send(
                AllocationNotice(
                    sender=COORDINATOR_NAME, receiver=name, load=float(load)
                )
            )
        if self.on_allocated is not None:
            self.on_allocated(allocation.loads)

    def _finish_with_missing(self, missing: set[str]) -> None:
        self.withheld = sorted(missing)
        self._set_phase(ProtocolPhase.VERIFYING)
        self._complete_verification()

    # --------------------------------------------------------- verification

    def _complete_verification(self) -> None:
        """Estimate, price, and pay — skipping payments already issued.

        Pure function of the checkpointed inputs (bids, loads,
        reports, withheld), so a restored coordinator re-derives the
        identical outcome and only issues the missing notices.
        """
        bids = self.bids_vector()
        assert self._loads is not None
        missing = set(self.withheld)

        estimates = np.empty(len(self.machine_names))
        for k, name in enumerate(self.machine_names):
            if name in missing:
                estimates[k] = self.missing_report_factor * bids[k]
                continue
            report = self._reports[name]
            if report.jobs_completed == 0 or self._loads[k] == 0.0:
                estimates[k] = bids[k]
            else:
                estimates[k] = report.mean_sojourn / self._loads[k]

        self.estimated_execution_values = estimates
        self.outcome = self.mechanism.run(bids, self.arrival_rate, estimates)
        payments = self.outcome.payments
        for k, name in enumerate(self.machine_names):
            if name in self.payments_sent:
                continue  # issued before a crash: never pay twice
            if (
                self.fail_after_payments is not None
                and len(self.payments_sent) >= self.fail_after_payments
            ):
                raise CoordinatorCrash(
                    f"coordinator died after issuing "
                    f"{len(self.payments_sent)} payments"
                )
            if name in missing:
                amounts = (0.0, 0.0, 0.0)
            else:
                amounts = (
                    float(payments.payment[k]),
                    float(payments.compensation[k]),
                    float(payments.bonus[k]),
                )
            # Write-ahead: record and persist the intent, then send.
            self.payments_sent[name] = amounts
            if self.checkpoint_store is not None:
                self.checkpoint_store.append_payment(name, amounts)
            self.network.send(
                PaymentNotice(
                    sender=COORDINATOR_NAME,
                    receiver=name,
                    payment=amounts[0],
                    compensation=amounts[1],
                    bonus=amounts[2],
                )
            )
        self._set_phase(ProtocolPhase.DONE)

    # --------------------------------------------------------- persistence

    def checkpoint(self) -> CoordinatorCheckpoint:
        """Snapshot the coordinator's inputs as a serialisable record."""
        return CoordinatorCheckpoint(
            phase=self.phase.value,
            machine_names=list(self.machine_names),
            arrival_rate=self.arrival_rate,
            bids=dict(self._bids),
            loads=None if self._loads is None else [float(x) for x in self._loads],
            reports={
                name: (report.jobs_completed, report.mean_sojourn)
                for name, report in self._reports.items()
            },
            excluded=list(self.excluded),
            withheld=list(self.withheld),
            payments_sent=dict(self.payments_sent),
        )

    def _save_checkpoint(self) -> None:
        if self.checkpoint_store is not None:
            self.checkpoint_store.save(self.checkpoint())

    @classmethod
    def restore(
        cls,
        checkpoint: CoordinatorCheckpoint,
        *,
        mechanism: Mechanism,
        network,
        on_allocated=None,
        checkpoint_store: CheckpointStore | None = None,
        allocator=None,
    ) -> "SupervisedCoordinator":
        """Rebuild a coordinator from a checkpoint after a crash.

        The restored instance carries no chaos hook
        (``fail_after_payments`` is cleared): the replacement process
        is assumed healthy.
        """
        coordinator = cls(
            mechanism=mechanism,
            machine_names=list(checkpoint.machine_names),
            arrival_rate=checkpoint.arrival_rate,
            network=network,
            on_allocated=on_allocated,
            checkpoint_store=checkpoint_store,
            allocator=allocator,
        )
        coordinator.phase = ProtocolPhase(checkpoint.phase)
        coordinator._bids = dict(checkpoint.bids)
        coordinator._loads = (
            None if checkpoint.loads is None else np.array(checkpoint.loads)
        )
        coordinator._reports = {
            name: CompletionReport(
                sender=name,
                receiver=COORDINATOR_NAME,
                jobs_completed=jobs,
                mean_sojourn=sojourn,
            )
            for name, (jobs, sojourn) in checkpoint.reports.items()
        }
        coordinator.excluded = list(checkpoint.excluded)
        coordinator.withheld = list(checkpoint.withheld)
        coordinator.payments_sent = dict(checkpoint.payments_sent)
        return coordinator

    def resume(self) -> None:
        """Continue (or safely abandon) the round after a restore.

        * ``IDLE``/``BIDDING`` — no allocation ever reached a machine,
          so the round is voided (cheap, safe, no payments);
        * ``EXECUTING`` — the allocation stands; keep waiting for
          reports (they arrive through :meth:`handle` as usual);
        * ``VERIFYING`` — re-derive the outcome and issue exactly the
          payments not yet in ``payments_sent``;
        * ``DONE``/``VOIDED`` — nothing left to do.
        """
        if self.phase in (ProtocolPhase.IDLE, ProtocolPhase.BIDDING):
            self.void_round()
        elif self.phase is ProtocolPhase.VERIFYING:
            self._complete_verification()


@dataclass
class RoundResult:
    """Everything observable after one supervised round."""

    index: int
    participants: list[str]
    probes: list[str]
    quarantined: list[str]
    excluded: list[str]
    withheld: list[str]
    alerts: list[str]
    faulted: list[str]
    fault_kinds: dict[str, str]
    voided: bool
    outcome: MechanismOutcome | None
    loads: dict[str, float]
    payments: dict[str, float]
    utilities: dict[str, float]
    payment_notices: dict[str, int]
    bid_retries: int
    report_retries: int
    coordinator_restarts: int
    arrival_rate: float
    jobs_routed: int

    @property
    def live_names(self) -> list[str]:
        """Machines that stayed in the round through allocation."""
        return list(self.loads)

    @classmethod
    def voided_round(
        cls,
        index: int,
        rate: float,
        admitted: list[str],
        probes: list[str],
        quarantined: list[str],
        excluded: list[str],
        *,
        machine_faults: dict | None = None,
        payment_notices: dict[str, int] | None = None,
        bid_retries: int = 0,
        restarts: int = 0,
    ) -> "RoundResult":
        """A round abandoned before allocation: no jobs, no payments."""
        machine_faults = machine_faults or {}
        return cls(
            index=index,
            participants=list(admitted),
            probes=probes,
            quarantined=quarantined,
            excluded=excluded,
            withheld=[],
            alerts=[],
            faulted=sorted(machine_faults),
            fault_kinds={n: f.kind for n, f in machine_faults.items()},
            voided=True,
            outcome=None,
            loads={},
            payments={},
            utilities={},
            payment_notices=payment_notices or {},
            bid_retries=bid_retries,
            report_retries=0,
            coordinator_restarts=restarts,
            arrival_rate=rate,
            jobs_routed=0,
        )


@dataclass
class SupervisorReport:
    """Aggregate view over a sequence of supervised rounds."""

    rounds: list[RoundResult] = field(default_factory=list)

    @property
    def n_rounds(self) -> int:
        """Number of rounds driven."""
        return len(self.rounds)

    @property
    def n_voided(self) -> int:
        """Rounds abandoned before allocation."""
        return sum(1 for r in self.rounds if r.voided)

    @property
    def total_bid_retries(self) -> int:
        """Bid re-requests issued across all rounds."""
        return sum(r.bid_retries for r in self.rounds)

    @property
    def total_report_retries(self) -> int:
        """Report re-requests issued across all rounds."""
        return sum(r.report_retries for r in self.rounds)

    @property
    def total_coordinator_restarts(self) -> int:
        """Coordinator crash/restore cycles across all rounds."""
        return sum(r.coordinator_restarts for r in self.rounds)

    @property
    def total_alerts(self) -> int:
        """CUSUM slowdown alerts raised across all rounds."""
        return sum(len(r.alerts) for r in self.rounds)


class _IncrementalAllocator:
    """The supervisor path's one allocation entry point: a fresh PR solve.

    Every round's loads are ``pr_allocation(bids, R)`` over the admitted
    machines' bids, so they equal the loads the mechanism itself
    computes from the same bids bit for bit, and one O(n) vector solve
    costs less than reconciling cross-round incremental state.  The
    class once did that reconciliation against an
    :class:`~repro.allocation.IncrementalPRState`; the name stayed
    because profiling tools and the repository benchmark wrap
    ``_IncrementalAllocator.allocate`` as the supervisor's allocate
    stage.
    """

    def allocate(
        self, names: list[str], bids: np.ndarray, arrival_rate: float
    ) -> AllocationResult:
        """PR loads for ``bids`` (``names`` is the matching membership)."""
        return pr_allocation(bids, arrival_rate)


class _RoundLog:
    """The write-ahead log of a round that takes the direct path.

    Writes into ``store`` what the message path's
    :class:`SupervisedCoordinator` writes for the same clean round: a
    snapshot at each phase transition (``BIDDING`` at start,
    ``EXECUTING``, ``VERIFYING``, ``DONE``) with a bid record per
    machine before ``EXECUTING`` and a report record per machine before
    ``VERIFYING``; the payments go as one packed record before
    ``DONE``, as a shard's settle writes them.  Each transition also
    records the coordinator's ``protocol.phase_transitions`` counter
    and annotation.  ``store.load()`` after the round therefore equals
    the message path's final checkpoint.
    """

    def __init__(
        self, store: CheckpointStore, names: list[str], rate: float
    ) -> None:
        self.store = store
        self.names = names
        self.rate = rate
        self.phase = ProtocolPhase.IDLE
        self.bids: dict[str, float] = {}
        self.loads: list[float] | None = None
        self.reports: dict[str, tuple[int, float]] = {}
        self.payments: dict[str, tuple[float, float, float]] = {}

    def _enter(self, phase: ProtocolPhase) -> None:
        record_counter(
            "protocol.phase_transitions", src=self.phase.value, dst=phase.value
        )
        annotate("protocol.phase", src=self.phase.value, dst=phase.value)
        self.phase = phase
        self.store.save(
            CoordinatorCheckpoint(
                phase=phase.value,
                machine_names=list(self.names),
                arrival_rate=self.rate,
                bids=self.bids,
                loads=self.loads,
                reports=self.reports,
                payments_sent=self.payments,
            )
        )

    def begin(self) -> None:
        self._enter(ProtocolPhase.BIDDING)

    def allocated(self, bids: np.ndarray, loads: np.ndarray) -> None:
        values = bids.tolist()
        for name, bid in zip(self.names, values):
            self.store.append_bid(name, bid)
        self.bids = dict(zip(self.names, values))
        self.loads = loads.tolist()
        self._enter(ProtocolPhase.EXECUTING)

    def reported(self, counts: np.ndarray, mean_sojourns: np.ndarray) -> None:
        reports = list(zip(counts.tolist(), mean_sojourns.tolist()))
        for name, (jobs, mean_sojourn) in zip(self.names, reports):
            self.store.append_report(name, jobs, mean_sojourn)
        self.reports = dict(zip(self.names, reports))
        self._enter(ProtocolPhase.VERIFYING)

    def paid(self, payments) -> None:
        block = np.column_stack(
            (payments.payment, payments.compensation, payments.bonus)
        )
        self.store.append_payments(self.names, block)
        self.payments = dict(zip(self.names, map(tuple, block.tolist())))
        self._enter(ProtocolPhase.DONE)


class _SupervisedNode:
    """Per-round wrapper: applies injected faults, counts payment notices."""

    def __init__(self, inner: MachineNode, fault=None) -> None:
        self.inner = inner
        self.fault = fault
        self.payment_notices = 0
        self._bid_requests_ignored = 0
        self._report_requests_ignored = 0

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def machine(self) -> LinearLatencyMachine:
        return self.inner.machine

    def _crashed(self, point: str) -> bool:
        return (
            self.fault is not None
            and self.fault.kind == "crash"
            and self.fault.point == point
        )

    def handle(self, message: Message, sim: Simulator) -> None:
        if isinstance(message, PaymentNotice):
            self.payment_notices += 1  # counted even if the node is dead
        if self._crashed("immediately"):
            return
        if (
            isinstance(message, BidRequest)
            and self.fault is not None
            and self.fault.kind == "withhold_bid"
            and self._bid_requests_ignored < self.fault.count
        ):
            self._bid_requests_ignored += 1
            return
        self.inner.handle(message, sim)

    def report_completion(self) -> None:
        if self._crashed("immediately") or self._crashed("after_bid"):
            return
        if (
            self.fault is not None
            and self.fault.kind == "withhold_report"
            and self._report_requests_ignored < self.fault.count
        ):
            self._report_requests_ignored += 1
            return
        self.inner.report_completion()


class RoundSupervisor:
    """Drive the verification mechanism as a supervised multi-round loop.

    Parameters
    ----------
    agents:
        The strategic machine owners, one per machine; machine ``k`` is
        named ``C{k+1}`` unless ``machine_names`` overrides it.
    arrival_rate:
        Total job rate ``R`` allocated every round.
    mechanism:
        Payment rule; defaults to the paper's
        :class:`~repro.mechanism.VerificationMechanism`.
    quarantine:
        Circuit-breaker policy (see
        :class:`~repro.resilience.QuarantinePolicy`).
    backoff:
        Retry pacing for missed bids/reports.
    max_bid_attempts / max_report_attempts:
        Retry budget per phase before a machine is excluded/withheld.
    duration:
        Job-generation window per round (simulated seconds).
    detector_threshold / detector_slack:
        CUSUM parameters for the per-machine slowdown detectors.
    deterministic_service:
        Run machines with noise-free service times (default), making
        execution-value estimates exact and the mechanism invariants
        sharp; set ``False`` for stochastic service.
    rng:
        Randomness source for workloads, retries, and service noise.
    execution:
        Job execution engine per round, as in
        :func:`~repro.protocol.run_protocol`: ``"event"``,
        ``"batched"``, or ``"auto"`` (default; resolves to the batched
        engine — bit-identical under deterministic service).
    remediation:
        Optional :class:`~repro.remediation.RemediationPipeline`.  When
        set, every completed round is fed through the closed-loop
        detect → propose → shadow-verify → schedule pipeline, whose
        applied actions adjust this supervisor (quarantine state, bid
        overrides, detector calibration, skipped rounds) before the
        next round runs.  The pipeline sees every round's result
        whichever path ran it; its shadow dry runs are clean rounds of
        a forked supervisor, so they take the direct path.
    shards / shard_executor:
        With ``shards > 1``, clean rounds (no injected faults, no
        message drops, no coordinator crash) run through the sharded
        coordinator service
        (:class:`~repro.distributed.ShardedCoordinatorService`) in
        exact-aggregation mode: the admitted machines are partitioned
        over that many coordinator workers and the round is
        bit-identical to the monolithic path on the same seed (the
        parity suite pins this).  Faulted rounds fall back to the
        monolithic message-driven path, which the chaos machinery
        instruments.  ``shard_executor`` picks the stage executor
        (``"serial"``, ``"async"``, or ``"process"``; bit-parity under
        stochastic service requires ``"serial"``).
    arrival_schedule:
        Optional nonstationary arrival process
        (:class:`~repro.system.workload.ArrivalSchedule`).  When set,
        round ``k`` draws its jobs by thinning over the absolute window
        ``[k*duration, (k+1)*duration)`` and the allocator/mechanism see
        the window's equivalent constant rate ``∫R/duration`` instead
        of the fixed ``arrival_rate`` (which then only seeds the
        attribute).  Clean rounds stay on the monolithic or fused path
        — the sharded fast path assumes a stationary rate and is
        skipped while a schedule is active.
    horizon:
        When true, :meth:`run` drives the horizon engine
        (:func:`repro.protocol.horizon.run_horizon`), which only
        changes how clean rounds are *priced*: every clean round runs
        the same Phase A as a direct :meth:`run_round`, and maximal runs
        of them (with no remediation pipeline attached) have their
        pricing stacked into one broadcast per segment.  Every other
        round goes to :meth:`run_round`.  Results are bit-identical to
        the sequential loop on the same seed.

    Every clean round of :meth:`run_round` takes the direct path
    (Phase A plus one priced row; counted by
    ``supervisor.direct_rounds``).  Rounds with drops, machine faults,
    a coordinator crash, or on the event engine run the
    :class:`SupervisedCoordinator` over the discrete-event simulator
    (``supervisor.message_rounds``).
    """

    def __init__(
        self,
        agents: Sequence[Agent],
        arrival_rate: float,
        *,
        mechanism: Mechanism | None = None,
        quarantine: QuarantinePolicy | None = None,
        backoff: BackoffPolicy | None = None,
        max_bid_attempts: int = 3,
        max_report_attempts: int = 2,
        duration: float = 40.0,
        detector_threshold: float = 15.0,
        detector_slack: float = 0.25,
        deterministic_service: bool = True,
        rng: np.random.Generator | None = None,
        machine_names: Sequence[str] | None = None,
        execution: str = "auto",
        remediation: "RemediationPipeline | None" = None,
        shards: int = 1,
        shard_executor: str = "serial",
        arrival_schedule: "ArrivalSchedule | None" = None,
        horizon: bool = False,
    ) -> None:
        if len(agents) < 2:
            raise ValueError("the supervisor needs at least two machines")
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if machine_names is None:
            machine_names = [f"C{i + 1}" for i in range(len(agents))]
        if len(machine_names) != len(agents):
            raise ValueError("machine_names must match agents in length")
        if max_bid_attempts < 0 or max_report_attempts < 0:
            raise ValueError("retry budgets must be non-negative")
        self.agents: dict[str, Agent] = dict(zip(machine_names, agents))
        self.arrival_rate = check_positive_scalar(arrival_rate, "arrival_rate")
        self.mechanism = mechanism if mechanism is not None else VerificationMechanism()
        self.quarantine = quarantine if quarantine is not None else QuarantinePolicy()
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.max_bid_attempts = int(max_bid_attempts)
        self.max_report_attempts = int(max_report_attempts)
        self.duration = check_positive_scalar(duration, "duration")
        self.detector_threshold = check_positive_scalar(
            detector_threshold, "detector_threshold"
        )
        if detector_slack < 0.0:
            raise ValueError("detector_slack must be non-negative")
        self.detector_slack = float(detector_slack)
        self.deterministic_service = bool(deterministic_service)
        self.execution = resolve_execution(execution)
        self.shards = int(shards)
        self.shard_executor = shard_executor
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.arrival_schedule = arrival_schedule
        self.horizon = bool(horizon)
        for name in machine_names:
            self.quarantine.admit(name)
        self._allocator = _IncrementalAllocator()
        self._round_index = 0
        self.remediation = remediation
        #: Remediation-imposed effective declared values (name -> bid);
        #: read by every round, on either path.
        self.bid_overrides: dict[str, float] = {}
        #: Rounds the supervisor will void outright before routing any
        #: jobs — the remediation pipeline's emergency brake.
        self.skip_rounds = 0

    # ------------------------------------------------------------ queries

    @property
    def machine_names(self) -> list[str]:
        """All managed machine names, in registration order."""
        return list(self.agents)

    def honest_names(self) -> set[str]:
        """Machines whose agent bids and executes its true value."""
        return {
            name
            for name, agent in self.agents.items()
            if agent.bid() == agent.true_value
            and agent.execution_value() == agent.true_value
        }

    def round_rate(self, index: int) -> float:
        """The scalar arrival rate round ``index`` is priced at.

        The fixed ``arrival_rate`` without a schedule; with one, the
        window's equivalent constant rate ``∫R / duration`` over
        ``[index*duration, (index+1)*duration)``.
        """
        if self.arrival_schedule is None:
            return self.arrival_rate
        start = index * self.duration
        return float(
            self.arrival_schedule.mean_rate(start, start + self.duration)
        )

    def _generate_times(self, index: int) -> np.ndarray:
        """Round ``index``'s arrival times (relative to the round start).

        The single generation point the message path and Phase A (direct
        and fused rounds) call, so every path consumes the RNG stream
        identically draw for draw.
        """
        if self.arrival_schedule is None:
            workload = PoissonWorkload(self.arrival_rate, self._rng)
            return workload.generate_times(self.duration)
        return self.arrival_schedule.generate_times(
            self._rng, index * self.duration, self.duration
        )

    # ------------------------------------------------------------ rounds

    def run(self, n_rounds: int, fault_plan=None) -> SupervisorReport:
        """Drive ``n_rounds`` rounds, optionally under a fault plan.

        With ``horizon=True`` the rounds run through the horizon engine
        (same results bit for bit, stacking the pricing of clean
        segments); otherwise one :meth:`run_round` per iteration.
        """
        if self.horizon:
            return run_horizon(self, n_rounds, fault_plan)
        if n_rounds < 1:
            raise ValueError("n_rounds must be at least 1")
        report = SupervisorReport()
        for k in range(n_rounds):
            faults = fault_plan[k] if fault_plan is not None else None
            report.rounds.append(self.run_round(faults))
        return report

    def run_round(self, faults: "RoundFaults | None" = None) -> RoundResult:
        """Run one supervised round (optionally with injected faults).

        The round runs inside a ``supervisor.round`` span with
        ``supervisor.{bidding,execution,reporting,detection}`` children,
        and its observables (retries, voids, restarts, jobs routed,
        open quarantines) are recorded into the active instrumentation —
        all no-ops unless :func:`repro.observability.enable` (or the
        ``repro metrics`` command) turned the layer on.
        """
        with trace_span("supervisor.round", index=self._round_index):
            result = self._run_round(faults)
        record_counter("supervisor.rounds")
        if result.voided:
            record_counter("supervisor.rounds_voided")
        if result.bid_retries:
            record_counter("supervisor.bid_retries", result.bid_retries)
        if result.report_retries:
            record_counter("supervisor.report_retries", result.report_retries)
        if result.coordinator_restarts:
            record_counter(
                "supervisor.coordinator_restarts", result.coordinator_restarts
            )
        observe_value("supervisor.jobs_routed", result.jobs_routed)
        record_gauge("resilience.quarantine.open", len(result.quarantined))
        if self.remediation is not None:
            with trace_span("supervisor.remediation", index=result.index):
                self.remediation.process_round(self, result)
        return result

    def _takes_direct_path(self, faults: "RoundFaults | None") -> bool:
        """Whether the next round is clean, so it needs no message path.

        Clean means: no injected fault (``faults`` is ``None`` or
        clean), no pending remediation skip, the monolithic batched
        engine.  Such a round runs
        :func:`~repro.protocol.horizon.phase_a` directly; anything else
        runs the coordinator over the discrete-event simulator.
        """
        if self.shards > 1 or self.skip_rounds > 0 or self.execution != "batched":
            return False
        return faults is None or bool(getattr(faults, "is_clean", False))

    def _run_round_sharded(
        self,
        index: int,
        admitted: list[str],
        probes: list[str],
        quarantined: list[str],
    ) -> RoundResult:
        """Run one clean round through the sharded coordinator service.

        The service is configured for bit-parity with the monolithic
        path: exact aggregation (the root reassembles the canonical
        arrays), global workload (the round consumes the supervisor's
        RNG stream exactly as ``on_allocated`` would), the
        supervisor's allocator, and its remediation overrides and
        CUSUM detector settings forwarded to every shard.
        """
        from repro.distributed.service import ShardedCoordinatorService

        service = ShardedCoordinatorService(
            [self.agents[n] for n in admitted],
            self.arrival_rate,
            shards=min(self.shards, len(admitted)),
            mechanism=self.mechanism,
            duration=self.duration,
            executor=self.shard_executor,
            deterministic_service=self.deterministic_service,
            rng=self._rng,
            machine_names=list(admitted),
            allocator=self._allocator.allocate,
            bid_overrides=dict(self.bid_overrides),
            detector_threshold=self.detector_threshold,
            detector_slack=self.detector_slack,
        )
        try:
            shard_round = service.run_round()
        finally:
            service.close()
        record_counter("supervisor.sharded_rounds")

        outcome = shard_round.outcome
        assert outcome is not None  # exact mode always prices at the root
        names = shard_round.names
        loads = dict(zip(names, outcome.loads.tolist()))
        utilities = dict(zip(names, outcome.payments.utility.tolist()))
        payments = {n: amounts[0] for n, amounts in shard_round.payments.items()}
        alerts = list(shard_round.alerts)
        for name in alerts:
            record_counter("supervisor.slowdown_alerts")
            annotate("slowdown.alert", machine=name)

        self.quarantine.record_outcomes(
            admitted, dict.fromkeys(alerts, "slowdown_alert")
        )

        return RoundResult(
            index=index,
            participants=list(admitted),
            probes=probes,
            quarantined=quarantined,
            excluded=[],
            withheld=[],
            alerts=alerts,
            faulted=[],
            fault_kinds={},
            voided=False,
            outcome=outcome,
            loads=loads,
            payments=payments,
            utilities=utilities,
            payment_notices=dict(shard_round.payment_notices),
            bid_retries=0,
            report_retries=0,
            coordinator_restarts=shard_round.shard_restarts,
            arrival_rate=self.arrival_rate,
            jobs_routed=shard_round.jobs_routed,
        )

    def _run_round(self, faults: "RoundFaults | None") -> RoundResult:
        """The round body :meth:`run_round` wraps with instrumentation."""
        index = self._round_index
        self._round_index += 1
        rate = self.round_rate(index)

        admitted = self.quarantine.begin_round()
        probes = self.quarantine.probes()
        quarantined = self.quarantine.quarantined()
        machine_faults = dict(getattr(faults, "machine_faults", {}) or {})
        machine_faults = {
            n: f for n, f in machine_faults.items() if n in admitted
        }
        drop = float(getattr(faults, "drop_probability", 0.0) or 0.0)
        coordinator_crash = getattr(faults, "coordinator_crash", None)
        crash_after_payments = int(getattr(faults, "crash_after_payments", 1))

        def void_result(excluded: list[str], **kwargs) -> RoundResult:
            return RoundResult.voided_round(
                index, rate, admitted, probes, quarantined, excluded,
                machine_faults=machine_faults, **kwargs,
            )

        if self.skip_rounds > 0:
            # A remediation action voided this round pre-emptively: no
            # jobs are routed and nobody is paid while the operators
            # (or the pipeline itself) re-establish a safe state.
            self.skip_rounds -= 1
            record_counter("supervisor.rounds_skipped")
            return void_result(excluded=[])

        if len(admitted) < 2:
            # Too few live machines to price a round; degrade by skipping.
            return void_result(excluded=list(admitted))

        if (
            self.shards > 1
            and not machine_faults
            and drop == 0.0
            and coordinator_crash is None
            and self.arrival_schedule is None
        ):
            # Clean rounds shard; faulted rounds need the message-driven
            # path (drops, crashes, and probes live in the network
            # machinery the chaos harness instruments).
            return self._run_round_sharded(index, admitted, probes, quarantined)

        if self._takes_direct_path(faults):
            record_counter("supervisor.direct_rounds")
            wal = _RoundLog(CheckpointStore(), admitted, rate)
            return round_result(
                phase_a(self, index, rate, admitted, probes, quarantined, wal)
            )
        record_counter("supervisor.message_rounds")

        # ---------------------------------------------------------- wiring
        sim = Simulator()
        if drop > 0.0:
            network = ReliableNetwork(sim, drop, self._rng)
        else:
            network = SimulatedNetwork(sim)

        sampler = (
            (lambda mean, _rng: mean) if self.deterministic_service else None
        )
        batch_sampler = (
            (lambda mean, size, _rng: np.full(size, mean))
            if self.deterministic_service
            else None
        )
        nodes: dict[str, _SupervisedNode] = {}
        for name in admitted:
            agent = self.agents[name]
            execution_value = agent.execution_value()
            fault = machine_faults.get(name)
            if fault is not None and fault.kind == "slow_execution":
                execution_value *= fault.slowdown
            machine = LinearLatencyMachine(
                name,
                execution_value,
                self._rng,
                service_sampler=sampler,
                batch_service_sampler=batch_sampler,
            )
            node = _SupervisedNode(
                MachineNode(name=name, agent=agent, machine=machine, network=network),
                fault=fault,
            )
            network.register(name, node.handle)
            nodes[name] = node

        jobs_routed = 0
        current: dict[str, SupervisedCoordinator] = {}

        def on_allocated(loads: np.ndarray) -> None:
            nonlocal jobs_routed
            names = current["coordinator"].machine_names
            for name, load in zip(names, loads):
                nodes[name].machine.configure(float(load))
            start = sim.now
            times = self._generate_times(index)
            if self.execution == "batched":
                assignments = split_assignments(
                    int(times.size), loads / loads.sum(), self._rng
                )
                jobs_routed = dispatch_batched(
                    sim,
                    [nodes[name].machine for name in names],
                    start + times,
                    assignments,
                )
                return
            jobs = [
                Job(job_id=i, arrival_time=float(t))
                for i, t in enumerate(times)
            ]
            jobs_routed = len(jobs)
            buckets = split_workload(jobs, loads / loads.sum(), self._rng)
            for name, bucket in zip(names, buckets):
                node = nodes[name]
                for job in bucket:
                    sim.schedule_at(
                        start + job.arrival_time,
                        lambda s, n=node, j=job: n.machine.submit(s, j),
                    )

        store = CheckpointStore()
        coordinator = SupervisedCoordinator(
            mechanism=self.mechanism,
            machine_names=list(admitted),
            arrival_rate=rate,
            network=network,
            on_allocated=on_allocated,
            allocator=self._allocator.allocate,
            checkpoint_store=store,
            bid_overrides=dict(self.bid_overrides),
        )
        if coordinator_crash == "mid_payment":
            coordinator.fail_after_payments = crash_after_payments
        current["coordinator"] = coordinator
        network.register(
            COORDINATOR_NAME,
            lambda message, s: current["coordinator"].handle(message, s),
        )
        restarts = 0

        def restart_coordinator() -> None:
            nonlocal restarts
            checkpoint = store.load()
            assert checkpoint is not None, "no checkpoint to restore from"
            restored = SupervisedCoordinator.restore(
                checkpoint,
                mechanism=self.mechanism,
                network=network,
                on_allocated=on_allocated,
                checkpoint_store=store,
                allocator=self._allocator.allocate,
            )
            current["coordinator"] = restored
            restarts += 1
            record_counter("resilience.coordinator.restarts")
            annotate(
                "coordinator.restarted", phase=ProtocolPhase(checkpoint.phase).value
            )
            restored.resume()

        # --------------------------------------------------------- bidding
        with trace_span("supervisor.bidding"):
            coordinator.start()
            sim.run()
            if coordinator_crash == "during_bidding":
                # The process dies while bids are still arriving; the
                # replacement finds no announced allocation and voids.
                restart_coordinator()
            bid_retries = 0
            attempt = 0
            while (
                current["coordinator"].phase is ProtocolPhase.BIDDING
                and attempt < self.max_bid_attempts
            ):
                missing = current["coordinator"].pending_bidders
                delay = self.backoff.delay(attempt, self._rng)
                for name in missing:
                    sim.schedule(
                        delay,
                        lambda s, n=name: network.send(
                            BidRequest(sender=COORDINATOR_NAME, receiver=n)
                        ),
                    )
                bid_retries += len(missing)
                attempt += 1
                sim.run()
            current["coordinator"].close_bidding(void_if_empty=True)

        if current["coordinator"].phase is ProtocolPhase.VOIDED:
            if coordinator_crash != "during_bidding":
                # Machines that never bid caused the void; hold them
                # accountable (a coordinator-crash void blames nobody).
                for name in current["coordinator"].pending_bidders:
                    self.quarantine.record_failure(name, "missed_bid")
            return void_result(
                excluded=list(current["coordinator"].excluded),
                payment_notices={n: nodes[n].payment_notices for n in nodes},
                bid_retries=bid_retries,
                restarts=restarts,
            )

        # ------------------------------------------------------- execution
        with trace_span("supervisor.execution"):
            sim.run()  # drain every routed job to completion
            if coordinator_crash == "after_allocation":
                restart_coordinator()  # resumes in EXECUTING from the checkpoint

        # ------------------------------------------------------- reporting
        report_retries = 0
        with trace_span("supervisor.reporting"):
            try:
                for name in list(current["coordinator"].machine_names):
                    nodes[name].report_completion()
                sim.run()
                attempt = 0
                while (
                    current["coordinator"].phase is ProtocolPhase.EXECUTING
                    and attempt < self.max_report_attempts
                ):
                    missing = current["coordinator"].pending_reporters
                    delay = self.backoff.delay(attempt, self._rng)
                    for name in missing:
                        sim.schedule(
                            delay, lambda s, n=name: nodes[n].report_completion()
                        )
                    report_retries += len(missing)
                    attempt += 1
                    sim.run()
                current["coordinator"].close_reporting()
            except CoordinatorCrash:
                restart_coordinator()  # re-derives the outcome, pays the rest
            sim.run()  # deliver the remaining payment notices

        coordinator = current["coordinator"]
        assert coordinator.phase is ProtocolPhase.DONE
        assert coordinator.outcome is not None
        outcome = coordinator.outcome

        names = coordinator.machine_names
        loads = dict(zip(names, outcome.loads.tolist()))
        utilities = dict(zip(names, outcome.payments.utility.tolist()))
        payments = {n: amounts[0] for n, amounts in coordinator.payments_sent.items()}

        # ------------------------------------------------- online detection
        alerts: list[str] = []
        withheld = set(coordinator.withheld)
        declared = dict(zip(names, outcome.allocation.bids))
        with trace_span("supervisor.detection"):
            for name in names:
                if name in withheld or loads[name] <= 0.0:
                    continue
                sojourns = nodes[name].machine.sojourn_times
                if not sojourns:
                    continue
                detector = CusumSlowdownDetector(
                    float(declared[name]),
                    loads[name],
                    threshold=self.detector_threshold,
                    slack=self.detector_slack,
                )
                if detector.observe_many(np.asarray(sojourns)) is not None:
                    alerts.append(name)
                    record_counter("supervisor.slowdown_alerts")
                    annotate("slowdown.alert", machine=name)

        # ------------------------------------------------------ quarantine
        # Later updates win: a missed bid outranks a missed report,
        # which outranks an alert.
        failures = dict.fromkeys(alerts, "slowdown_alert")
        failures.update(dict.fromkeys(withheld, "missed_report"))
        failures.update(dict.fromkeys(coordinator.excluded, "missed_bid"))
        self.quarantine.record_outcomes(admitted, failures)

        return RoundResult(
            index=index,
            participants=list(admitted),
            probes=probes,
            quarantined=quarantined,
            excluded=list(coordinator.excluded),
            withheld=sorted(withheld),
            alerts=alerts,
            faulted=sorted(machine_faults),
            fault_kinds={n: f.kind for n, f in machine_faults.items()},
            voided=False,
            outcome=outcome,
            loads=loads,
            payments=payments,
            utilities=utilities,
            payment_notices={n: nodes[n].payment_notices for n in nodes},
            bid_retries=bid_retries,
            report_retries=report_retries,
            coordinator_restarts=restarts,
            arrival_rate=rate,
            jobs_routed=jobs_routed,
        )

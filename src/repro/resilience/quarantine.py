"""Per-machine circuit breaker with reputation-gated re-admission.

A machine that keeps failing rounds — missing bid/report deadlines
after retries, or tripping the CUSUM slowdown detector — should stop
receiving load: every failed round wastes the jobs routed to it and
(for slowdowns) inflates the realised latency everyone's bonus is paid
against.  The classic pattern is a circuit breaker:

* **closed** — the machine participates normally; consecutive failures
  are counted and ``failure_threshold`` of them open the circuit;
* **open** — the machine is quarantined: it is excluded from rounds for
  ``cooldown_rounds`` rounds (doubling after each re-trip, up to
  ``max_cooldown_rounds``) and its load is reallocated to the others;
* **half-open** — after the cooldown the machine is offered a *probe*
  round; ``probe_successes_required`` consecutive clean probes close
  the circuit again, a single failed probe re-opens it with a doubled
  cooldown.

Re-admission is additionally gated by a **reputation score**: an
exponential moving average of round outcomes in [0, 1].  A machine
whose probes succeed but whose long-run record is still poor keeps
probing until its reputation clears ``readmission_reputation`` — this
stops a periodically-flapping machine from oscillating between closed
and open at the probe cadence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.observability.instrumentation import annotate, record_counter

__all__ = ["CircuitState", "MachineHealth", "QuarantinePolicy"]


class CircuitState(enum.Enum):
    """Circuit-breaker state of one machine."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass
class MachineHealth:
    """Mutable health record the policy keeps per machine."""

    state: CircuitState = CircuitState.CLOSED
    reputation: float = 1.0
    consecutive_failures: int = 0
    consecutive_probe_successes: int = 0
    cooldown_remaining: int = 0
    current_cooldown: int = 0
    rounds_participated: int = 0
    failures_total: int = 0
    times_opened: int = 0
    last_failure_reason: str | None = None


class QuarantinePolicy:
    """Closed → open → half-open quarantine over a set of machines.

    Drive it once per round: :meth:`begin_round` advances cooldowns and
    returns who may participate, then :meth:`record_outcomes` (or
    :meth:`record_success` / :meth:`record_failure` per machine)
    reports each participant's outcome.

    The policy indexes the machines whose circuit is not closed, so
    :meth:`begin_round`, :meth:`probes` and :meth:`quarantined` visit
    only those; a wide fleet with a handful of quarantined machines
    pays per change, not per machine.  The index follows every state
    transition made through this class's methods — change a circuit's
    state through them, never by assigning ``health_of(name).state``.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures that open a closed circuit.
    cooldown_rounds:
        Initial quarantine length (in rounds); doubles on re-trip.
    max_cooldown_rounds:
        Cap on the doubling cooldown.
    probe_successes_required:
        Consecutive clean half-open probes needed to close the circuit.
    readmission_reputation:
        Minimum reputation score for half-open → closed; probes keep
        running (and raising the score) until it is met.
    reputation_alpha:
        EMA weight of the newest round outcome in the reputation score.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 2,
        cooldown_rounds: int = 2,
        max_cooldown_rounds: int = 16,
        probe_successes_required: int = 2,
        readmission_reputation: float = 0.6,
        reputation_alpha: float = 0.35,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if cooldown_rounds < 1:
            raise ValueError("cooldown_rounds must be at least 1")
        if max_cooldown_rounds < cooldown_rounds:
            raise ValueError("max_cooldown_rounds must be >= cooldown_rounds")
        if probe_successes_required < 1:
            raise ValueError("probe_successes_required must be at least 1")
        if not 0.0 <= readmission_reputation <= 1.0:
            raise ValueError("readmission_reputation must be in [0, 1]")
        if not 0.0 < reputation_alpha <= 1.0:
            raise ValueError("reputation_alpha must be in (0, 1]")
        self.failure_threshold = int(failure_threshold)
        self.cooldown_rounds = int(cooldown_rounds)
        self.max_cooldown_rounds = int(max_cooldown_rounds)
        self.probe_successes_required = int(probe_successes_required)
        self.readmission_reputation = float(readmission_reputation)
        self.reputation_alpha = float(reputation_alpha)
        self._machines: dict[str, MachineHealth] = {}
        # Admission position of every machine, and the machines whose
        # circuit is not CLOSED (the only ones a round has to visit).
        self._position: dict[str, int] = {}
        self._unsettled: set[str] = set()

    # ------------------------------------------------------------ wiring

    def admit(self, name: str) -> None:
        """Start tracking a machine (idempotent)."""
        if name not in self._machines:
            self._position[name] = len(self._machines)
            self._machines[name] = MachineHealth()

    def health_of(self, name: str) -> MachineHealth:
        """The mutable health record of one machine."""
        return self._machines[name]

    def state_of(self, name: str) -> CircuitState:
        """Current circuit state of one machine."""
        return self._machines[name].state

    def reputation_of(self, name: str) -> float:
        """Current reputation score of one machine."""
        return self._machines[name].reputation

    @property
    def machine_names(self) -> list[str]:
        """All tracked machines, in admission order."""
        return list(self._machines)

    # ------------------------------------------------------------ rounds

    def begin_round(self) -> list[str]:
        """Advance cooldowns; return the machines admitted to this round.

        Open machines whose cooldown has elapsed transition to
        half-open and are admitted as probes; the rest of the admitted
        set is every closed machine, all in admission order.
        """
        still_open: list[str] = []
        for name in self._unsettled_in_order():
            health = self._machines[name]
            if health.state is CircuitState.OPEN:
                health.cooldown_remaining -= 1
                if health.cooldown_remaining <= 0:
                    health.state = CircuitState.HALF_OPEN
                    health.consecutive_probe_successes = 0
                    record_counter("resilience.quarantine.probes")
                    annotate("quarantine.probe", machine=name)
                else:
                    still_open.append(name)
        admitted = list(self._machines)
        for name in reversed(still_open):  # highest position first
            del admitted[self._position[name]]
        return admitted

    def probes(self) -> list[str]:
        """Machines currently in the half-open (probe) state."""
        return self._unsettled_in_state(CircuitState.HALF_OPEN)

    def quarantined(self) -> list[str]:
        """Machines currently in the open (quarantined) state."""
        return self._unsettled_in_state(CircuitState.OPEN)

    # ------------------------------------------------------------ outcomes

    def record_outcomes(
        self, participants: Iterable[str], failures: Mapping[str, str]
    ) -> None:
        """Report one round: ``failures`` maps a participant to its reason.

        Every participant not in ``failures`` had a clean round.  The
        result — every health record, and every counter and annotation
        in the same order — is that of calling :meth:`record_failure` or
        :meth:`record_success` for each participant in turn.  A closed
        machine's clean round emits nothing, so it is applied inline;
        failures and non-closed machines go through the per-machine
        methods, in participant order.
        """
        unsettled = self._unsettled
        machines = self._machines
        alpha = self.reputation_alpha
        eventful: list[str] = []
        for name in participants:
            if name in failures or name in unsettled:
                eventful.append(name)
                continue
            health = machines[name]
            health.rounds_participated += 1
            health.consecutive_failures = 0
            health.reputation += alpha * (1.0 - health.reputation)
        for name in eventful:
            if name in failures:
                self.record_failure(name, failures[name])
            else:
                self.record_success(name)

    def record_success(self, name: str) -> None:
        """A clean round for ``name``: no alert, no missed deadline."""
        health = self._machines[name]
        health.rounds_participated += 1
        health.consecutive_failures = 0
        self._update_reputation(health, 1.0)
        if health.state is CircuitState.HALF_OPEN:
            health.consecutive_probe_successes += 1
            if (
                health.consecutive_probe_successes
                >= self.probe_successes_required
                and health.reputation >= self.readmission_reputation
            ):
                health.state = CircuitState.CLOSED
                health.current_cooldown = 0
                self._unsettled.discard(name)
                record_counter("resilience.quarantine.closed")
                annotate("quarantine.closed", machine=name)

    def record_failure(self, name: str, reason: str) -> None:
        """A failed round for ``name`` (missed deadline, CUSUM alert, ...)."""
        health = self._machines[name]
        health.rounds_participated += 1
        health.failures_total += 1
        health.consecutive_failures += 1
        health.last_failure_reason = reason
        self._update_reputation(health, 0.0)
        if health.state is CircuitState.HALF_OPEN:
            self._open(name, health)  # one failed probe re-opens immediately
        elif (
            health.state is CircuitState.CLOSED
            and health.consecutive_failures >= self.failure_threshold
        ):
            self._open(name, health)

    # ------------------------------------------------------ remediation

    def force_open(self, name: str, reason: str = "remediation") -> None:
        """Quarantine ``name`` immediately, bypassing the failure count.

        The remediation pipeline uses this to act on a *single* strong
        signal (a CUSUM alert, an unverifiable round) without waiting
        for ``failure_threshold`` consecutive failures.  Cooldown
        book-keeping (doubling, cap) is identical to an organic trip,
        so back-off behaviour stays monotone.
        """
        health = self._machines[name]
        if health.state is CircuitState.OPEN:
            return
        health.last_failure_reason = reason
        self._open(name, health)

    def force_probe(self, name: str) -> None:
        """Early re-admission: skip the remaining cooldown of ``name``.

        The machine transitions straight to half-open and is offered a
        probe at the next :meth:`begin_round`.  Probe bookkeeping is
        untouched: a failed probe still re-opens with a doubled
        cooldown, so an unwarranted early readmit self-corrects.
        """
        health = self._machines[name]
        if health.state is not CircuitState.OPEN:
            return
        health.state = CircuitState.HALF_OPEN
        health.cooldown_remaining = 0
        health.consecutive_probe_successes = 0
        record_counter("resilience.quarantine.forced_probes")
        annotate("quarantine.forced_probe", machine=name)

    def reset(self, name: str) -> None:
        """Forgive ``name``: close its circuit and clear the streaks.

        Used when failures are attributed to an external cause (e.g. a
        lossy-network round) rather than the machine itself.  The
        reputation score is deliberately *not* reset — forgiveness
        clears the circuit, not the record.
        """
        health = self._machines[name]
        health.state = CircuitState.CLOSED
        health.consecutive_failures = 0
        health.consecutive_probe_successes = 0
        health.cooldown_remaining = 0
        health.current_cooldown = 0
        self._unsettled.discard(name)
        record_counter("resilience.quarantine.resets")
        annotate("quarantine.reset", machine=name)

    def snapshot_health(self, name: str) -> MachineHealth:
        """An independent copy of one machine's health (for undo logs)."""
        health = self._machines[name]
        return MachineHealth(**vars(health))

    def restore_health(self, name: str, saved: MachineHealth) -> None:
        """Restore a health record captured by :meth:`snapshot_health`."""
        self._position.setdefault(name, len(self._machines))
        self._machines[name] = MachineHealth(**vars(saved))
        if saved.state is CircuitState.CLOSED:
            self._unsettled.discard(name)
        else:
            self._unsettled.add(name)

    # ------------------------------------------------------------ internals

    def _unsettled_in_order(self) -> list[str]:
        return sorted(self._unsettled, key=self._position.__getitem__)

    def _unsettled_in_state(self, state: CircuitState) -> list[str]:
        return [
            n for n in self._unsettled_in_order()
            if self._machines[n].state is state
        ]

    def _open(self, name: str, health: MachineHealth) -> None:
        health.state = CircuitState.OPEN
        self._unsettled.add(name)
        health.times_opened += 1
        record_counter(
            "resilience.quarantine.opened",
            reason=health.last_failure_reason or "unknown",
        )
        annotate(
            "quarantine.opened",
            machine=name,
            reason=health.last_failure_reason or "unknown",
        )
        health.consecutive_probe_successes = 0
        if health.current_cooldown == 0:
            health.current_cooldown = self.cooldown_rounds
        else:
            health.current_cooldown = min(
                health.current_cooldown * 2, self.max_cooldown_rounds
            )
        health.cooldown_remaining = health.current_cooldown

    def _update_reputation(self, health: MachineHealth, outcome: float) -> None:
        health.reputation += self.reputation_alpha * (outcome - health.reputation)

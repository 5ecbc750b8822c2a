"""The indexed QuarantinePolicy against a scanning oracle (hypothesis).

:class:`QuarantinePolicy` keeps an index of the machines whose circuit
is not closed, so a round visits only those, and reports a whole round
through one :meth:`~QuarantinePolicy.record_outcomes` call.  The oracle
below is the policy as it was before the index: every round method
scans every machine, and a round's outcomes are one
``record_success`` / ``record_failure`` call per participant.  Random
operation sequences drive both side by side; after every step the
admitted lists, ``probes()``, ``quarantined()``, every
:class:`MachineHealth` field and the counters and annotations emitted
so far (in order) must be identical.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience.quarantine import CircuitState, MachineHealth, QuarantinePolicy

POOL = [f"m{i}" for i in range(7)]
REASONS = ("missed_bid", "missed_report", "slowdown_alert")


class ScanningQuarantine:
    """The pre-index policy: every round method scans every machine."""

    def __init__(self, events: list, **params) -> None:
        self._events = events
        self.failure_threshold = params["failure_threshold"]
        self.cooldown_rounds = params["cooldown_rounds"]
        self.max_cooldown_rounds = params["max_cooldown_rounds"]
        self.probe_successes_required = params["probe_successes_required"]
        self.readmission_reputation = params["readmission_reputation"]
        self.reputation_alpha = params["reputation_alpha"]
        self._machines: dict[str, MachineHealth] = {}

    def _counter(self, name: str, **labels) -> None:
        self._events.append(("counter", name, sorted(labels.items())))

    def _annotate(self, message: str, **attrs) -> None:
        self._events.append(("annotate", message, sorted(attrs.items())))

    def admit(self, name):
        self._machines.setdefault(name, MachineHealth())

    def health_of(self, name):
        return self._machines[name]

    @property
    def machine_names(self):
        return list(self._machines)

    def begin_round(self):
        admitted = []
        for name, health in self._machines.items():
            if health.state is CircuitState.OPEN:
                health.cooldown_remaining -= 1
                if health.cooldown_remaining <= 0:
                    health.state = CircuitState.HALF_OPEN
                    health.consecutive_probe_successes = 0
                    self._counter("resilience.quarantine.probes")
                    self._annotate("quarantine.probe", machine=name)
            if health.state is not CircuitState.OPEN:
                admitted.append(name)
        return admitted

    def probes(self):
        return [
            n for n, h in self._machines.items()
            if h.state is CircuitState.HALF_OPEN
        ]

    def quarantined(self):
        return [
            n for n, h in self._machines.items() if h.state is CircuitState.OPEN
        ]

    def record_outcomes(self, participants, failures):
        for name in participants:
            if name in failures:
                self.record_failure(name, failures[name])
            else:
                self.record_success(name)

    def record_success(self, name):
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
                self._counter("resilience.quarantine.closed")
                self._annotate("quarantine.closed", machine=name)

    def record_failure(self, name, reason):
        health = self._machines[name]
        health.rounds_participated += 1
        health.failures_total += 1
        health.consecutive_failures += 1
        health.last_failure_reason = reason
        self._update_reputation(health, 0.0)
        if health.state is CircuitState.HALF_OPEN:
            self._open(name, health)
        elif (
            health.state is CircuitState.CLOSED
            and health.consecutive_failures >= self.failure_threshold
        ):
            self._open(name, health)

    def force_open(self, name, reason="remediation"):
        health = self._machines[name]
        if health.state is CircuitState.OPEN:
            return
        health.last_failure_reason = reason
        self._open(name, health)

    def force_probe(self, name):
        health = self._machines[name]
        if health.state is not CircuitState.OPEN:
            return
        health.state = CircuitState.HALF_OPEN
        health.cooldown_remaining = 0
        health.consecutive_probe_successes = 0
        self._counter("resilience.quarantine.forced_probes")
        self._annotate("quarantine.forced_probe", machine=name)

    def reset(self, name):
        health = self._machines[name]
        health.state = CircuitState.CLOSED
        health.consecutive_failures = 0
        health.consecutive_probe_successes = 0
        health.cooldown_remaining = 0
        health.current_cooldown = 0
        self._counter("resilience.quarantine.resets")
        self._annotate("quarantine.reset", machine=name)

    def snapshot_health(self, name):
        return MachineHealth(**vars(self._machines[name]))

    def restore_health(self, name, saved):
        self._machines[name] = MachineHealth(**vars(saved))

    def _open(self, name, health):
        health.state = CircuitState.OPEN
        health.times_opened += 1
        self._counter(
            "resilience.quarantine.opened",
            reason=health.last_failure_reason or "unknown",
        )
        self._annotate(
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

    def _update_reputation(self, health, outcome):
        health.reputation += self.reputation_alpha * (outcome - health.reputation)


params = st.fixed_dictionaries({
    "failure_threshold": st.integers(1, 3),
    "cooldown_rounds": st.integers(1, 3),
    "max_cooldown_rounds": st.integers(3, 8),
    "probe_successes_required": st.integers(1, 3),
    "readmission_reputation": st.sampled_from([0.0, 0.3, 0.6, 0.9]),
    "reputation_alpha": st.sampled_from([0.35, 0.5, 1.0]),
})

OPS = (
    "admit", "begin_round", "success", "failure", "bulk", "bulk_admitted",
    "force_open", "force_probe", "reset", "snapshot", "restore",
)


def _assert_same(policy: QuarantinePolicy, oracle: ScanningQuarantine,
                 events: list, oracle_events: list) -> None:
    assert policy.machine_names == oracle.machine_names
    assert policy.probes() == oracle.probes()
    assert policy.quarantined() == oracle.quarantined()
    for name in oracle.machine_names:
        assert vars(policy.health_of(name)) == vars(oracle.health_of(name))
    assert events == oracle_events


@given(params=params, data=st.data())
@settings(max_examples=200, deadline=None)
def test_indexed_policy_matches_the_scanning_oracle(params, data):
    events: list = []
    oracle_events: list = []

    def counter(name, amount=1.0, **labels):
        events.append(("counter", name, sorted(labels.items())))

    def note(message, **attrs):
        events.append(("annotate", message, sorted(attrs.items())))

    policy = QuarantinePolicy(**params)
    oracle = ScanningQuarantine(oracle_events, **params)
    saved: dict[str, tuple[MachineHealth, MachineHealth]] = {}
    admitted: list[str] = []
    with mock.patch("repro.resilience.quarantine.record_counter", counter), \
            mock.patch("repro.resilience.quarantine.annotate", note):
        for name in POOL[:3]:
            policy.admit(name)
            oracle.admit(name)
        for _ in range(data.draw(st.integers(1, 60), label="steps")):
            tracked = oracle.machine_names
            op = data.draw(st.sampled_from(OPS), label="op")
            name = data.draw(st.sampled_from(tracked), label="name")
            if op == "admit":
                new = data.draw(st.sampled_from(POOL), label="admitted name")
                policy.admit(new)
                oracle.admit(new)
            elif op == "begin_round":
                admitted = oracle.begin_round()
                assert policy.begin_round() == admitted
            elif op == "success":
                policy.record_success(name)
                oracle.record_success(name)
            elif op == "failure":
                reason = data.draw(st.sampled_from(REASONS), label="reason")
                policy.record_failure(name, reason)
                oracle.record_failure(name, reason)
            elif op in ("bulk", "bulk_admitted"):
                if op == "bulk_admitted":
                    participants = list(admitted)
                else:
                    participants = data.draw(
                        st.lists(st.sampled_from(tracked), max_size=10),
                        label="participants",
                    )
                failing = data.draw(
                    st.lists(st.sampled_from(participants or tracked)),
                    label="failing",
                ) if participants else []
                failures = {
                    n: data.draw(st.sampled_from(REASONS), label="reason")
                    for n in failing
                }
                policy.record_outcomes(participants, failures)
                oracle.record_outcomes(participants, failures)
            elif op == "force_open":
                policy.force_open(name, "remediation")
                oracle.force_open(name, "remediation")
            elif op == "force_probe":
                policy.force_probe(name)
                oracle.force_probe(name)
            elif op == "reset":
                policy.reset(name)
                oracle.reset(name)
            elif op == "snapshot":
                saved[name] = (
                    policy.snapshot_health(name), oracle.snapshot_health(name)
                )
            elif op == "restore" and saved:
                source = data.draw(st.sampled_from(sorted(saved)), label="saved")
                target = data.draw(st.sampled_from(POOL), label="target")
                mine, theirs = saved[source]
                policy.restore_health(target, mine)
                oracle.restore_health(target, theirs)
            _assert_same(policy, oracle, events, oracle_events)

"""Clean rounds: the direct path against the message path, bit for bit.

A clean supervised round runs horizon Phase A plus one priced row
instead of the coordinator over the discrete-event simulator.  Forcing
the message path (``_takes_direct_path`` answering ``False``) on a twin
supervisor gives the reference: every ``RoundResult`` field, the
quarantine state after the round, and the round's final
``CheckpointStore.load()`` must agree, across fleet sizes, seeds,
deterministic and stochastic service, remediation bid overrides,
arrival schedules and a quarantine opened before the run.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.resilience.supervisor as supervisor_module
from repro.agents import SlowExecutor, TruthfulAgent
from repro.observability import instrumented
from repro.resilience import RoundSupervisor
from repro.resilience.checkpoint import CheckpointStore
from repro.system.workload import PiecewiseConstantSchedule, SinusoidalSchedule

ROUNDS = 3


class _RecordingStore(CheckpointStore):
    """A CheckpointStore that remembers every instance made."""

    made: list["_RecordingStore"] = []

    def __init__(self) -> None:
        super().__init__()
        _RecordingStore.made.append(self)


def force_message_path(supervisor: RoundSupervisor) -> RoundSupervisor:
    """Send every round of ``supervisor`` through the coordinator/DES path."""
    supervisor._takes_direct_path = lambda _faults: False
    return supervisor


def _fields(result) -> list[tuple[str, str]]:
    """Every RoundResult field, floats and arrays bit for bit."""
    out = []
    for field in dataclasses.fields(result):
        value = getattr(result, field.name)
        if field.name != "outcome" or value is None:
            out.append((field.name, repr(value)))
            continue
        arrays = {
            "loads": value.loads,
            "bids": value.allocation.bids,
            "execution_values": value.execution_values,
            "compensation": value.payments.compensation,
            "bonus": value.payments.bonus,
            "valuation": value.payments.valuation,
            "payment": value.payments.payment,
            "utility": value.payments.utility,
        }
        for name, array in arrays.items():
            array = np.asarray(array)
            bits = f"{array.dtype}{array.shape}{array.tobytes().hex()}"
            out.append((f"outcome.{name}", bits))
        latency = repr(float(value.allocation.total_latency))
        out.append(("outcome.total_latency", latency))
        out.append(("outcome.metadata", repr(value.metadata)))
    return out


def _quarantine_state(supervisor: RoundSupervisor) -> list:
    policy = supervisor.quarantine
    return [
        (name, repr(vars(policy.health_of(name))))
        for name in policy.machine_names
    ] + [policy.probes(), policy.quarantined()]


def _run(case: dict, *, direct: bool) -> list:
    rng = np.random.default_rng(case["seed"])
    values = rng.uniform(0.5, 8.0, size=case["n"])
    agents = [TruthfulAgent(float(v)) for v in values]
    for k in case["slow"]:
        agents[k] = SlowExecutor(float(values[k]), 3.0)
    rate = 0.5 * case["n"] + 1.0
    schedule = {
        "none": None,
        "piecewise": PiecewiseConstantSchedule([0.0, 15.0], [0.5 * rate, 1.5 * rate]),
        "sinusoidal": SinusoidalSchedule(rate, amplitude=0.5, period=40.0),
    }[case["schedule"]]
    supervisor = RoundSupervisor(
        agents,
        rate,
        duration=case["duration"],
        rng=np.random.default_rng(case["seed"]),
        deterministic_service=case["deterministic"],
        detector_threshold=3.0,
        arrival_schedule=schedule,
    )
    names = supervisor.machine_names
    supervisor.bid_overrides = {
        names[k]: float(values[k]) * factor for k, factor in case["overrides"]
    }
    for k in case["opened"]:
        supervisor.quarantine.force_open(names[k])
    if not direct:
        force_message_path(supervisor)

    observed = []
    with mock.patch.object(supervisor_module, "CheckpointStore", _RecordingStore):
        for _ in range(ROUNDS):
            _RecordingStore.made.clear()
            result = supervisor.run_round()
            stores = list(_RecordingStore.made)
            observed.append((
                _fields(result),
                _quarantine_state(supervisor),
                [store.load() for store in stores],
            ))
    return observed


@st.composite
def _cases(draw) -> dict:
    n = draw(st.integers(2, 40))
    indices = st.integers(0, n - 1)
    return {
        "n": n,
        "seed": draw(st.integers(0, 2**31 - 1)),
        "deterministic": draw(st.booleans()),
        "duration": draw(st.sampled_from([2.0, 10.0, 25.0])),
        "slow": draw(st.sets(indices, max_size=2)),
        "overrides": draw(st.lists(
            st.tuples(indices, st.floats(0.5, 2.0)), max_size=3,
        )),
        "opened": draw(st.sets(indices, max_size=max(0, n - 2))),
        "schedule": draw(st.sampled_from(["none", "piecewise", "sinusoidal"])),
    }


@settings(max_examples=60, deadline=None)
@given(case=_cases())
def test_direct_rounds_match_message_rounds(case):
    direct = _run(case, direct=True)
    message = _run(case, direct=False)
    for k, (left, right) in enumerate(zip(direct, message)):
        assert left[0] == right[0], f"round {k}: RoundResult differs"
        assert left[1] == right[1], f"round {k}: quarantine differs"
        # One round's WAL each (none for a voided round), same final state.
        assert len(left[2]) == len(right[2]), f"round {k}: stores"
        assert left[2] == right[2], f"round {k}: final checkpoint differs"


def test_direct_round_writes_the_message_rounds_wal():
    """Four snapshots, n bid and n report records, one packed payment record."""
    supervisor = RoundSupervisor(
        [TruthfulAgent(t) for t in (1.0, 2.0, 5.0)], 6.0, duration=10.0,
        rng=np.random.default_rng(4),
    )
    with mock.patch.object(supervisor_module, "CheckpointStore", _RecordingStore):
        _RecordingStore.made.clear()
        with instrumented() as instr:
            result = supervisor.run_round()
    (store,) = _RecordingStore.made
    assert store.saves == 4
    assert store.appends == 3 + 3 + 1
    checkpoint = store.load()
    assert checkpoint.phase == "done"
    payments = result.outcome.payments
    assert checkpoint.payments_sent == {
        name: (result.payments[name], float(c), float(b))
        for name, c, b in zip(
            result.participants, payments.compensation, payments.bonus
        )
    }
    assert checkpoint.loads == list(result.loads.values())
    assert set(checkpoint.reports) == set(result.participants)
    assert instr.metrics.counter("supervisor.direct_rounds").value == 1.0
    transitions = {
        (c["labels"]["src"], c["labels"]["dst"])
        for c in instr.metrics.snapshot()["counters"]
        if c["name"] == "protocol.phase_transitions"
    }
    assert transitions == {
        ("idle", "bidding"), ("bidding", "executing"),
        ("executing", "verifying"), ("verifying", "done"),
    }


def test_only_rounds_that_need_it_take_the_message_path():
    from repro.resilience import MachineFault, RoundFaults

    supervisor = RoundSupervisor(
        [TruthfulAgent(t) for t in (1.0, 2.0, 5.0, 10.0)], 6.0, duration=10.0,
        rng=np.random.default_rng(2),
    )
    plan = [
        None,
        RoundFaults(),
        RoundFaults(drop_probability=0.2),
        RoundFaults(machine_faults={"C2": MachineFault("withhold_report")}),
        RoundFaults(coordinator_crash="mid_payment"),
    ]
    with instrumented() as instr:
        for faults in plan:
            supervisor.run_round(faults)
        supervisor.skip_rounds = 1
        supervisor.run_round()  # voided by the skip: neither path
    assert instr.metrics.counter("supervisor.direct_rounds").value == 2.0
    assert instr.metrics.counter("supervisor.message_rounds").value == 3.0

    event = RoundSupervisor(
        [TruthfulAgent(t) for t in (1.0, 2.0)], 3.0, execution="event",
    )
    assert not event._takes_direct_path(None)

"""Horizon-fused rounds on wide, sparse fleets: identical to sequential.

At n=400 with R=4 over 5 s windows a round routes ~20 jobs, so ~95% of
the machines run none — the regime where the fused engine must visit
only the machines with jobs and still reproduce the sequential round
bit for bit.  A truthful-bidding slow executor with a large share
trips the CUSUM detector, so its circuit opens, probes and re-opens
inside fused segments (quarantine churn); a fault plan with machine
crashes and coordinator crashes forces de-fusion at its boundaries.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.agents import SlowExecutor, TruthfulAgent
from repro.resilience import FaultPlan, MachineFault, RoundFaults, RoundSupervisor
from repro.resilience.supervisor import RoundResult

VALUES = np.tile([1.0, 2.0, 5.0, 10.0], 100)
NAMES = [f"C{i + 1}" for i in range(VALUES.size)]
SLOW = 7  # index of the slow executor
ROUNDS = 24


def _agents() -> list:
    agents = [TruthfulAgent(float(t)) for t in VALUES]
    # Bids 0.02 (about a tenth of the fleet's capacity), runs 3x slower.
    agents[SLOW] = SlowExecutor(0.02, 3.0)
    return agents


def _defusing_plan() -> FaultPlan:
    crash = RoundFaults(
        machine_faults={n: MachineFault("crash") for n in NAMES[3:400:97]}
    )
    rounds = [RoundFaults()] * ROUNDS
    rounds[4] = crash
    rounds[5] = crash
    rounds[11] = RoundFaults(coordinator_crash="mid_payment")
    rounds[12] = RoundFaults(
        machine_faults={NAMES[20]: MachineFault("withhold_report", count=5)}
    )
    rounds[18] = RoundFaults(drop_probability=0.2)
    return FaultPlan(rounds)


def _run(*, horizon: bool, deterministic: bool, plan) -> list[RoundResult]:
    supervisor = RoundSupervisor(
        _agents(), 4.0, duration=5.0, rng=np.random.default_rng(3),
        deterministic_service=deterministic, detector_threshold=4.0,
        horizon=horizon,
    )
    return supervisor.run(ROUNDS, fault_plan=plan).rounds


def _assert_arrays_identical(a, b, where: str) -> None:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), where
        assert a.tobytes() == b.tobytes(), where
    elif dataclasses.is_dataclass(a):
        assert type(a) is type(b), where
        for field in dataclasses.fields(a):
            _assert_arrays_identical(
                getattr(a, field.name), getattr(b, field.name),
                f"{where}.{field.name}",
            )
    else:
        assert repr(a) == repr(b), where


def _assert_rounds_identical(fused, sequential) -> None:
    assert len(fused) == len(sequential)
    for a, b in zip(fused, sequential):
        for field in dataclasses.fields(RoundResult):
            x, y = getattr(a, field.name), getattr(b, field.name)
            where = f"round {a.index} {field.name}"
            if field.name == "outcome":
                assert (x is None) == (y is None), where
                if x is not None:
                    _assert_arrays_identical(x, y, where)
            else:
                # repr round-trips every float bit pattern (and -0.0).
                assert repr(x) == repr(y), where


@pytest.mark.parametrize("deterministic", [True, False])
@pytest.mark.parametrize("faulted", [False, True])
def test_wide_sparse_fused_rounds_match_sequential(deterministic, faulted):
    plan = _defusing_plan() if faulted else None
    fused = _run(horizon=True, deterministic=deterministic, plan=plan)
    sequential = _run(horizon=False, deterministic=deterministic, plan=plan)
    _assert_rounds_identical(fused, sequential)

    # The scenario exercises what it claims to.
    slow = NAMES[SLOW]
    assert any(r.jobs_routed < len(r.participants) / 10 for r in fused)
    assert any(slow in r.quarantined for r in fused)
    assert any(slow in r.probes for r in fused)
    assert any(slow in r.alerts for r in fused)
    if faulted:
        assert sum(1 for r in fused if r.faulted) >= 3
        assert any(r.coordinator_restarts for r in fused)

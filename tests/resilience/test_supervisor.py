"""RoundSupervisor: retry healing, quarantine, recovery, reallocation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents import TruthfulAgent
from repro.allocation import pr_allocation
from repro.mechanism import VerificationMechanism
from repro.resilience import (
    CircuitState,
    MachineFault,
    RoundFaults,
    RoundSupervisor,
)

TRUE_VALUES = [1.0, 1.5, 2.0, 2.5, 3.0]


def _supervisor(seed: int = 0, **kwargs) -> RoundSupervisor:
    agents = [TruthfulAgent(t) for t in TRUE_VALUES]
    kwargs.setdefault("rng", np.random.default_rng(seed))
    return RoundSupervisor(agents, arrival_rate=1.2, **kwargs)


class TestCleanRounds:
    def test_round_allocates_the_full_rate(self):
        sup = _supervisor()
        result = sup.run_round()
        assert not result.voided
        assert sum(result.loads.values()) == pytest.approx(1.2, abs=1e-9)
        assert result.live_names == sup.machine_names

    def test_loads_match_from_scratch_pr(self):
        sup = _supervisor()
        result = sup.run_round()
        expected = pr_allocation(np.array(TRUE_VALUES), 1.2)
        for name, load in zip(sup.machine_names, expected.loads):
            assert result.loads[name] == pytest.approx(load, abs=1e-9)

    def test_honest_machines_profit(self):
        sup = _supervisor()
        result = sup.run_round()
        for name in sup.honest_names() & set(result.live_names):
            assert result.utilities[name] >= -1e-9

    def test_every_machine_paid_exactly_once(self):
        result = _supervisor().run_round()
        assert all(count == 1 for count in result.payment_notices.values())

    def test_multi_round_report_aggregates(self):
        sup = _supervisor()
        report = sup.run(3)
        assert report.n_rounds == 3
        assert report.n_voided == 0
        assert report.total_coordinator_restarts == 0

    def test_run_validates_round_count(self):
        with pytest.raises(ValueError):
            _supervisor().run(0)

    def test_needs_two_machines(self):
        with pytest.raises(ValueError):
            RoundSupervisor([TruthfulAgent(1.0)], arrival_rate=1.0)


class TestRetryHealing:
    def test_withheld_bid_healed_by_retry(self):
        sup = _supervisor()
        faults = RoundFaults(
            machine_faults={"C2": MachineFault("withhold_bid", count=1)}
        )
        result = sup.run_round(faults)
        assert not result.voided
        assert result.bid_retries >= 1
        assert "C2" in result.live_names
        assert result.excluded == []
        assert sup.quarantine.state_of("C2") is CircuitState.CLOSED

    def test_withheld_report_healed_by_retry(self):
        sup = _supervisor()
        faults = RoundFaults(
            machine_faults={"C3": MachineFault("withhold_report", count=1)}
        )
        result = sup.run_round(faults)
        assert not result.voided
        assert result.report_retries >= 1
        assert result.withheld == []
        assert result.payments["C3"] > 0.0

    def test_crashed_machine_excluded_after_retries_exhausted(self):
        sup = _supervisor()
        faults = RoundFaults(machine_faults={"C1": MachineFault("crash")})
        result = sup.run_round(faults)
        assert not result.voided
        assert result.excluded == ["C1"]
        assert "C1" not in result.loads
        assert sum(result.loads.values()) == pytest.approx(1.2, abs=1e-9)
        assert result.payment_notices["C1"] == 0

    def test_crash_after_bid_withholds_payment(self):
        sup = _supervisor()
        faults = RoundFaults(
            machine_faults={"C1": MachineFault("crash", point="after_bid")}
        )
        result = sup.run_round(faults)
        assert not result.voided
        assert result.withheld == ["C1"]
        assert result.payments["C1"] == 0.0
        # Still exactly one (zero-amount) notice: the ledger is honest.
        assert result.payment_notices["C1"] == 1


class TestQuarantineFlow:
    def _crash(self, name: str) -> RoundFaults:
        return RoundFaults(machine_faults={name: MachineFault("crash")})

    def test_repeated_failures_open_the_circuit(self):
        sup = _supervisor()
        sup.run_round(self._crash("C1"))
        assert sup.quarantine.state_of("C1") is CircuitState.CLOSED
        sup.run_round(self._crash("C1"))
        assert sup.quarantine.state_of("C1") is CircuitState.OPEN

    def test_quarantined_load_respread_matches_from_scratch_pr(self):
        sup = _supervisor()
        sup.run_round(self._crash("C1"))
        sup.run_round(self._crash("C1"))
        result = sup.run_round()  # C1 sits out quarantined
        assert result.quarantined == ["C1"]
        assert "C1" not in result.loads
        survivors = [n for n in sup.machine_names if n != "C1"]
        expected = pr_allocation(np.array(TRUE_VALUES[1:]), 1.2)
        got = np.array([result.loads[name] for name in survivors])
        assert got.tobytes() == expected.loads.tobytes()

    def test_readmission_via_half_open_probes(self):
        sup = _supervisor()
        sup.run_round(self._crash("C1"))
        sup.run_round(self._crash("C1"))  # opens, cooldown 2
        r3 = sup.run_round()
        assert "C1" not in r3.participants
        r4 = sup.run_round()  # cooldown elapsed: C1 probes
        assert "C1" in r4.probes and "C1" in r4.participants
        assert sup.quarantine.state_of("C1") is CircuitState.HALF_OPEN
        while sup.quarantine.state_of("C1") is CircuitState.HALF_OPEN:
            sup.run_round()  # clean probes eventually close the circuit
        assert sup.quarantine.state_of("C1") is CircuitState.CLOSED
        final = sup.run_round()
        assert "C1" in final.live_names

    def test_slowdown_alerts_feed_quarantine(self):
        sup = _supervisor(duration=80.0)
        slow = RoundFaults(
            machine_faults={"C1": MachineFault("slow_execution", slowdown=3.0)}
        )
        r1 = sup.run_round(slow)
        assert r1.alerts == ["C1"]
        r2 = sup.run_round(slow)
        assert r2.alerts == ["C1"]
        assert sup.quarantine.state_of("C1") is CircuitState.OPEN
        assert (
            sup.quarantine.health_of("C1").last_failure_reason
            == "slowdown_alert"
        )

    def test_too_few_admitted_voids_the_round(self):
        agents = [TruthfulAgent(1.0), TruthfulAgent(2.0)]
        sup = RoundSupervisor(
            agents, arrival_rate=1.0, rng=np.random.default_rng(0)
        )
        crash = RoundFaults(machine_faults={"C1": MachineFault("crash")})
        sup.run_round(crash)
        sup.run_round(crash)  # C1 quarantined; only C2 remains
        result = sup.run_round()
        assert result.voided
        assert result.jobs_routed == 0


class TestCoordinatorRecovery:
    def test_crash_during_bidding_with_open_bids_voids_without_blame(self):
        # The coordinator dies while a bid is still outstanding: the
        # replacement finds no announced allocation and voids safely.
        sup = _supervisor()
        result = sup.run_round(
            RoundFaults(
                coordinator_crash="during_bidding",
                machine_faults={"C2": MachineFault("withhold_bid", count=10)},
            )
        )
        assert result.voided
        assert result.coordinator_restarts == 1
        assert result.payment_notices == {n: 0 for n in sup.machine_names}
        # The machines did nothing wrong: nobody's circuit moved.
        for name in sup.machine_names:
            assert sup.quarantine.state_of(name) is CircuitState.CLOSED

    def test_crash_during_bidding_after_all_bids_completes(self):
        # If every bid already arrived, the checkpoint shows EXECUTING:
        # the restored coordinator resumes instead of voiding.
        sup = _supervisor()
        result = sup.run_round(RoundFaults(coordinator_crash="during_bidding"))
        assert not result.voided
        assert result.coordinator_restarts == 1
        assert all(count == 1 for count in result.payment_notices.values())

    def test_crash_after_allocation_resumes_and_pays(self):
        sup = _supervisor()
        result = sup.run_round(RoundFaults(coordinator_crash="after_allocation"))
        assert not result.voided
        assert result.coordinator_restarts == 1
        assert all(count == 1 for count in result.payment_notices.values())
        assert sum(result.loads.values()) == pytest.approx(1.2, abs=1e-9)

    def test_mid_payment_crash_never_double_pays(self):
        sup = _supervisor()
        result = sup.run_round(
            RoundFaults(coordinator_crash="mid_payment", crash_after_payments=2)
        )
        assert not result.voided
        assert result.coordinator_restarts == 1
        assert all(count == 1 for count in result.payment_notices.values())

    def test_recovered_round_matches_undisturbed_payments(self):
        crashed = _supervisor(seed=3).run_round(
            RoundFaults(coordinator_crash="mid_payment", crash_after_payments=1)
        )
        clean = _supervisor(seed=3).run_round()
        assert crashed.payments == pytest.approx(clean.payments)


class TestMechanismIntegrity:
    def test_payments_match_direct_mechanism_run(self):
        sup = _supervisor()
        result = sup.run_round()
        mech = VerificationMechanism()
        outcome = mech.run(np.array(TRUE_VALUES), 1.2, np.array(TRUE_VALUES))
        for name, expected in zip(sup.machine_names, outcome.payments.payment):
            assert result.payments[name] == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize(
    "path", [dict(), dict(shards=2), dict(horizon=True)],
    ids=["sequential", "sharded", "fused"],
)
def test_allocator_loads_are_the_fresh_pr_solve_under_churn(path):
    # Crashes quarantine three machines at two points, the circuits
    # probe and close again: the membership the allocator sees changes
    # round to round.  Bids with inexact reciprocals make any
    # incrementally maintained sum drift from the fresh one.
    from repro.resilience import FaultPlan

    def crash(*names):
        return RoundFaults(
            machine_faults={n: MachineFault("crash") for n in names}
        )

    values = [3.093, 3.388, 7.514, 1.735, 5.801, 6.828, 2.503, 1.441]
    plan = FaultPlan(
        [crash("C2", "C6")] * 2 + [RoundFaults()] + [crash("C3")] * 2
        + [RoundFaults()] * 7
    )
    sup = RoundSupervisor(
        [TruthfulAgent(t) for t in values], arrival_rate=3.0,
        rng=np.random.default_rng(5), duration=10.0, **path,
    )
    calls = []
    solve = sup._allocator.allocate

    def recording(names, bids, rate):
        allocation = solve(names, bids, rate)
        calls.append((list(names), allocation.loads.copy()))
        return allocation

    sup._allocator.allocate = recording
    rounds = sup.run(len(plan), fault_plan=plan).rounds
    assert {len(r.participants) for r in rounds} == {6, 7, 8}  # churned

    live_rounds = [r for r in rounds if not r.voided]
    assert len(calls) == len(live_rounds)
    for result, (names, loads) in zip(live_rounds, calls):
        assert names == list(result.loads)
        bids = np.array([sup.agents[n].bid() for n in names])
        expected = pr_allocation(bids, result.arrival_rate).loads
        # The loads that routed the jobs, and the mechanism's loads in
        # the result, are both the fresh solve bit for bit.
        assert loads.tobytes() == expected.tobytes()
        assert np.array(list(result.loads.values())).tobytes() == expected.tobytes()

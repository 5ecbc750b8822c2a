"""Chaos harness: seeded fault plans and invariant enforcement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents import TruthfulAgent
from repro.mechanism import VerificationMechanism
from repro.resilience import (
    ChaosHarness,
    FaultPlan,
    InvariantError,
    InvariantViolation,
    MachineFault,
    RoundFaults,
    RoundSupervisor,
    check_round_invariants,
)
from repro.resilience.supervisor import RoundResult

TRUE_VALUES = [1.0, 1.3, 1.7, 2.0, 2.4, 3.0]


def _supervisor(seed: int = 0) -> RoundSupervisor:
    agents = [TruthfulAgent(t) for t in TRUE_VALUES]
    return RoundSupervisor(
        agents, arrival_rate=1.0, rng=np.random.default_rng(seed)
    )


class TestFaultValidation:
    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError):
            MachineFault("meltdown")

    def test_unknown_crash_point_rejected(self):
        with pytest.raises(ValueError):
            MachineFault("crash", point="eventually")

    def test_slowdown_below_one_rejected(self):
        with pytest.raises(ValueError):
            MachineFault("slow_execution", slowdown=0.5)

    def test_bad_drop_probability_rejected(self):
        with pytest.raises(ValueError):
            RoundFaults(drop_probability=1.0)

    def test_unknown_coordinator_crash_rejected(self):
        with pytest.raises(ValueError):
            RoundFaults(coordinator_crash="at_lunch")

    def test_clean_round_detected(self):
        assert RoundFaults().is_clean
        assert not RoundFaults(drop_probability=0.1).is_clean


class TestFaultPlan:
    def test_same_seed_same_plan(self):
        names = [f"C{i+1}" for i in range(6)]
        a = FaultPlan.generate(20, names, seed=7)
        b = FaultPlan.generate(20, names, seed=7)
        assert len(a) == len(b) == 20
        for fa, fb in zip(a, b):
            assert fa == fb

    def test_different_seed_different_plan(self):
        names = [f"C{i+1}" for i in range(6)]
        a = FaultPlan.generate(20, names, seed=7)
        b = FaultPlan.generate(20, names, seed=8)
        assert any(fa != fb for fa, fb in zip(a, b))

    def test_faulty_fraction_capped(self):
        names = [f"C{i+1}" for i in range(10)]
        plan = FaultPlan.generate(
            50, names, seed=1, p_machine_fault=0.9, max_faulty_fraction=0.3
        )
        assert all(len(r.machine_faults) <= 3 for r in plan)

    def test_plan_actually_contains_chaos(self):
        names = [f"C{i+1}" for i in range(6)]
        plan = FaultPlan.generate(60, names, seed=3)
        assert plan.n_machine_faults > 0
        assert plan.n_coordinator_crashes > 0
        assert any(r.drop_probability > 0 for r in plan)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan.generate(0, ["C1"], seed=0)
        with pytest.raises(ValueError):
            FaultPlan.generate(5, [], seed=0)


class TestInvariantChecking:
    def test_clean_round_has_no_violations(self):
        sup = _supervisor()
        result = sup.run_round()
        assert check_round_invariants(result, honest_names=sup.honest_names()) == []

    def test_tampered_loads_caught(self):
        sup = _supervisor()
        result = sup.run_round()
        result.loads[result.live_names[0]] += 0.5  # break feasibility
        violations = check_round_invariants(result)
        assert any(v.invariant == "feasibility" for v in violations)

    def test_double_payment_caught(self):
        sup = _supervisor()
        result = sup.run_round()
        result.payment_notices[result.live_names[0]] = 2
        violations = check_round_invariants(result)
        assert any(v.invariant == "at-most-once" for v in violations)

    def test_paid_withheld_machine_caught(self):
        sup = _supervisor()
        result = sup.run_round(
            RoundFaults(
                machine_faults={"C1": MachineFault("crash", point="after_bid")}
            )
        )
        assert result.withheld == ["C1"]
        result.payments["C1"] = 3.0
        violations = check_round_invariants(result)
        assert any(v.invariant == "unverified-paid" for v in violations)

    def test_violation_string_names_round_and_invariant(self):
        violation = InvariantViolation(4, "feasibility", "off by 1")
        assert "round 4" in str(violation)
        assert "feasibility" in str(violation)

    def test_invariant_error_carries_violations(self):
        violation = InvariantViolation(0, "ledger", "mismatch")
        error = InvariantError([violation])
        assert error.violations == [violation]
        assert "ledger" in str(error)


def _hand_built_round(field=None, name=None, value=None) -> RoundResult:
    """A sound two-machine round built from one mechanism run, with
    ``getattr(result, field)[name] = value`` applied when given."""
    outcome = VerificationMechanism().run(np.array([1.0, 2.0]), 3.0)
    names = ["C1", "C2"]
    fields = dict(
        index=0, participants=names, probes=[], quarantined=[], excluded=[],
        withheld=[], alerts=[], faulted=[], fault_kinds={}, voided=False,
        outcome=outcome,
        loads=dict(zip(names, outcome.loads.tolist())),
        payments=dict(zip(names, outcome.payments.payment.tolist())),
        utilities=dict(zip(names, outcome.payments.utility.tolist())),
        payment_notices=dict.fromkeys(names, 1), bid_retries=0,
        report_retries=0, coordinator_restarts=0, arrival_rate=3.0,
        jobs_routed=10,
    )
    result = RoundResult(**fields)
    if field is not None:
        getattr(result, field)[name] = value
    return result


class TestNonFiniteOutcomes:
    def _invariants(self, *override) -> set[str]:
        return {v.invariant for v in check_round_invariants(
            _hand_built_round(*override), honest_names={"C1", "C2"}
        )}

    def test_hand_built_round_is_sound(self):
        assert self._invariants() == set()

    def test_nan_load_caught(self):
        found = self._invariants("loads", "C1", float("nan"))
        assert {"non-finite", "feasibility"} <= found

    def test_inf_payment_caught(self):
        found = self._invariants("payments", "C2", float("inf"))
        assert {"non-finite", "ledger"} <= found

    def test_nan_utility_caught(self):
        found = self._invariants("utilities", "C1", float("nan"))
        assert "non-finite" in found

    def test_nan_payment_fails_the_ledger(self):
        found = self._invariants("payments", "C1", float("nan"))
        assert {"non-finite", "ledger"} <= found


class TestChaosRuns:
    def test_fifty_rounds_of_chaos_zero_violations(self):
        # The acceptance run: >= 50 seeded chaos rounds, invariants
        # checked after every one, zero violations.
        sup = _supervisor(seed=3)
        plan = FaultPlan.generate(50, sup.machine_names, seed=2026)
        report = ChaosHarness(sup, plan).run()
        assert report.ok
        assert report.n_rounds == 50
        # The plan really exercised the resilience machinery.
        assert plan.n_machine_faults > 10
        assert report.n_coordinator_restarts > 0

    def test_collect_mode_reports_instead_of_raising(self):
        sup = _supervisor(seed=4)
        plan = FaultPlan.generate(5, sup.machine_names, seed=11)
        report = ChaosHarness(sup, plan, stop_on_violation=False).run()
        assert report.n_rounds == 5
        assert report.violations == []

    def test_heavy_loss_rounds_still_sound(self):
        sup = _supervisor(seed=5)
        plan = FaultPlan([RoundFaults(drop_probability=0.5)] * 3)
        report = ChaosHarness(sup, plan).run()
        assert report.ok
        assert all(not r.voided for r in report.rounds)

    def test_deterministic_replay(self):
        def run():
            sup = _supervisor(seed=6)
            plan = FaultPlan.generate(10, sup.machine_names, seed=13)
            return ChaosHarness(sup, plan).run()

        a, b = run(), run()
        assert [r.payments for r in a.rounds] == [r.payments for r in b.rounds]
        assert [r.alerts for r in a.rounds] == [r.alerts for r in b.rounds]

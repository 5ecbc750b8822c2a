"""Every pricing caller equals the one kernel, for any scenario.

One drawn scenario — true values, a lying coalition with its bid and
execution factors, a payment rule and an arrival rate — is priced by
:func:`repro.mechanism.pricing.price_rows` inside a stacked block, and
by every path that prices it in production: ``Mechanism.run`` for the
rule, :func:`batch_run`, and a fused campaign cohort.  Those must equal
the kernel bit for bit.

The sum-based entry point (shards and the tree-aggregated distributed
mechanism) is held to a tolerance instead: its realised latency ``L``
arrives as ``(R/S)^2 Q`` or a tree sum, a different reduction than the
row dot, so ``L`` and the bonuses ``L_{-i} - L`` may differ in the last
few ulps.  ``SUMS_TOLERANCE`` bounds that error relative to the largest
leave-one-out optimum.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import DistributedVerificationMechanism
from repro.mechanism import (
    ArcherTardosMechanism,
    VCGMechanism,
    VerificationMechanism,
    batch_run,
)
from repro.mechanism.pricing import RULES, price_from_sums, price_rows
from repro.parallel import ExperimentUnit, execute_cohort

SUMS_TOLERANCE = 1e-12

MECHANISMS = {
    "observed": VerificationMechanism(),
    "declared": VerificationMechanism("declared"),
    "vcg": VCGMechanism(),
    "archer-tardos": ArcherTardosMechanism(),
}


@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    true_values = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=50.0), min_size=n, max_size=n
        )
    )
    coalition = draw(
        st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n)
    )
    return ExperimentUnit(
        kind="scenario",
        scenario="drawn",
        bid_factor=draw(st.floats(min_value=0.1, max_value=5.0)),
        execution_factor=draw(st.floats(min_value=1.0, max_value=4.0)),
        true_values=tuple(true_values),
        arrival_rate=draw(st.floats(min_value=0.1, max_value=100.0)),
        variant=draw(st.sampled_from(sorted(RULES))),
        manipulators=tuple(sorted(coalition)),
    )


def _profile(unit: ExperimentUnit) -> tuple[np.ndarray, np.ndarray]:
    bids = np.array(unit.true_values)
    executions = bids.copy()
    liars = list(unit.manipulators)
    bids[liars] *= unit.bid_factor
    executions[liars] *= unit.execution_factor
    return bids, executions


def _stacked_row(unit: ExperimentUnit, rule: str):
    """The scenario priced as row 0 of a two-row block."""
    bids, executions = _profile(unit)
    other = np.linspace(1.0, 3.0, bids.size)
    priced = price_rows(
        np.stack([bids, other]),
        np.stack([executions, 1.5 * other]),
        np.array([unit.arrival_rate, 7.0]),
        rule,
    )
    return bids, executions, priced


class TestEveryCallerIsTheKernel:
    @settings(max_examples=150, deadline=None)
    @given(unit=scenarios())
    def test_mechanism_runs_equal_the_kernel(self, unit):
        for rule, mechanism in MECHANISMS.items():
            bids, executions, priced = _stacked_row(unit, rule)
            outcome = mechanism.run(bids, unit.arrival_rate, executions)
            np.testing.assert_array_equal(outcome.loads, priced.loads[0])
            assert outcome.allocation.total_latency == priced.declared_latency[0]
            assert outcome.realised_latency == priced.realised_latency[0]
            for field in ("compensation", "bonus", "valuation"):
                np.testing.assert_array_equal(
                    getattr(outcome.payments, field),
                    getattr(priced, field)[0],
                    err_msg=f"{rule}: {field}",
                )

    @settings(max_examples=150, deadline=None)
    @given(unit=scenarios())
    def test_batch_run_equals_the_kernel(self, unit):
        for rule in ("observed", "declared"):
            bids, executions, priced = _stacked_row(unit, rule)
            batch = batch_run(
                bids[None, :], unit.arrival_rate, executions[None, :],
                compensation=rule,
            )
            for field in ("loads", "realised_latency", "compensation",
                          "bonus", "valuation"):
                np.testing.assert_array_equal(
                    getattr(batch, field)[0], getattr(priced, field)[0],
                    err_msg=f"{rule}: {field}",
                )

    @settings(max_examples=150, deadline=None)
    @given(unit=scenarios())
    def test_fused_cohort_payload_equals_the_kernel(self, unit):
        _, _, priced = _stacked_row(unit, unit.variant)
        payload = execute_cohort([unit])[0]
        assert payload["loads"] == priced.loads[0].tolist()
        assert payload["declared_latency"] == priced.declared_latency[0]
        assert payload["realised_latency"] == priced.realised_latency[0]
        for field in ("compensation", "bonus", "valuation"):
            assert payload[field] == getattr(priced, field)[0].tolist(), field


class TestSumsMatchTheRowsWithinTolerance:
    @settings(max_examples=150, deadline=None)
    @given(unit=scenarios())
    def test_shard_and_distributed_pricing(self, unit):
        bids, executions, priced = _stacked_row(unit, "observed")
        rate = unit.arrival_rate
        total_inverse = float((1.0 / bids).sum())
        quotient = float((executions / bids**2).sum())
        scale = SUMS_TOLERANCE * float((rate**2 / (total_inverse - 1.0 / bids)).max())

        shard = price_from_sums(
            bids, executions, rate, total_inverse,
            (rate / total_inverse) ** 2 * quotient,
        )
        # Same S, so loads and costs are the kernel's bits; only L differs.
        for field in ("loads", "compensation", "valuation"):
            np.testing.assert_array_equal(
                getattr(shard, field), getattr(priced, field)[:1]
            )
        np.testing.assert_allclose(
            shard.bonus[0], priced.bonus[0], rtol=0.0, atol=scale
        )

        distributed = DistributedVerificationMechanism().run(
            bids, rate, executions
        ).outcome
        for field in ("compensation", "bonus", "valuation"):
            np.testing.assert_allclose(
                getattr(distributed.payments, field),
                getattr(priced, field)[0],
                rtol=SUMS_TOLERANCE, atol=scale,
            )

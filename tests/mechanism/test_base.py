"""Tests for the Mechanism base template (shared run() behaviour)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mechanism import (
    ArcherTardosMechanism,
    VCGMechanism,
    VerificationMechanism,
)
from repro.mechanism.base import Mechanism

ALL_MECHANISMS = [
    VerificationMechanism(),
    VerificationMechanism("declared"),
    VCGMechanism(),
    ArcherTardosMechanism(),
]


@pytest.mark.parametrize("mechanism", ALL_MECHANISMS, ids=lambda m: repr(m))
class TestRunTemplate:
    def test_execution_defaults_to_bids(self, mechanism):
        bids = np.array([1.0, 2.0])
        outcome = mechanism.run(bids, 5.0)
        np.testing.assert_allclose(outcome.execution_values, bids)

    def test_true_values_recorded_when_given(self, mechanism):
        bids = np.array([1.0, 2.0])
        outcome = mechanism.run(bids, 5.0, bids, true_values=bids)
        np.testing.assert_allclose(outcome.true_values, bids)

    def test_true_values_none_by_default(self, mechanism):
        outcome = mechanism.run(np.array([1.0, 2.0]), 5.0)
        assert outcome.true_values is None

    def test_capacity_constraint_enforced_with_true_values(self, mechanism):
        t = np.array([2.0, 2.0])
        with pytest.raises(ValueError, match="capacity"):
            mechanism.run(t, 5.0, np.array([1.0, 2.0]), true_values=t)

    def test_metadata_names_the_class(self, mechanism):
        outcome = mechanism.run(np.array([1.0, 2.0]), 5.0)
        assert outcome.metadata["mechanism"] == type(mechanism).__name__

    def test_rate_validated(self, mechanism):
        with pytest.raises(ValueError):
            mechanism.run(np.array([1.0, 2.0]), -5.0)

    def test_length_mismatch_rejected(self, mechanism):
        with pytest.raises(ValueError, match="same length"):
            mechanism.run(np.array([1.0, 2.0]), 5.0, np.array([1.0]))

    def test_payment_identities(self, mechanism):
        from repro.testing import assert_payment_identities

        outcome = mechanism.run(np.array([1.0, 2.0, 5.0]), 7.0)
        assert_payment_identities(outcome)

    def test_allocation_feasible(self, mechanism):
        from repro.testing import assert_feasible_allocation

        outcome = mechanism.run(np.array([1.0, 2.0, 5.0]), 7.0)
        assert_feasible_allocation(outcome.allocation)


class TestValuationsHelper:
    def test_valuations_formula(self):
        from repro.allocation import pr_allocation

        allocation = pr_allocation(np.array([1.0, 2.0]), 6.0)
        executions = np.array([2.0, 2.0])
        for rule in ("observed", "declared", "vcg", "archer-tardos"):
            valuations = Mechanism._price(allocation, executions, rule).valuation
            np.testing.assert_array_equal(
                valuations, -executions * allocation.loads**2
            )

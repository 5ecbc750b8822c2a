"""The shared pricing kernel: typed failure on non-finite output, timing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mechanism import (
    ArcherTardosMechanism,
    VCGMechanism,
    VerificationMechanism,
    batch_run,
)
from repro.mechanism.pricing import NonFiniteOutcomeError, price_rows
from repro.observability import instrumentation
from repro.parallel import ExperimentUnit, execute_cohort

# Bids whose prices overflow float64: [1e308, 1e308] makes the realised
# latency and L_{-i} infinite (NaN bonuses), [1, 1e-300] rounds S_{-i}
# to zero for the fast machine (an infinite bonus and utility).
OVERFLOWING = [
    pytest.param([1e308, 1e308], 3.0, id="huge-bids"),
    pytest.param([1.0, 1e-300], 20.0, id="extreme-ratio"),
]


class TestNonFiniteOutcome:
    @pytest.mark.parametrize("bids, rate", OVERFLOWING)
    @pytest.mark.parametrize(
        "mechanism",
        [
            VerificationMechanism(),
            VerificationMechanism("declared"),
            VCGMechanism(),
            ArcherTardosMechanism(),
        ],
        ids=repr,
    )
    def test_mechanism_run_raises(self, mechanism, bids, rate):
        with pytest.raises(NonFiniteOutcomeError):
            mechanism.run(bids, rate)

    @pytest.mark.parametrize("bids, rate", OVERFLOWING)
    @pytest.mark.parametrize("mode", ["observed", "declared"])
    def test_batch_run_raises(self, bids, rate, mode):
        rows = np.array([[2.0, 3.0], bids])
        with pytest.raises(NonFiniteOutcomeError):
            batch_run(rows, rate, compensation=mode)

    def test_raises_without_a_runtime_warning(self, recwarn):
        with pytest.raises(NonFiniteOutcomeError):
            VerificationMechanism().run([1.0, 1e-300], 20.0)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_is_a_value_error_and_exported(self):
        from repro.mechanism import NonFiniteOutcomeError as exported

        assert exported is NonFiniteOutcomeError
        assert issubclass(NonFiniteOutcomeError, ValueError)


class TestRuleTable:
    def test_unknown_rule_is_rejected(self):
        with pytest.raises(ValueError, match="rule"):
            price_rows(np.ones((1, 2)), np.ones((1, 2)), 1.0, "dynamics")

    def test_single_machine_is_rejected(self):
        with pytest.raises(ValueError, match="two machines"):
            price_rows(np.ones((1, 1)), np.ones((1, 1)), 1.0, "observed")


class TestPricingIsTimedInEveryEngine:
    def _payment_timings(self, work) -> int:
        instr = instrumentation.enable()
        try:
            work()
        finally:
            instrumentation.disable()
        return instr.metrics.histogram("mechanism.payments.seconds").count

    def test_vcg_run_records_the_histogram(self):
        assert self._payment_timings(
            lambda: VCGMechanism().run([1.0, 2.0, 4.0], 5.0)
        ) == 1

    def test_execute_cohort_records_the_histogram(self):
        units = [
            ExperimentUnit(
                kind="scenario",
                scenario="overbid",
                bid_factor=factor,
                execution_factor=1.0,
                true_values=(1.0, 2.0, 4.0),
                arrival_rate=5.0,
                variant="archer-tardos",
            )
            for factor in (1.0, 1.5, 2.0)
        ]
        assert self._payment_timings(lambda: execute_cohort(units)) == 1

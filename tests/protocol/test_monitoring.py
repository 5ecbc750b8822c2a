"""Unit tests for the online slowdown detector."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol.monitoring import (
    CusumSlowdownDetector,
    detection_delay,
)


class TestDetectorMechanics:
    def test_honest_stream_rarely_flags(self, rng):
        detector = CusumSlowdownDetector(2.0, 3.0)
        sojourns = rng.exponential(6.0, size=20_000)  # exactly as declared
        assert detector.observe_many(sojourns) is None
        assert not detector.flagged

    def test_slow_stream_flags(self, rng):
        detector = CusumSlowdownDetector(2.0, 3.0)
        sojourns = rng.exponential(12.0, size=5_000)  # 2x slower
        alert = detector.observe_many(sojourns)
        assert alert is not None
        assert detector.flagged
        assert alert.mean_sojourn > 6.0

    def test_alert_fires_once(self, rng):
        detector = CusumSlowdownDetector(1.0, 1.0, threshold=1.0)
        first = detector.observe_many(rng.exponential(5.0, size=100))
        assert first is not None
        jobs_at_alert = first.jobs_observed
        again = detector.observe_many(rng.exponential(5.0, size=100))
        assert again.jobs_observed == jobs_at_alert  # same alert object

    def test_batch_with_multiple_crossings_latches_first(self):
        # Deterministic stream: with slack 0 and threshold 1, each
        # sojourn of 3x the expected mean adds +2 to the statistic, so
        # a batch of five such jobs crosses the threshold at job 1 and
        # would "cross" again at every subsequent job.  The contract is
        # one-shot: the alert latches at the FIRST crossing, the rest
        # of the batch is not consumed, and the state freezes there.
        detector = CusumSlowdownDetector(1.0, 1.0, threshold=1.0, slack=0.0)
        alert = detector.observe_many(np.full(5, 3.0))
        assert alert is not None
        assert alert.jobs_observed == 1
        assert detector.jobs_observed == 1  # batch tail not consumed
        assert detector.statistic == alert.statistic == 2.0

    def test_observe_many_on_latched_detector_consumes_nothing(self):
        detector = CusumSlowdownDetector(1.0, 1.0, threshold=1.0, slack=0.0)
        first = detector.observe_many(np.full(5, 3.0))
        again = detector.observe_many(np.full(10, 3.0))
        assert again is first  # the same latched SlowdownAlert object
        assert detector.jobs_observed == 1

    def test_statistic_resets_at_zero_floor(self):
        detector = CusumSlowdownDetector(1.0, 1.0, slack=0.0)
        detector.observe(0.0)  # much faster than declared
        assert detector.statistic == 0.0

    def test_negative_sojourn_rejected(self):
        detector = CusumSlowdownDetector(1.0, 1.0)
        with pytest.raises(ValueError):
            detector.observe(-1.0)

    def test_negative_sojourn_in_a_batch_still_raises(self):
        detector = CusumSlowdownDetector(1.0, 1.0)
        with pytest.raises(ValueError):
            detector.observe_many(np.array([0.5, -1.0, 0.5]))
        assert detector.jobs_observed == 1  # consumed up to the bad job

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CusumSlowdownDetector(0.0, 1.0)
        with pytest.raises(ValueError):
            CusumSlowdownDetector(1.0, 1.0, threshold=0.0)
        with pytest.raises(ValueError):
            CusumSlowdownDetector(1.0, 1.0, slack=-0.1)



def _state(detector: CusumSlowdownDetector):
    return (
        detector.statistic,
        detector.jobs_observed,
        detector._sojourn_total,
        detector.alert,
    )


_sojourn = st.floats(min_value=0.0, max_value=40.0)


class TestObserveManyScreen:
    """The zero-statistic screen leaves the detector as the per-job loop would."""

    @settings(max_examples=300, deadline=None)
    @given(
        declared=st.floats(min_value=0.1, max_value=10.0),
        load=st.floats(min_value=0.1, max_value=10.0),
        slack=st.floats(min_value=0.0, max_value=2.0),
        threshold=st.floats(min_value=0.5, max_value=30.0),
        warmup=st.lists(_sojourn, max_size=5),
        batches=st.lists(st.lists(_sojourn, max_size=40), min_size=1, max_size=4),
    )
    def test_state_is_bit_identical_to_the_per_job_loop(
        self, declared, load, slack, threshold, warmup, batches
    ):
        kwargs = dict(threshold=threshold, slack=slack)
        screened = CusumSlowdownDetector(declared, load, **kwargs)
        looped = CusumSlowdownDetector(declared, load, **kwargs)
        for sojourn in warmup:  # sometimes leaves a non-zero statistic
            screened.observe(sojourn)
            looped.observe(sojourn)
        for batch in batches:
            got = screened.observe_many(np.array(batch, dtype=np.float64))
            want = looped.alert
            if want is None:
                for sojourn in batch:
                    if looped.observe(sojourn) is not None:
                        break
                want = looped.alert
            assert got == want
            assert repr(_state(screened)) == repr(_state(looped))

    def test_screened_batch_advances_count_and_total_only(self):
        detector = CusumSlowdownDetector(2.0, 1.0, slack=0.5)
        assert detector.observe_many(np.array([1.0, 2.0, 3.0])) is None
        assert detector.statistic == 0.0
        assert detector.jobs_observed == 3
        assert detector._sojourn_total == 6.0

class TestDetectionCharacteristics:
    def test_detects_big_slowdown_quickly(self):
        delay = detection_delay(
            1.0, 3.0, 2.0, np.random.default_rng(1)
        )
        assert delay is not None
        assert delay < 50

    def test_bigger_slowdowns_detected_faster(self):
        delays = []
        for factor in (1.5, 2.0, 4.0):
            per_seed = [
                detection_delay(1.0, factor, 2.0, np.random.default_rng(seed))
                for seed in range(20)
            ]
            delays.append(float(np.mean([d for d in per_seed if d is not None])))
        assert delays[0] > delays[1] > delays[2]

    def test_honest_false_alarm_rate_low(self):
        alarms = 0
        for seed in range(30):
            delay = detection_delay(
                1.0, 1.0, 2.0, np.random.default_rng(seed), max_jobs=2_000
            )
            alarms += delay is not None
        assert alarms <= 2  # <~7% false alarm over 2000 jobs

    def test_threshold_trades_delay_for_false_alarms(self):
        fast = [
            detection_delay(1.0, 2.0, 1.0, np.random.default_rng(s), threshold=2.0)
            for s in range(20)
        ]
        slow = [
            detection_delay(1.0, 2.0, 1.0, np.random.default_rng(s), threshold=20.0)
            for s in range(20)
        ]
        assert np.mean([d for d in fast if d]) < np.mean([d for d in slow if d])

    def test_subtle_slowdown_within_slack_escapes(self):
        # A 10% slowdown sits inside the 25% slack: undetectable by
        # design (the slack is the tolerance band).
        delay = detection_delay(
            1.0, 1.1, 2.0, np.random.default_rng(3), max_jobs=20_000
        )
        assert delay is None


class TestDetectionDelayContract:
    """The explicit-None contract of :func:`detection_delay`."""

    def test_never_fires_is_none_not_horizon(self):
        # An honest machine over a tiny horizon: the censored outcome
        # is None, never 0 and never max_jobs.
        delay = detection_delay(
            1.0, 1.0, 2.0, np.random.default_rng(0), max_jobs=5
        )
        assert delay is None

    def test_delay_is_within_one_and_max_jobs(self):
        # A massive slowdown against a hair-trigger threshold: the
        # alarm must land inside the documented [1, max_jobs] range.
        delay = detection_delay(
            1.0,
            50.0,
            2.0,
            np.random.default_rng(5),
            threshold=0.5,
            max_jobs=10,
        )
        assert delay is not None
        assert 1 <= delay <= 10

    def test_detection_on_final_job_counts(self):
        # Binary-search the smallest horizon at which a 3x slowdown is
        # caught; one job fewer must censor to None (so a detection
        # exactly on the last simulated job is reported, not dropped).
        rng_delay = detection_delay(1.0, 3.0, 2.0, np.random.default_rng(1))
        assert rng_delay is not None
        at_horizon = detection_delay(
            1.0, 3.0, 2.0, np.random.default_rng(1), max_jobs=rng_delay
        )
        below_horizon = detection_delay(
            1.0, 3.0, 2.0, np.random.default_rng(1), max_jobs=rng_delay - 1
        )
        assert at_horizon == rng_delay
        assert below_horizon is None

    @pytest.mark.parametrize("bad_max", [0, -1])
    def test_nonpositive_horizon_rejected(self, bad_max):
        with pytest.raises(ValueError, match="max_jobs"):
            detection_delay(
                1.0, 2.0, 1.0, np.random.default_rng(0), max_jobs=bad_max
            )

    @pytest.mark.parametrize("bad_true", [0.0, -1.0, float("nan")])
    def test_bad_true_execution_value_rejected(self, bad_true):
        with pytest.raises(ValueError, match="true_execution_value"):
            detection_delay(1.0, bad_true, 1.0, np.random.default_rng(0))

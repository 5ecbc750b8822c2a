"""Remediation over a chaos plan: same verdicts on either round path.

Clean rounds — the live ones with a clean plan entry and every shadow
dry run — take the supervisor's direct path.  Forcing every round
through the coordinator/DES path instead must change nothing the
pipeline decides: every round result, every shadow verdict (with its
predicted and baseline verification gaps) and the action journal.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np

from repro.agents import TruthfulAgent
from repro.remediation import RemediationPipeline
from repro.resilience import FaultPlan, RoundSupervisor

ROUNDS = 40


def _run(*, message_path: bool):
    values = np.tile([1.0, 2.0, 5.0, 10.0], 4)
    supervisor = RoundSupervisor(
        [TruthfulAgent(float(t)) for t in values],
        20.0,
        duration=20.0,
        rng=np.random.default_rng(701),
        remediation=RemediationPipeline(),
    )
    plan = FaultPlan.generate(
        ROUNDS, supervisor.machine_names, seed=811,
        p_machine_fault=0.03, p_coordinator_crash=0.05, p_lossy_round=0.1,
    )
    patch = mock.patch.object(
        RoundSupervisor, "_takes_direct_path", lambda _self, _faults: False
    )
    if message_path:
        with patch:
            report = supervisor.run(ROUNDS, plan)
    else:
        report = supervisor.run(ROUNDS, plan)
    pipeline = supervisor.remediation
    verdicts = [
        [
            (v.action_id, v.accepted, v.reason, repr(v.predicted_excess),
             repr(v.baseline_excess), repr(v.violations))
            for v in entry.verdicts
        ]
        for entry in pipeline.history
    ]
    rounds = [
        [(f.name, repr(getattr(r, f.name))) for f in dataclasses.fields(r)
         if f.name != "outcome"]
        + ([] if r.outcome is None else [
            np.asarray(r.outcome.payments.payment).tobytes(),
            np.asarray(r.outcome.execution_values).tobytes(),
        ])
        for r in report.rounds
    ]
    return plan, rounds, verdicts, pipeline.journal.to_json()


def test_shadow_verdicts_and_journal_match_the_message_path():
    plan, direct_rounds, direct_verdicts, direct_journal = _run(message_path=False)
    _, message_rounds, message_verdicts, message_journal = _run(message_path=True)

    # The plan mixes clean rounds with faulted ones, and the pipeline
    # actually dry-runs actions.
    assert 0 < sum(1 for f in plan if f.is_clean) < ROUNDS
    assert sum(len(v) for v in direct_verdicts) > 0

    assert direct_rounds == message_rounds
    assert direct_verdicts == message_verdicts
    assert direct_journal == message_journal

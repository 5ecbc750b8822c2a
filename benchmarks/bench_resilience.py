"""Ablation A18 — the resilience layer under seeded chaos.

Prices the supervised multi-round loop: how much retrying, restoring,
and quarantining the chaos schedule forces, and confirms the headline
robustness claim — a long mixed-fault campaign with **zero** invariant
violations (allocation feasibility, at-most-once payment, no pay
without verification, voluntary participation for honest survivors).

Runs two ways:

* under pytest with the other benches
  (``pytest benchmarks/bench_resilience.py --benchmark-only``);
* standalone as the CI smoke gate
  (``PYTHONPATH=src python benchmarks/bench_resilience.py --smoke``),
  which exits non-zero on any invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

if __name__ == "__main__":  # standalone: make src/ importable without install
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

import numpy as np

TRUE_VALUES = [1.0, 1.0, 2.0, 2.0, 5.0, 5.0, 10.0, 10.0]
RATE = 8.0


def run_campaign(
    n_rounds: int,
    seed: int,
    *,
    duration: float = 40.0,
) -> dict:
    """One seeded chaos campaign; returns a JSON-ready summary."""
    from repro.agents import TruthfulAgent
    from repro.resilience import ChaosHarness, FaultPlan, RoundSupervisor

    supervisor = RoundSupervisor(
        [TruthfulAgent(t) for t in TRUE_VALUES],
        RATE,
        duration=duration,
        rng=np.random.default_rng(seed),
    )
    plan = FaultPlan.generate(n_rounds, supervisor.machine_names, seed=seed)
    report = ChaosHarness(supervisor, plan, stop_on_violation=False).run()
    completed = [r for r in report.rounds if not r.voided]
    return {
        "machines": len(TRUE_VALUES),
        "arrival_rate": RATE,
        "seed": seed,
        "rounds": report.n_rounds,
        "rounds_voided": report.n_voided,
        "machine_faults_injected": plan.n_machine_faults,
        "coordinator_crashes_injected": plan.n_coordinator_crashes,
        "coordinator_restarts": report.n_coordinator_restarts,
        "bid_retries": sum(r.bid_retries for r in report.rounds),
        "report_retries": sum(r.report_retries for r in report.rounds),
        "slowdown_alerts": report.n_alerts,
        "quarantine_rounds": report.n_quarantine_events,
        "jobs_routed": sum(r.jobs_routed for r in report.rounds),
        "mean_realised_latency": (
            sum(r.outcome.realised_latency for r in completed) / len(completed)
            if completed
            else None
        ),
        "invariant_violations": [str(v) for v in report.violations],
    }


# --------------------------------------------------------------- pytest


def test_chaos_campaign(benchmark, record_result, record_json):
    summary = benchmark.pedantic(
        run_campaign, args=(30, 7), kwargs={"duration": 20.0}, rounds=1,
        iterations=1,
    )
    assert summary["invariant_violations"] == []
    assert summary["rounds"] == 30
    assert summary["coordinator_restarts"] > 0  # chaos actually bit

    from repro.experiments import render_table

    rows = [[key, value] for key, value in summary.items()
            if key != "invariant_violations"]
    rows.append(["invariant violations", len(summary["invariant_violations"])])
    record_result(
        "ablation_resilience_chaos",
        render_table(
            ["quantity", "value"],
            rows,
            title="A18. Supervised loop under 30 rounds of seeded chaos (n = 8).",
        ),
    )
    record_json("ablation_resilience_chaos", summary)


# ------------------------------------------------------------ standalone


def main(argv: list[str] | None = None) -> int:
    """CI entry point: run a campaign and fail on any violation."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast seeded campaign sized for CI (12 rounds)",
    )
    parser.add_argument("--rounds", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json", action="store_true", help="print the summary as JSON"
    )
    args = parser.parse_args(argv)

    rounds = 12 if args.smoke else args.rounds
    duration = 15.0 if args.smoke else 40.0
    summary = run_campaign(rounds, args.seed, duration=duration)

    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        for key, value in summary.items():
            if key != "invariant_violations":
                print(f"{key:32} {value}")
        print(f"{'invariant_violations':32} {len(summary['invariant_violations'])}")

    if summary["invariant_violations"]:
        for violation in summary["invariant_violations"]:
            print(f"VIOLATION: {violation}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

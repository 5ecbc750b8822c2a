"""Mechanism invariants that must survive every fault schedule.

The chaos harness re-checks these after *every* supervised round; a
violation means the resilience layer broke the economics the paper
proves, not merely that a round was slow or skipped:

* **feasibility** — a non-voided round allocates exactly the full
  arrival rate over the live machines: ``sum_i x_i = R``;
* **no pay without verification** — a machine whose execution could
  not be verified (missed report, so ``withheld``) receives a zero
  payment, and machines outside the round receive no payment notice
  at all;
* **at-most-once payment** — every machine receives at most one
  payment notice per round, and exactly one if it stayed in the round
  — including across a coordinator crash/restore (no double-pay, no
  lost payment);
* **ledger consistency** — the amount each machine was sent matches
  the mechanism outcome recomputed for the round;
* **finite outcome** — every load, payment and utility of a priced
  round is a finite float (NaN and ±inf never pass a tolerance check:
  every comparison here is written so that NaN fails it);
* **voluntary participation** — in rounds where every surviving
  participant executed as declared (no slowdown faults, nobody
  imputed), honest machines end with non-negative utility.  Rounds
  containing a slow or imputed machine are exempt: a deviator
  genuinely can drag the realised latency — and with it everyone's
  bonus — below zero, which is the mechanism's design, not a bug of
  the supervision layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.resilience.supervisor import RoundResult

__all__ = ["InvariantViolation", "InvariantError", "check_round_invariants"]


@dataclass(frozen=True)
class InvariantViolation:
    """One broken invariant in one round."""

    round_index: int
    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"round {self.round_index}: [{self.invariant}] {self.detail}"


class InvariantError(AssertionError):
    """Raised by the chaos harness when a round breaks an invariant."""

    def __init__(self, violations: list[InvariantViolation]) -> None:
        self.violations = violations
        super().__init__(
            "; ".join(str(v) for v in violations) or "no violations"
        )


def check_round_invariants(
    result: RoundResult,
    *,
    honest_names: set[str] | None = None,
    tol: float = 1e-9,
) -> list[InvariantViolation]:
    """All invariant violations of one supervised round (empty if sound)."""
    violations: list[InvariantViolation] = []

    def violated(invariant: str, detail: str) -> None:
        violations.append(InvariantViolation(result.index, invariant, detail))

    if result.voided:
        # A voided round must have routed nothing and paid nobody.
        if result.jobs_routed != 0:
            violated("voided", f"voided round routed {result.jobs_routed} jobs")
        paid = [n for n, count in result.payment_notices.items() if count > 0]
        if paid:
            violated("voided", f"voided round paid {paid}")
        return violations

    assert result.outcome is not None
    for label, values in (
        ("load", result.loads),
        ("payment", result.payments),
        ("utility", result.utilities),
    ):
        bad = {n: v for n, v in values.items() if not math.isfinite(v)}
        if bad:
            violated("non-finite", f"{label}s {bad!r}")

    total = sum(result.loads.values())
    if not abs(total - result.arrival_rate) <= tol * max(1.0, result.arrival_rate):
        violated(
            "feasibility",
            f"allocated {total!r} of arrival rate {result.arrival_rate!r}",
        )

    live = set(result.loads)
    for name in result.withheld:
        if result.payments.get(name, 0.0) != 0.0:
            violated(
                "unverified-paid",
                f"withheld machine {name} was paid {result.payments[name]!r}",
            )
    for name, count in result.payment_notices.items():
        if name in live:
            if count != 1:
                violated(
                    "at-most-once",
                    f"machine {name} received {count} payment notices",
                )
        elif count != 0:
            violated(
                "at-most-once",
                f"machine {name} is outside the round but received "
                f"{count} payment notices",
            )

    payments = result.outcome.payments
    order = list(result.loads)
    for k, name in enumerate(order):
        expected = 0.0 if name in result.withheld else float(payments.payment[k])
        sent = result.payments.get(name)
        if sent is None:
            violated("ledger", f"no payment recorded for live machine {name}")
        elif not abs(sent - expected) <= tol * max(1.0, abs(expected)):
            violated(
                "ledger",
                f"machine {name} was sent {sent!r}, outcome says {expected!r}",
            )

    # Voluntary participation: only meaningful when nobody distorted the
    # realised latency (see module docstring).
    distorted = bool(result.withheld) or any(
        kind == "slow_execution" and name in live
        for name, kind in result.fault_kinds.items()
    )
    if honest_names and not distorted:
        for name in live:
            if name not in honest_names:
                continue
            utility = result.utilities.get(name, 0.0)
            if utility < -tol:
                violated(
                    "voluntary-participation",
                    f"honest machine {name} ended with utility {utility!r}",
                )
    return violations

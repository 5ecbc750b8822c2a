"""The distributed verification mechanism.

Key observation enabling full distribution: under Definition 3.3, every
machine can compute its own allocation and payment from just **two
global sums** plus its local state —

* ``S = sum_j 1/b_j`` (from the bidding phase) gives machine ``i`` its
  own load ``x_i = R (1/b_i) / S`` *and* its leave-one-out term
  ``L_{-i} = R^2 / (S - 1/b_i)``;
* ``L = sum_j t̃_j x_j^2`` (from the execution phase) completes its
  bonus ``B_i = L_{-i} - L``; with the locally known compensation
  ``t̃_i x_i^2`` the payment is ``P_i = C_i + B_i``.

So the protocol is two tree-aggregation rounds (4 messages per machine
on any spanning tree) and zero central computation — the root only
relays sums.  With privacy enabled, each contribution to the two sums
is additively secret-shared across ``k`` aggregators, so no single
party (root included) learns any machine's bid or observed cost.

The outcome provably equals the centralised mechanism's; the test suite
asserts equality to machine precision, and ``bench_distributed.py``
compares message counts and latency across overlay shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import (
    as_float_array,
    check_positive,
    check_positive_scalar,
    check_same_length,
)
from repro.distributed.aggregation import AggregationStats, tree_sum
from repro.distributed.privacy import SecureSumAggregation
from repro.distributed.topology import Overlay, tree_overlay
from repro.mechanism.pricing import price_from_sums
from repro.types import AllocationResult, MechanismOutcome

__all__ = ["DistributedOutcome", "DistributedVerificationMechanism"]


@dataclass(frozen=True)
class DistributedOutcome:
    """Result of one distributed mechanism round."""

    outcome: MechanismOutcome
    total_messages: int
    rounds_of_latency: int
    privacy_shares_sent: int

    @property
    def messages_per_machine(self) -> float:
        """Control messages per participating machine (constant in n)."""
        return self.total_messages / self.outcome.allocation.n_machines


class DistributedVerificationMechanism:
    """Definition 3.3 computed by the machines themselves over a tree.

    Parameters
    ----------
    overlay:
        The spanning tree to aggregate over; defaults to a binary tree.
    n_aggregators:
        When > 0, the two global sums are computed through additive
        secret sharing across this many independent aggregators
        (privacy mode); 0 disables sharing (plain tree sums).
    rng:
        Randomness source for the privacy masks (required when
        ``n_aggregators > 0``).
    """

    def __init__(
        self,
        overlay: Overlay | None = None,
        *,
        n_aggregators: int = 0,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.overlay = overlay
        if n_aggregators < 0:
            raise ValueError("n_aggregators must be non-negative")
        if n_aggregators > 0 and rng is None:
            raise ValueError("privacy mode requires an rng for the masks")
        self.n_aggregators = n_aggregators
        self._rng = rng

    # ------------------------------------------------------------ protocol

    def _aggregate(
        self, overlay: Overlay, values: np.ndarray
    ) -> tuple[float, AggregationStats, int]:
        """One global-sum round, optionally through secret sharing."""
        if self.n_aggregators == 0:
            total, stats = tree_sum(overlay, values)
            return total, stats, 0

        # Privacy mode: machines secret-share their contributions; the
        # tree then carries k masked sums instead of one plain sum (the
        # per-round message count is unchanged: shares ride in one
        # message), and the aggregators combine at the end.
        assert self._rng is not None
        secure = SecureSumAggregation(self.n_aggregators, self._rng)
        for value in values:
            secure.contribute(float(value))
        # The masked subtotals still travel the same tree (same message
        # count); reuse tree_sum on a zero vector for the accounting.
        _, stats = tree_sum(overlay, np.zeros_like(values))
        return secure.result(), stats, secure.messages_sent()

    def run(
        self,
        bids: np.ndarray,
        arrival_rate: float,
        execution_values: np.ndarray | None = None,
        *,
        true_values: np.ndarray | None = None,
    ) -> DistributedOutcome:
        """Execute the two-round distributed protocol."""
        bids = as_float_array(bids, "bids")
        check_positive(bids, "bids")
        arrival_rate = check_positive_scalar(arrival_rate, "arrival_rate")
        if bids.size < 2:
            raise ValueError("the distributed mechanism needs at least two machines")
        if execution_values is None:
            execution_values = bids.copy()
        else:
            execution_values = as_float_array(execution_values, "execution_values")
            check_positive(execution_values, "execution_values")
            check_same_length("bids", bids, "execution_values", execution_values)

        overlay = self.overlay or tree_overlay(bids.size)
        if overlay.n_machines != bids.size:
            raise ValueError(
                f"overlay has {overlay.n_machines} machines but {bids.size} bids given"
            )

        # --- Round 1: aggregate S = sum 1/b_j; every node learns it. ---
        inverse_bids = 1.0 / bids
        total_inverse, stats1, shares1 = self._aggregate(overlay, inverse_bids)

        # Each machine now computes its own load locally.
        loads = arrival_rate * inverse_bids / total_inverse

        # --- Execution happens; each machine knows t̃_i x_i^2 locally. ---
        local_costs = execution_values * loads**2

        # --- Round 2: aggregate L = sum t̃_j x_j^2. ---
        realised_latency, stats2, shares2 = self._aggregate(overlay, local_costs)

        # --- Local payment computation at every machine. ---
        priced = price_from_sums(
            bids, execution_values, arrival_rate, total_inverse, realised_latency
        )

        allocation = AllocationResult(
            loads=loads,
            arrival_rate=arrival_rate,
            bids=bids,
            total_latency=float(np.dot(bids, loads**2)),
        )
        outcome = MechanismOutcome(
            allocation=allocation,
            payments=priced.payments_of(0),
            execution_values=execution_values,
            true_values=true_values,
            metadata={
                "mechanism": "DistributedVerificationMechanism",
                "overlay_depth": overlay.depth(),
                "privacy": self.n_aggregators,
            },
        )
        return DistributedOutcome(
            outcome=outcome,
            total_messages=stats1.total_messages + stats2.total_messages,
            rounds_of_latency=stats1.rounds_of_latency + stats2.rounds_of_latency,
            privacy_shares_sent=shares1 + shares2,
        )

"""Common interface for load balancing mechanisms.

A *mechanism* (Definition 3.2 of the paper) is a pair of functions: an
allocation rule mapping bids to loads, and a payment rule mapping bids
(and, for mechanisms *with verification*, observed execution values) to
per-agent payments.  Agents have quadratic costs ``t̃_i x_i^2`` — their
valuation is the negation of their total latency contribution — and
utility ``U_i = P_i + V_i``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro._validation import (
    as_float_array,
    check_positive,
    check_positive_scalar,
    check_same_length,
)
from repro.mechanism.pricing import price_rows
from repro.types import AllocationResult, MechanismOutcome, PaymentResult

__all__ = ["Mechanism"]


class Mechanism(ABC):
    """Abstract load balancing mechanism.

    Subclasses implement :meth:`allocate` and :meth:`payments`; the
    :meth:`run` template method validates inputs, wires the two stages
    together and packages a :class:`~repro.types.MechanismOutcome`.
    """

    #: whether the payment rule may depend on observed execution values
    uses_verification: bool = False

    # ------------------------------------------------------------ abstract

    @abstractmethod
    def allocate(self, bids: np.ndarray, arrival_rate: float) -> AllocationResult:
        """Compute the allocation from the declared latency slopes."""

    @abstractmethod
    def payments(
        self,
        allocation: AllocationResult,
        execution_values: np.ndarray,
    ) -> PaymentResult:
        """Compute per-agent payments.

        ``execution_values`` are the observed ``t̃_i``; mechanisms
        without verification must ignore them for the payment (they are
        still used to compute the agents' realised valuations).
        """

    # ------------------------------------------------------------ template

    def run(
        self,
        bids: np.ndarray,
        arrival_rate: float,
        execution_values: np.ndarray | None = None,
        *,
        true_values: np.ndarray | None = None,
    ) -> MechanismOutcome:
        """Execute the mechanism end to end.

        Parameters
        ----------
        bids:
            Declared latency slopes ``b_i`` (strictly positive).
        arrival_rate:
            Total job arrival rate ``R``.
        execution_values:
            Observed execution slopes ``t̃_i``.  Defaults to the bids
            (i.e. agents execute exactly as declared).
        true_values:
            Optional true slopes ``t_i``, recorded in the outcome for
            audits.  When given, execution values are checked against
            the model constraint ``t̃_i >= t_i`` ("an agent may execute
            the assigned jobs at a slower rate than its true processing
            rate", Section 3) — executing faster than capacity is
            physically impossible.
        """
        bids = as_float_array(bids, "bids")
        check_positive(bids, "bids")
        arrival_rate = check_positive_scalar(arrival_rate, "arrival_rate")

        if execution_values is None:
            execution_values = bids.copy()
        else:
            execution_values = as_float_array(execution_values, "execution_values")
            check_positive(execution_values, "execution_values")
            check_same_length("bids", bids, "execution_values", execution_values)

        if true_values is not None:
            true_values = as_float_array(true_values, "true_values")
            check_positive(true_values, "true_values")
            check_same_length("bids", bids, "true_values", true_values)
            if np.any(execution_values < true_values - 1e-12):
                bad = int(np.argmax(execution_values < true_values - 1e-12))
                raise ValueError(
                    f"execution value {execution_values[bad]:g} at machine {bad} "
                    f"is below its true value {true_values[bad]:g}; machines "
                    "cannot execute faster than their capacity"
                )

        allocation = self.allocate(bids, arrival_rate)
        payments = self.payments(allocation, execution_values)
        return MechanismOutcome(
            allocation=allocation,
            payments=payments,
            execution_values=execution_values,
            true_values=true_values,
            metadata={"mechanism": type(self).__name__},
        )

    # ------------------------------------------------------------ helpers

    @staticmethod
    def _price(
        allocation: AllocationResult, execution_values: np.ndarray, rule: str
    ) -> PaymentResult:
        """One profile through the shared pricing kernel (``B = 1``)."""
        executions = np.asarray(execution_values, dtype=np.float64)[None, :]
        return price_rows(
            allocation.bids[None, :], executions, allocation.arrival_rate, rule
        ).payments_of(0)

"""The paper's load balancing mechanism with verification (Definition 3.3).

The mechanism:

1. collects bids ``b`` and allocates by the PR algorithm ``x = x(b)``;
2. lets machines execute; the verification step observes the execution
   values ``t̃`` (``t̃_i >= t_i``);
3. pays each agent ``P_i = C_i + B_i`` with

   * compensation ``C_i = t̃_i x_i^2`` — exactly the agent's realised
     cost, and
   * bonus ``B_i = L_{-i}(b_{-i}) - L(x(b), t̃)`` — the optimal latency
     of the system without agent ``i`` minus the realised total
     latency, i.e. the agent's marginal contribution to reducing the
     total latency.

Because the compensation cancels the agent's cost, its utility equals
its bonus, which is maximised by making the realised latency as small
as possible — achieved exactly by bidding the truth and executing at
full capacity (Theorem 3.1); and since removing an agent can only
increase the optimal latency, the truthful bonus is non-negative
(Theorem 3.2, voluntary participation).

``compensation="declared"`` selects a variant that compensates at the
*declared* cost ``b_i x_i^2`` instead of the observed one.  This variant
reproduces the paper's Figure 2 narrative for experiment Low2 (negative
*payment*, not just negative utility) but is **not truthful** —
overbidding strictly increases an agent's utility (see DESIGN.md §2 and
``tests/mechanism/test_declared_variant.py`` for the demonstration).
"""

from __future__ import annotations

import numpy as np

from repro.allocation.pr import pr_allocation
from repro.mechanism.base import Mechanism
from repro.types import AllocationResult, PaymentResult

__all__ = ["VerificationMechanism"]

_COMPENSATION_MODES = ("observed", "declared")


class VerificationMechanism(Mechanism):
    """Compensation-and-bonus mechanism with verification for linear latencies.

    Parameters
    ----------
    compensation:
        ``"observed"`` (default, the paper's formal Definition 3.3:
        ``C_i = t̃_i x_i^2``) or ``"declared"`` (``C_i = b_i x_i^2``,
        the non-truthful variant matching the paper's Low2 prose).

    Examples
    --------
    >>> import numpy as np
    >>> mech = VerificationMechanism()
    >>> out = mech.run([1.0, 2.0], arrival_rate=3.0)
    >>> np.round(out.loads, 6)
    array([2., 1.])
    >>> out.realised_latency
    6.0

    On the paper's Table 1 system a truthful profile realises the
    headline optimum ``L = 78.43`` and every utility is non-negative
    (Theorem 3.2, voluntary participation):

    >>> from repro.experiments.table1 import TABLE1_TRUE_VALUES
    >>> out = mech.run(TABLE1_TRUE_VALUES, arrival_rate=20.0)
    >>> round(out.realised_latency, 2)
    78.43
    >>> bool((out.payments.utility >= 0.0).all())
    True

    Truthfulness (Theorem 3.1): a unilateral overbid can only lower an
    agent's utility:

    >>> truthful = mech.utility_of(0, 1.0, 1.0, [2.0], 3.0)
    >>> truthful
    12.0
    >>> truthful > mech.utility_of(0, 1.5, 1.0, [2.0], 3.0)
    True
    """

    uses_verification = True

    def __init__(self, compensation: str = "observed") -> None:
        if compensation not in _COMPENSATION_MODES:
            raise ValueError(
                f"compensation must be one of {_COMPENSATION_MODES}, got {compensation!r}"
            )
        self.compensation_mode = compensation

    # ------------------------------------------------------------ stages

    def allocate(self, bids: np.ndarray, arrival_rate: float) -> AllocationResult:
        """PR allocation on the declared slopes (Definition 3.3(i))."""
        return pr_allocation(bids, arrival_rate)

    def payments(
        self,
        allocation: AllocationResult,
        execution_values: np.ndarray,
    ) -> PaymentResult:
        """Compensation-and-bonus payments (Definition 3.3(ii)).

        Examples
        --------
        >>> import numpy as np
        >>> mech = VerificationMechanism()
        >>> alloc = mech.allocate(np.array([1.0, 2.0]), 3.0)
        >>> pay = mech.payments(alloc, np.array([1.0, 2.0]))
        >>> pay.compensation          # realised cost t̃_i x_i², repaid exactly
        array([4., 2.])
        >>> pay.bonus                 # L_{-i}* − L(x, t̃) = [18, 9] − 6
        array([12.,  3.])
        """
        return self._price(allocation, execution_values, self.compensation_mode)

    # ------------------------------------------------------------ analysis

    def utility_of(
        self,
        agent: int,
        bid: float,
        execution_value: float,
        other_bids: np.ndarray,
        arrival_rate: float,
    ) -> float:
        """Utility of one agent for a candidate (bid, execution) pair.

        ``other_bids`` are the bids of the remaining agents, assumed to
        execute as declared.  This is the objective an individual agent
        would optimise when contemplating a deviation; the
        best-response machinery in :mod:`repro.agents` builds on it.
        """
        other_bids = np.asarray(other_bids, dtype=np.float64)
        bids = np.insert(other_bids, agent, bid)
        execution = np.insert(other_bids, agent, execution_value)
        outcome = self.run(bids, arrival_rate, execution)
        return float(outcome.payments.utility[agent])

    def __repr__(self) -> str:
        return f"VerificationMechanism(compensation={self.compensation_mode!r})"

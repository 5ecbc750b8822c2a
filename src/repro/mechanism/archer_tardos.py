"""Archer–Tardos one-parameter mechanism for linear-latency load balancing.

Archer & Tardos (FOCS 2001 — the paper's ref [2]) give a recipe for
truthful mechanisms when each agent's cost is ``t_i * w_i(o)`` for a
single private parameter ``t_i`` and an output-dependent *work* level
``w_i``: the allocation must make ``w_i`` non-increasing in agent ``i``'s
bid, and the unique (normalised) truthful payment is

    ``P_i(b) = b_i w_i(b) + integral_{b_i}^{inf} w_i(u, b_{-i}) du``.

The load balancing problem fits this framework with **work = squared
load**: agent ``i``'s cost is ``t_i x_i^2 = t_i w_i`` with
``w_i = x_i^2``.  Under the PR allocation,

    ``x_i(u, b_{-i}) = R / (u S_{-i} + 1)``  with  ``S_{-i} = sum_{j != i} 1/b_j``,

which is strictly decreasing in the bid ``u``, so the monotonicity
condition holds and the payment integral has the closed form

    ``integral_{b}^{inf} R^2 / (u S + 1)^2 du = R^2 / (S (b S + 1))``.

This is the mechanism design approach of the companion paper (Grosu &
Chronopoulos, CLUSTER 2002 — ref [8], there applied to M/M/1 delays).
It is truthful in *bids* but, like VCG, has no verification step: the
payment cannot react to the observed execution values.

Strategic-layer queries (``best_response``, ``BestResponseDynamics``,
``simulate_learning``) run vectorized for this mechanism through the
``"archer_tardos"`` mode of :mod:`repro.agents.kernels`; the payment
formulas and kernel derivation are worked through in
``docs/mechanisms.md``.
"""

from __future__ import annotations

import numpy as np

from repro.allocation.pr import pr_allocation
from repro.mechanism.base import Mechanism
from repro.mechanism.pricing import work_integral
from repro.types import AllocationResult, PaymentResult

__all__ = ["ArcherTardosMechanism"]


class ArcherTardosMechanism(Mechanism):
    """One-parameter truthful payments with work curve ``w_i = x_i^2``."""

    uses_verification = False

    def allocate(self, bids: np.ndarray, arrival_rate: float) -> AllocationResult:
        """PR allocation (monotone: ``x_i`` decreases in ``b_i``)."""
        return pr_allocation(bids, arrival_rate)

    def payments(
        self,
        allocation: AllocationResult,
        execution_values: np.ndarray,
    ) -> PaymentResult:
        """Closed-form Archer–Tardos payments (vectorised over agents)."""
        return self._price(allocation, execution_values, "archer-tardos")

    # ------------------------------------------------------------ checks

    #: The closed-form work integral, the bonus term of :meth:`payments`,
    #: exposed so callers (and the regression test against
    #: :meth:`payment_integral_numeric`) can evaluate it alone.
    payment_integral = staticmethod(work_integral)

    @staticmethod
    def payment_integral_numeric(
        bid: float,
        s_minus: float,
        arrival_rate: float,
        *,
        epsabs: float = 1e-12,
        epsrel: float = 1e-12,
    ) -> float:
        """Numeric quadrature of the payment integral, for cross-checking.

        Evaluates ``integral_{bid}^{inf} (R / (u S + 1))^2 du`` with
        adaptive quadrature; :meth:`payment_integral` (the closed form
        :meth:`payments` uses on its hot path — scipy is only imported
        here, for this cross-check) must agree to solver precision
        (tested to ~1e-12 relative).
        """
        from scipy import integrate  # deferred: quadrature is check-only

        def work(u: float) -> float:
            return (arrival_rate / (u * s_minus + 1.0)) ** 2

        value, _abserr = integrate.quad(
            work, bid, np.inf, epsabs=epsabs, epsrel=epsrel
        )
        return float(value)

    def __repr__(self) -> str:
        return "ArcherTardosMechanism()"

"""Vectorised batch evaluation of the verification mechanism.

The audits, landscapes, and collusion scans evaluate the mechanism at
thousands of (bids, executions) profiles.  Each profile is closed form,
so the whole batch is too: this module evaluates ``K`` profiles in a
handful of ``(K, n)`` array operations instead of ``K`` Python-level
mechanism runs — the classic vectorise-the-outer-loop optimisation
(~50x at K = 10^4; measured in ``bench_batch.py``).

``batch_run`` only validates and packages: the pricing is
:func:`repro.mechanism.pricing.price_rows`, the same kernel
:class:`~repro.mechanism.VerificationMechanism` prices one profile
with, so every row equals the per-profile run bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro._validation import check_positive_scalar
from repro.mechanism.pricing import PricedRows, price_rows

__all__ = ["BatchOutcome", "batch_run", "batch_utility_of_agent"]


#: :func:`batch_run`'s result: the kernel's rows, one per profile.
BatchOutcome = PricedRows


def _validate_matrix(values: np.ndarray, name: str) -> np.ndarray:
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"{name} must be 2-D (profiles x machines)")
    if values.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must contain only finite values")
    if np.any(values <= 0.0):
        raise ValueError(f"all entries of {name} must be strictly positive")
    return values


def batch_run(
    bids: np.ndarray,
    arrival_rate: float,
    execution_values: np.ndarray | None = None,
    *,
    compensation: str = "observed",
) -> BatchOutcome:
    """Evaluate the verification mechanism at ``K`` profiles at once.

    Parameters
    ----------
    bids:
        Shape ``(K, n)``: one bid vector per row.
    arrival_rate:
        Common arrival rate ``R`` for the whole batch.
    execution_values:
        Shape ``(K, n)``; defaults to the bids.
    compensation:
        ``"observed"`` (Definition 3.3) or ``"declared"`` — the same
        modes as :class:`~repro.mechanism.VerificationMechanism`.
    """
    bids = _validate_matrix(bids, "bids")
    arrival_rate = check_positive_scalar(arrival_rate, "arrival_rate")
    if execution_values is None:
        execution_values = bids
    else:
        execution_values = _validate_matrix(execution_values, "execution_values")
        if execution_values.shape != bids.shape:
            raise ValueError("execution_values must have the same shape as bids")
    if compensation not in ("observed", "declared"):
        raise ValueError("compensation must be 'observed' or 'declared'")
    return price_rows(bids, execution_values, arrival_rate, compensation)


def batch_utility_of_agent(
    agent: int,
    agent_bids: np.ndarray,
    agent_executions: np.ndarray,
    other_values: np.ndarray,
    arrival_rate: float,
    *,
    compensation: str = "observed",
) -> np.ndarray:
    """Utility of one agent over a grid of its own deviations.

    The other agents' profile (``other_values``, whose ``agent`` entry
    is ignored — they bid and execute at those values) is collapsed to
    the sufficient statistics ``(S_{-i}, Q_{-i})`` once, then the
    candidate bids/executions (broadcast together) are evaluated through
    the closed-form kernel of :mod:`repro.agents.kernels` — O(K + n)
    instead of the former ``(K, n)``-tile evaluation.  This is the
    kernel behind fast landscapes and audits.
    """
    from repro.agents import kernels

    other_values = np.asarray(other_values, dtype=np.float64)
    if other_values.ndim != 1 or other_values.size < 2:
        raise ValueError(
            "other_values must be a 1-D vector of at least two machines"
        )
    arrival_rate = check_positive_scalar(arrival_rate, "arrival_rate")
    if compensation not in ("observed", "declared"):
        raise ValueError("compensation must be 'observed' or 'declared'")
    agent_bids, agent_executions = np.broadcast_arrays(
        np.asarray(agent_bids, dtype=np.float64),
        np.asarray(agent_executions, dtype=np.float64),
    )
    for name, values in (("agent_bids", agent_bids), ("agent_executions", agent_executions)):
        if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
            raise ValueError(f"all entries of {name} must be strictly positive and finite")

    s_minus, q_minus = kernels.sufficient_statistics(other_values, agent=agent)
    return kernels.utility_kernel(
        agent_bids,
        agent_executions,
        s_minus,
        q_minus,
        arrival_rate,
        compensation=compensation,
    )

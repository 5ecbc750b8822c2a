"""The PR algorithm: closed-form optimal allocation for linear latencies.

Implements Theorem 2.1 of the paper.  For latency slopes ``t`` (possibly
*declared* values — bids — rather than true ones) and total arrival rate
``R``, the total latency ``L(x) = sum_i t_i x_i^2`` subject to
``sum x_i = R, x >= 0`` is minimised by

    ``x_i* = (1/t_i) / (sum_j 1/t_j) * R``

("allocate in proportion to processing rate", hence *PR*), achieving

    ``L* = R^2 / (sum_j 1/t_j)``.

The mechanism layer additionally needs the optimal latency of every
*leave-one-out* subsystem, ``L_{-i}* = R^2 / (S - 1/t_i)`` with
``S = sum_j 1/t_j``; :func:`optimal_latency_excluding_each` computes all
``n`` of them in one vectorised expression instead of ``n`` solver calls.
"""

from __future__ import annotations

import numpy as np

from repro._validation import (
    as_float_array,
    check_index,
    check_positive,
    check_positive_scalar,
)
from repro.observability.instrumentation import timed_section
from repro.types import AllocationResult

__all__ = [
    "pr_loads",
    "pr_allocation",
    "optimal_total_latency",
    "optimal_latency_excluding_each",
    "optimal_latency_without",
]


def _validated(t: np.ndarray, arrival_rate: float) -> tuple[np.ndarray, float]:
    t = as_float_array(t, "t")
    check_positive(t, "t")
    arrival_rate = check_positive_scalar(arrival_rate, "arrival_rate")
    return t, arrival_rate


def pr_loads(t: np.ndarray, arrival_rate: float) -> np.ndarray:
    """Optimal per-machine loads for linear latency slopes ``t``.

    Parameters
    ----------
    t:
        Latency slopes (declared or true), strictly positive.
    arrival_rate:
        Total job arrival rate ``R`` to split.

    Returns
    -------
    numpy.ndarray
        Loads ``x_i = R (1/t_i) / sum_j (1/t_j)``.

    Examples
    --------
    >>> pr_loads([1.0, 1.0], 10.0)
    array([5., 5.])
    >>> pr_loads([1.0, 3.0], 8.0)
    array([6., 2.])
    """
    t, arrival_rate = _validated(t, arrival_rate)
    inv = 1.0 / t
    return arrival_rate * inv / inv.sum()


def optimal_total_latency(t: np.ndarray, arrival_rate: float) -> float:
    """Minimum total latency ``L* = R^2 / sum_j (1/t_j)`` (Theorem 2.1).

    Examples
    --------
    On the paper's Table 1 system (16 machines, ``R = 20``) this is the
    headline True1 optimum ``L* = 400 / 5.1 = 78.43``:

    >>> from repro.experiments.table1 import TABLE1_TRUE_VALUES
    >>> round(optimal_total_latency(TABLE1_TRUE_VALUES, 20.0), 2)
    78.43
    """
    t, arrival_rate = _validated(t, arrival_rate)
    return arrival_rate**2 / float(np.sum(1.0 / t))


def pr_allocation(t: np.ndarray, arrival_rate: float) -> AllocationResult:
    """Run the PR algorithm and package the result.

    Returns an :class:`~repro.types.AllocationResult` whose
    ``total_latency`` is evaluated at the declared slopes ``t``.

    Examples
    --------
    >>> result = pr_allocation([1.0, 3.0], 8.0)
    >>> result.loads
    array([6., 2.])
    >>> result.total_latency
    48.0

    The Table 1 optimum again, through the packaged interface:

    >>> from repro.experiments.table1 import TABLE1_TRUE_VALUES
    >>> round(pr_allocation(TABLE1_TRUE_VALUES, 20.0).total_latency, 2)
    78.43
    """
    t, arrival_rate = _validated(t, arrival_rate)
    with timed_section("allocation.pr.seconds"):
        inv = 1.0 / t
        total_inv = float(inv.sum())
        loads = arrival_rate * inv / total_inv
    return AllocationResult(
        loads=loads,
        arrival_rate=arrival_rate,
        bids=t,
        # R * R, not R**2: a float's ``**`` calls libm ``pow``, which can
        # miss the correctly rounded square by an ulp; the pricing kernel
        # squares elementwise, and both must give the same L*.
        total_latency=arrival_rate * arrival_rate / total_inv,
    )


def optimal_latency_excluding_each(t: np.ndarray, arrival_rate: float) -> np.ndarray:
    """Optimal latency of every leave-one-out subsystem, vectorised.

    Entry ``i`` is ``L_{-i}* = R^2 / (S - 1/t_i)`` — the minimum total
    latency achievable when machine ``i`` is removed and the full rate
    ``R`` is spread over the remaining machines.  This is the
    ``h_i(b_{-i})`` term of the paper's bonus (Definition 3.3) and of
    the VCG pivot payment.

    Raises
    ------
    ValueError
        If fewer than two machines are present (a leave-one-out system
        would be empty).

    Examples
    --------
    >>> optimal_latency_excluding_each([1.0, 1.0], 10.0)
    array([100., 100.])
    """
    t, arrival_rate = _validated(t, arrival_rate)
    if t.size < 2:
        raise ValueError("leave-one-out latency requires at least two machines")
    inv = 1.0 / t
    remaining = inv.sum() - inv
    return arrival_rate**2 / remaining


def optimal_latency_without(t: np.ndarray, index: int, arrival_rate: float) -> float:
    """Optimal latency when the machine at ``index`` is excluded.

    Examples
    --------
    >>> optimal_latency_without([1.0, 1.0], 0, 10.0)
    100.0
    """
    t, arrival_rate = _validated(t, arrival_rate)
    index = check_index(index, t.size, "index")
    if t.size < 2:
        raise ValueError("leave-one-out latency requires at least two machines")
    inv = 1.0 / t
    return arrival_rate**2 / float(inv.sum() - inv[index])

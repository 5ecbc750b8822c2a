"""The one pricing kernel behind every payment rule.

Every closed-form mechanism here allocates by the PR rule (Theorem 2.1)
and pays a compensation plus a bonus (Definition 3.3).  For bids ``b``,
observed executions ``t̃`` and rate ``R``: loads ``x_i = R (1/b_i) / S``
with ``S = sum_j 1/b_j``, leave-one-out optima ``L_{-i} = R^2 / S_{-i}``
with ``S_{-i} = S - 1/b_i``, and realised latency ``L = sum_j t̃_j x_j^2``.
The rules in :data:`RULES` differ only in two terms:

=================  ==============  ====================================
rule               compensation    bonus
=================  ==============  ====================================
``observed``       ``t̃_i x_i^2``   ``L_{-i} - L`` (Definition 3.3)
``declared``       ``b_i x_i^2``   ``L_{-i} - L`` (not truthful)
``vcg``            ``b_i x_i^2``   ``L_{-i} - sum_j b_j x_j^2`` (Clarke)
``archer-tardos``  ``b_i x_i^2``   ``R^2 / (S_{-i} (b_i S_{-i} + 1))``
=================  ==============  ====================================

:func:`price_rows` prices a ``(B, n)`` block, one profile per row; a
single run is ``B = 1``.  Every operation is elementwise, a last-axis
sum, or a per-row dot (:func:`_row_dots`), and NumPy does each of those
the same way for one row as for ``B``, so a profile gets the same bits
alone or stacked.  :func:`price_from_sums` is the observed rule for
callers that only see the fleet-wide sums ``S`` and ``L`` (shards, the
distributed mechanism).  Both return finite numbers or raise
:class:`NonFiniteOutcomeError`, and both record the
``mechanism.payments.seconds`` histogram.

On the paper's Table 1 system truthful bids realise ``L* = 78.43``:

>>> import numpy as np
>>> from repro.experiments.table1 import TABLE1_TRUE_VALUES
>>> t = np.array([TABLE1_TRUE_VALUES])
>>> [round(float(price_rows(t, t, 20.0, rule).realised_latency[0]), 2)
...  for rule in RULES]
[78.43, 78.43, 78.43, 78.43]

Two machines ``b = t = (1, 2)`` at ``R = 3``: loads ``(2, 1)``,
``L_{-i} = (18, 9)`` and ``L = 6``, so the bonuses are ``(12, 3)``,
also from the sums ``S = 1.5`` and ``L = 6``:

>>> two = np.array([[1.0, 2.0]])
>>> priced = price_rows(two, two, 3.0, "observed")
>>> priced.loads, priced.compensation, priced.bonus
(array([[2., 1.]]), array([[4., 2.]]), array([[12.,  3.]]))
>>> price_from_sums(two[0], two[0], 3.0, 1.5, 6.0).bonus
array([[12.,  3.]])
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.observability.instrumentation import timed_section
from repro.types import PaymentResult

__all__ = [
    "NonFiniteOutcomeError",
    "PricedRows",
    "RULES",
    "price_from_sums",
    "price_rows",
    "work_integral",
]


class NonFiniteOutcomeError(ValueError):
    """Pricing overflowed or divided by zero: an output is NaN or inf.

    E.g. bids near the top of the float64 range (``R^2 / S_{-i}``
    overflows) or bid ratios so extreme that ``S_{-i}`` rounds to zero.
    """


class PricedRows(NamedTuple):
    """Loads, latencies and payments of ``B`` priced profiles.

    Per-machine arrays have shape ``(B, n)``, the latencies ``(B,)``;
    ``payment = compensation + bonus`` and ``utility = payment +
    valuation`` hold element-wise, as in
    :class:`~repro.types.PaymentResult`.
    """

    loads: np.ndarray
    declared_latency: np.ndarray  # R^2 / S
    realised_latency: np.ndarray  # sum_j t̃_j x_j^2
    compensation: np.ndarray
    bonus: np.ndarray
    valuation: np.ndarray

    @property
    def payment(self) -> np.ndarray:
        """Compensation plus bonus."""
        return self.compensation + self.bonus

    @property
    def utility(self) -> np.ndarray:
        """Payment plus (negative) valuation."""
        return self.payment + self.valuation

    @property
    def n_profiles(self) -> int:
        """Number of priced profiles ``B``."""
        return int(self.loads.shape[0])

    def payments_of(self, row: int) -> PaymentResult:
        """One row as a :class:`~repro.types.PaymentResult`."""
        return PaymentResult(
            compensation=self.compensation[row],
            bonus=self.bonus[row],
            valuation=self.valuation[row],
        )


def _row_dots(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Per-row dots: ``(B, 1, n) @ (B, n, 1)`` runs ``np.dot``'s kernel
    per row, so each equals ``np.dot(left[k], right[k])`` bit for bit
    (``einsum`` and ``(left * right).sum(axis=1)`` reduce differently)."""
    return (left[:, None, :] @ right[:, :, None])[:, 0, 0]


def work_integral(bids, s_minus, arrival_rate):
    """Closed form of the Archer–Tardos work integral (vectorised).

    ``integral_{b}^{inf} (R / (u S_{-i} + 1))^2 du
    = R^2 / (S_{-i} (b S_{-i} + 1))`` — the ``archer-tardos`` bonus,
    also exposed as ``ArcherTardosMechanism.payment_integral``.  Accepts
    scalars or broadcast-compatible arrays.
    """
    bids = np.asarray(bids, dtype=np.float64)
    s_minus = np.asarray(s_minus, dtype=np.float64)
    return arrival_rate**2 / (s_minus * (bids * s_minus + 1.0))


class _Terms(NamedTuple):
    """What a rule's terms may read; per-row values are ``(B, 1)``."""

    bids: np.ndarray
    rates: np.ndarray
    loads_sq: np.ndarray
    cost: np.ndarray  # t̃_i x_i^2
    s_minus: np.ndarray  # S_{-i}
    excluded: np.ndarray  # L_{-i}
    realised: np.ndarray  # L


def _declared_cost(t: _Terms) -> np.ndarray:
    return t.bids * t.loads_sq


def _realised_bonus(t: _Terms) -> np.ndarray:
    return t.excluded - t.realised


#: Rule name -> ``(compensation term, bonus term)``.
RULES = {
    "observed": (lambda t: t.cost, _realised_bonus),
    "declared": (_declared_cost, _realised_bonus),
    "vcg": (
        _declared_cost,
        lambda t: t.excluded - _row_dots(t.bids, t.loads_sq)[:, None],
    ),
    "archer-tardos": (
        _declared_cost,
        lambda t: work_integral(t.bids, t.s_minus, t.rates),
    ),
}


def _priced(rule, bids, executions, rates, total_inverse, realised) -> PricedRows:
    """Price ``(B, n)`` rows; ``rates``, ``S`` and ``L`` are ``(B, 1)``
    columns, and ``S`` and ``L`` are summed from the rows when ``None``."""
    compensation_term, bonus_term = RULES[rule]
    with timed_section("mechanism.payments.seconds"), np.errstate(
        over="ignore", divide="ignore", invalid="ignore"
    ):
        inv = 1.0 / bids
        if total_inverse is None:
            total_inverse = inv.sum(axis=1, keepdims=True)
        loads = rates * inv / total_inverse
        loads_sq = loads**2
        if realised is None:
            realised = _row_dots(executions, loads_sq)[:, None]
        cost = executions * loads_sq
        rates_sq = rates**2
        s_minus = total_inverse - inv
        terms = _Terms(
            bids, rates, loads_sq, cost, s_minus, rates_sq / s_minus, realised
        )
        declared = rates_sq / total_inverse
        compensation = compensation_term(terms)
        bonus = bonus_term(terms)
        # Loads need no check: executions are positive and finite, so the
        # valuations -cost are finite exactly when the loads are.
        outputs = (declared, realised, compensation, bonus, cost)
        if not np.isfinite(np.concatenate(outputs, axis=1)).all():
            raise NonFiniteOutcomeError(
                "pricing produced a non-finite latency, payment or valuation: "
                "the bids, executions or rate are outside what float64 can price"
            )
    return PricedRows(
        loads, declared[:, 0], realised[:, 0], compensation, bonus, -cost
    )


def price_rows(bids: np.ndarray, executions: np.ndarray, rates, rule: str) -> PricedRows:
    """Price a ``(B, n)`` block of profiles under one rule of :data:`RULES`.

    ``bids`` and ``executions`` are C-contiguous float64 ``(B, n)``
    arrays, positive and finite (callers validate), with ``n >= 2``;
    ``rates`` is one arrival rate per row, or a scalar for all rows.
    Raises :class:`NonFiniteOutcomeError` if any output is NaN or inf.
    """
    if rule not in RULES:
        raise ValueError(f"rule must be one of {tuple(RULES)}, got {rule!r}")
    if bids.shape[1] < 2:
        raise ValueError("leave-one-out latency requires at least two machines")
    rates = np.asarray(rates, dtype=np.float64).reshape(-1, 1)
    return _priced(rule, bids, executions, rates, None, None)


def price_from_sums(
    bids: np.ndarray,
    executions: np.ndarray,
    rate: float,
    total_inverse: float,
    realised_latency: float,
) -> PricedRows:
    """Observed-rule pricing of ``n`` machines from the fleet-wide sums.

    ``bids`` and ``executions`` (shape ``(n,)``) may be a slice of the
    fleet; ``total_inverse`` is the fleet's ``S`` and
    ``realised_latency`` its ``L``.  Returns one row.  Given the sums of
    the whole fleet it matches :func:`price_rows` only to rounding: ``L``
    comes from another reduction (a tree sum, or ``(R/S)^2 Q``).
    """
    return _priced(
        "observed",
        bids[None, :],
        executions[None, :],
        np.full((1, 1), rate),
        np.full((1, 1), total_inverse),
        np.full((1, 1), realised_latency),
    )

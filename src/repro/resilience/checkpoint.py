"""Coordinator checkpoint/restore: crash the mechanism, not the round.

The coordinator is a single point of failure: if it dies mid-round the
machines have already burned cycles executing jobs, and naively
restarting it either loses the round or — worse — pays twice.  The fix
is the standard write-ahead pattern: the coordinator persists its
*inputs* (phase, collected bids, decided loads, received reports, and
the set of payments already issued) before acting on them, and a
restarted coordinator deterministically recomputes everything derived
(estimates, outcome, remaining payments) from that record.

Persistence is one write-ahead log (WAL) per round, held by a
:class:`CheckpointStore`:

* a full :class:`CoordinatorCheckpoint` **snapshot** only at a phase
  transition — ``BIDDING`` (at start, empty), ``EXECUTING``,
  ``VERIFYING`` and ``DONE``/``VOIDED``, at most four per clean round;
* one O(1) **record** per event in between: a bid (as recorded, after
  remediation overrides), a completion report, or an issued payment,
  each a JSON line ``["bid", name, bid]``,
  ``["report", name, jobs, mean_sojourn]`` or
  ``["payment", name, payment, compensation, bonus]`` — or one
  ``["payments", names, packed]`` record for a batch of payments
  issued together (a shard's settle);
* :meth:`CheckpointStore.load` replays the records onto the last
  snapshot, and returns the checkpoint a full save at that moment
  would have written.

Two properties matter and are enforced by tests and the chaos harness:

* **resume, don't redo** — a coordinator restored in ``EXECUTING``
  keeps the allocation it already announced and simply continues
  collecting reports; one restored in ``VERIFYING`` re-derives the
  outcome and issues only the payments *not* in ``payments_sent``
  (at-most-once payment semantics);
* **void, don't guess** — a coordinator restored before any allocation
  was announced (``IDLE``/``BIDDING``) voids the round: no allocation
  reached any machine, so abandoning is safe and cheap.

Checkpoints round-trip through strict JSON (RFC 8259: no ``NaN`` or
``Infinity`` tokens) so the "durable store" can be a file, a database
row, or (in tests) an in-memory string — the serialisation boundary is
what proves no live object sneaks through.  Numeric columns travel as
base64 little-endian float64/int64, which keeps the round trip
bit-exact.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.observability.instrumentation import record_counter, timed_section

__all__ = ["CoordinatorCheckpoint", "CheckpointStore"]


@dataclass(frozen=True)
class CoordinatorCheckpoint:
    """Everything a restarted coordinator needs to resume a round.

    Attributes
    ----------
    phase:
        The :class:`~repro.protocol.ProtocolPhase` value string.
    machine_names:
        Machines still in the round (responders after any exclusion).
    arrival_rate:
        Total rate ``R`` being allocated.
    bids:
        Collected bids by machine name.
    loads:
        The announced allocation in ``machine_names`` order, or
        ``None`` if no allocation was decided yet.
    reports:
        Received completion reports: name → (jobs_completed,
        mean_sojourn).
    excluded / withheld:
        Names excluded at the bid deadline / whose payment is withheld.
    payments_sent:
        Payments already issued: name → (payment, compensation, bonus).
        The restore path never re-issues these.
    """

    phase: str
    machine_names: list[str]
    arrival_rate: float
    bids: dict[str, float] = field(default_factory=dict)
    loads: list[float] | None = None
    reports: dict[str, tuple[int, float]] = field(default_factory=dict)
    excluded: list[str] = field(default_factory=list)
    withheld: list[str] = field(default_factory=list)
    payments_sent: dict[str, tuple[float, float, float]] = field(
        default_factory=dict
    )

    def to_json(self) -> str:
        """Serialise to a strict JSON string (the durable representation).

        Names stay JSON strings; every number is packed into a base64
        column (:func:`_pack`), so the encode is a few C calls rather
        than one ``repr`` per float, the round trip is bit-exact (NaN
        payloads, ``-0.0``, subnormals) and no ``NaN``/``Infinity``
        token is ever written.  A map keyed by exactly
        ``machine_names`` stores ``null`` instead of repeating them.
        """
        names = self.machine_names
        jobs, sojourns = (
            zip(*self.reports.values()) if self.reports else ((), ())
        )
        payments = np.array(
            list(self.payments_sent.values()), dtype=np.float64
        ).reshape(-1, 3)
        return json.dumps(
            {
                "phase": self.phase,
                "machine_names": names,
                "arrival_rate": _pack([self.arrival_rate]),
                "bids": {
                    "names": _keys(self.bids, names),
                    "values": _pack(list(self.bids.values())),
                },
                "loads": None if self.loads is None else _pack(self.loads),
                "reports": {
                    "names": _keys(self.reports, names),
                    "jobs": _pack(jobs, _INT),
                    "mean_sojourns": _pack(sojourns),
                },
                "excluded": self.excluded,
                "withheld": self.withheld,
                "payments_sent": {
                    "names": _keys(self.payments_sent, names),
                    "amounts": _pack(payments),
                },
            },
            allow_nan=False,
        )

    @classmethod
    def from_json(cls, payload: str) -> "CoordinatorCheckpoint":
        """Rebuild a checkpoint from its JSON representation."""
        raw = json.loads(payload)
        names = list(raw["machine_names"])

        def keys(column: dict) -> list[str]:
            return names if column["names"] is None else column["names"]

        bids, reports, paid = raw["bids"], raw["reports"], raw["payments_sent"]
        amounts = _unpack(paid["amounts"]).reshape(-1, 3).tolist()
        return cls(
            phase=raw["phase"],
            machine_names=names,
            arrival_rate=_unpack(raw["arrival_rate"]).tolist()[0],
            bids=dict(zip(keys(bids), _unpack(bids["values"]).tolist())),
            loads=None if raw["loads"] is None else _unpack(raw["loads"]).tolist(),
            reports=dict(
                zip(
                    keys(reports),
                    zip(
                        _unpack(reports["jobs"], _INT).tolist(),
                        _unpack(reports["mean_sojourns"]).tolist(),
                    ),
                )
            ),
            excluded=list(raw["excluded"]),
            withheld=list(raw["withheld"]),
            payments_sent=dict(zip(keys(paid), map(tuple, amounts))),
        )


_FLOAT = np.dtype("<f8")
_INT = np.dtype("<i8")


def _pack(values, dtype: np.dtype = _FLOAT) -> str:
    """Base64 of ``values`` as little-endian ``dtype`` (bit-exact)."""
    column = np.ascontiguousarray(values, dtype=dtype)
    return base64.b64encode(column.tobytes()).decode("ascii")


def _unpack(text: str, dtype: np.dtype = _FLOAT) -> np.ndarray:
    """Inverse of :func:`_pack`."""
    return np.frombuffer(base64.b64decode(text), dtype=dtype)


def _keys(mapping: dict, names: list[str]) -> list[str] | None:
    """``mapping``'s keys, or ``None`` when they are exactly ``names``."""
    keys = list(mapping)
    return None if keys == names else keys


def _value(value):
    """Decode one record value: a number, or a packed non-finite float."""
    return _unpack(value).tolist()[0] if isinstance(value, str) else value


class CheckpointStore:
    """One round's write-ahead log: a base snapshot plus appended records.

    Stores the *serialised* form: every snapshot and every record
    round-trips through JSON, so anything that would not survive a real
    process restart fails loudly in tests rather than silently working
    in memory.

    Snapshots are O(n) to write, so a coordinator calls :meth:`save`
    only at a phase transition and logs each event in between in O(1)
    (:meth:`append_bid`, :meth:`append_report`, :meth:`append_payment`);
    per-event snapshots would make a round O(n²).  A caller that issues
    a whole batch of payments at once (a shard's settle) logs them as
    one packed record with :meth:`append_payments`.  Saving a fresh
    snapshot subsumes (and clears) the log.
    """

    def __init__(self) -> None:
        self._payload: str | None = None
        self._records: list[str] = []
        self.saves = 0
        self.appends = 0

    @property
    def has_snapshot(self) -> bool:
        """Whether a base snapshot exists for the log to build on."""
        return self._payload is not None

    @property
    def records(self) -> int:
        """Log records written since the last snapshot."""
        return len(self._records)

    def save(self, checkpoint: CoordinatorCheckpoint) -> None:
        """Persist ``checkpoint``, replacing any previous one and the log."""
        with timed_section("resilience.checkpoint.save.seconds"):
            self._payload = checkpoint.to_json()
        self._records.clear()
        self.saves += 1
        record_counter("resilience.checkpoint.saves")

    def append_bid(self, name: str, bid: float) -> None:
        """Log one recorded bid (after any remediation override)."""
        self._append("bid", name, (float(bid),))

    def append_report(
        self, name: str, jobs_completed: int, mean_sojourn: float
    ) -> None:
        """Log one received completion report."""
        self._append("report", name, (int(jobs_completed), float(mean_sojourn)))

    def append_payment(
        self, name: str, amounts: tuple[float, float, float]
    ) -> None:
        """Log one issued payment: (payment, compensation, bonus)."""
        payment, compensation, bonus = amounts
        self._append(
            "payment", name, (float(payment), float(compensation), float(bonus))
        )

    def append_payments(self, names: list[str], amounts) -> None:
        """Log a batch of issued payments as one record.

        ``amounts`` holds one (payment, compensation, bonus) row per
        name.  The record is ``["payments", names, packed]`` with the
        ``(k, 3)`` block packed like a snapshot column, so a batch costs
        one short encode however many members it pays.
        """
        block = np.asarray(amounts, dtype=np.float64).reshape(-1, 3)
        if block.shape[0] != len(names):
            raise ValueError(
                f"expected {len(names)} payment rows, got {block.shape[0]}"
            )
        self._require_snapshot("payments")
        self._records.append(
            f'["payments", {json.dumps(list(names))}, "{_pack(block)}"]'
        )
        self.appends += 1

    def _require_snapshot(self, kind: str) -> None:
        if self._payload is None:
            raise RuntimeError(
                f"cannot journal a {kind} with no base snapshot saved"
            )

    def _append(self, kind: str, name: str, values: tuple) -> None:
        """Serialise one ``[kind, name, *values]`` record in O(1).

        The record is encoded immediately — the same durability
        discipline as :meth:`save` — so it costs one short JSON line
        instead of a full O(n) snapshot.
        """
        self._require_snapshot(kind)
        total = sum(values)
        # repr() of a finite float (or any int) is shortest-round-trip
        # decimal, which is valid JSON — the fast path skips the json
        # encoder entirely (this is the per-event hot path).  A finite
        # sum implies every value is finite; names needing escapes and
        # non-finite values take the slow path, where a non-finite
        # value is written as its packed bits (JSON has no NaN/inf).
        if (
            total - total == 0.0
            and '"' not in name
            and "\\" not in name
            and name.isprintable()
        ):
            entry = f'["{kind}", "{name}", {", ".join(map(repr, values))}]'
        else:
            packed = [v if math.isfinite(v) else _pack([v]) for v in values]
            entry = json.dumps([kind, name, *packed], allow_nan=False)
        self._records.append(entry)
        self.appends += 1

    def load(self) -> CoordinatorCheckpoint | None:
        """The current checkpoint, or ``None`` if nothing was saved.

        The logged records are replayed in order onto the snapshot's
        bids, reports and ``payments_sent``, so the restore path sees
        one coherent state whether an event arrived via snapshot or log.
        """
        if self._payload is None:
            return None
        with timed_section("resilience.checkpoint.load.seconds"):
            checkpoint = CoordinatorCheckpoint.from_json(self._payload)
            if self._records:
                bids = dict(checkpoint.bids)
                reports = dict(checkpoint.reports)
                payments = dict(checkpoint.payments_sent)
                for kind, name, *values in json.loads(
                    "[" + ",".join(self._records) + "]"
                ):
                    if kind == "payments":  # name: the batch's names
                        block = _unpack(values[0]).reshape(-1, 3).tolist()
                        payments.update(zip(name, map(tuple, block)))
                        continue
                    values = [_value(v) for v in values]
                    if kind == "bid":
                        bids[name] = float(values[0])
                    elif kind == "report":
                        reports[name] = (int(values[0]), float(values[1]))
                    else:
                        payments[name] = tuple(float(x) for x in values)
                checkpoint = replace(
                    checkpoint, bids=bids, reports=reports, payments_sent=payments
                )
        record_counter("resilience.checkpoint.loads")
        return checkpoint

    def clear(self) -> None:
        """Drop the stored checkpoint (end of a completed round)."""
        self._payload = None
        self._records.clear()

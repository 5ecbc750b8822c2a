"""Property-based tests for the coordinator's write-ahead log (hypothesis).

:class:`~repro.resilience.CheckpointStore` keeps one log per round: a
full snapshot at each phase transition plus one record per bid, report
and payment.  Its contract, exercised here over random bid and report
orders, silent machines, remediation overrides and crash points:

* after every coordinator event, and before every message the
  coordinator sends, ``store.load()`` equals ``coordinator.checkpoint()``
  — a replay of snapshot + records is indistinguishable from a full
  save at that moment;
* a coordinator restored from that replay finishes the round exactly
  as an uncrashed one would, paying every machine once;
* every snapshot and record is strict JSON (no ``NaN``/``Infinity``
  tokens) and round-trips bit for bit: NaN payloads, infinities,
  ``-0.0``, subnormals, names needing escapes, empty maps.
"""

from __future__ import annotations

import json
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mechanism import VerificationMechanism
from repro.protocol import ProtocolPhase
from repro.protocol.coordinator import COORDINATOR_NAME
from repro.protocol.messages import BidReply, CompletionReport, PaymentNotice
from repro.resilience import (
    CheckpointStore,
    CoordinatorCheckpoint,
    CoordinatorCrash,
    SupervisedCoordinator,
)


class _CheckingNetwork:
    """Records sent messages; asserts the log is current before each send."""

    def __init__(self, store: CheckpointStore) -> None:
        self.store = store
        self.sent: list = []
        self.coordinator: SupervisedCoordinator | None = None

    def send(self, message) -> None:
        if self.coordinator is not None:
            assert self.store.load() == self.coordinator.checkpoint()
        self.sent.append(message)


@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    names = [f"C{i + 1}" for i in range(n)]
    values = st.floats(min_value=0.5, max_value=20.0)
    bids = {name: draw(values) for name in names}
    overrides = {
        name: draw(values)
        for name in draw(st.lists(st.sampled_from(names), unique=True))
    }
    silent_bidders = set(draw(st.lists(st.sampled_from(names), unique=True)))
    silent_reporters = set(draw(st.lists(st.sampled_from(names), unique=True)))
    reports = {
        name: (
            draw(st.integers(min_value=0, max_value=60)),
            draw(st.floats(min_value=0.1, max_value=50.0)),
        )
        for name in names
    }
    crash = draw(
        st.one_of(
            st.none(),
            st.tuples(
                st.sampled_from(["bidding", "executing", "paying"]),
                st.integers(min_value=0, max_value=n - 1),
            ),
        )
    )
    return {
        "names": names,
        "bids": bids,
        "bid_order": draw(st.permutations(names)),
        "report_order": draw(st.permutations(names)),
        "overrides": overrides,
        "silent_bidders": silent_bidders,
        "silent_reporters": silent_reporters,
        "reports": reports,
        "crash": crash,
    }


def _play(scenario: dict, *, crash: bool):
    """Drive one round; returns (final coordinator, network, restarts)."""
    store = CheckpointStore()
    network = _CheckingNetwork(store)
    point, after = scenario["crash"] if crash and scenario["crash"] else (None, -1)
    coordinator = SupervisedCoordinator(
        mechanism=VerificationMechanism(),
        machine_names=list(scenario["names"]),
        arrival_rate=6.0,
        network=network,
        checkpoint_store=store,
        bid_overrides=dict(scenario["overrides"]),
        fail_after_payments=after if point == "paying" else None,
    )
    network.coordinator = coordinator
    restarts = 0

    def check() -> None:
        assert store.load() == network.coordinator.checkpoint()

    def restart() -> SupervisedCoordinator:
        nonlocal restarts
        check()
        restored = SupervisedCoordinator.restore(
            store.load(),
            mechanism=VerificationMechanism(),
            network=network,
            checkpoint_store=store,
        )
        network.coordinator = restored
        restarts += 1
        restored.resume()
        check()
        return restored

    def guarded(action) -> None:
        nonlocal coordinator
        try:
            action()
        except CoordinatorCrash:
            coordinator = restart()

    coordinator.start()
    check()
    bidders = [n for n in scenario["bid_order"] if n not in scenario["silent_bidders"]]
    for k, name in enumerate(bidders):
        if point == "bidding" and k == after:
            coordinator = restart()
        if coordinator.phase is not ProtocolPhase.BIDDING:
            break
        bid = scenario["bids"][name]
        guarded(
            lambda: coordinator.handle(
                BidReply(sender=name, receiver=COORDINATOR_NAME, bid=bid), None
            )
        )
        check()
    guarded(lambda: coordinator.close_bidding(void_if_empty=True))
    check()

    reporters = [
        n
        for n in scenario["report_order"]
        if n in coordinator.machine_names and n not in scenario["silent_reporters"]
    ]
    for k, name in enumerate(reporters):
        if coordinator.phase is not ProtocolPhase.EXECUTING:
            break
        if point == "executing" and k == after:
            coordinator = restart()
        jobs, sojourn = scenario["reports"][name]
        guarded(
            lambda: coordinator.handle(
                CompletionReport(
                    sender=name,
                    receiver=COORDINATOR_NAME,
                    jobs_completed=jobs,
                    mean_sojourn=sojourn,
                ),
                None,
            )
        )
        check()
    guarded(coordinator.close_reporting)
    check()
    return coordinator, network, restarts


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_replayed_log_equals_a_full_checkpoint_after_every_event(scenario):
    coordinator, network, _ = _play(scenario, crash=True)
    assert coordinator.phase in (ProtocolPhase.DONE, ProtocolPhase.VOIDED)
    assert network.store.saves <= 4


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_restored_round_pays_like_an_uncrashed_one_and_at_most_once(scenario):
    crashed, crashed_net, restarts = _play(scenario, crash=True)
    clean, _, _ = _play(scenario, crash=False)
    notices: dict[str, int] = {}
    for message in crashed_net.sent:
        if isinstance(message, PaymentNotice):
            notices[message.receiver] = notices.get(message.receiver, 0) + 1
    assert all(count == 1 for count in notices.values())
    if crashed.phase is ProtocolPhase.VOIDED:
        # Only a restore in BIDDING voids a round the clean run priced.
        assert crashed.payments_sent == {}
        assert clean.phase is ProtocolPhase.VOIDED or restarts == 1
        return
    assert clean.phase is ProtocolPhase.DONE
    assert set(notices) == set(clean.machine_names)
    assert crashed.payments_sent == clean.payments_sent


# ------------------------------------------------- strict, bit-exact JSON


def _strict(text: str):
    """Parse ``text`` as RFC 8259 JSON: NaN/Infinity tokens are errors."""

    def reject(token: str):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def _bits(value):
    """``value`` with every float replaced by its IEEE-754 bit pattern."""
    if isinstance(value, float):
        return ("f64", struct.pack("<d", value))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_bits(v) for v in value])
    if isinstance(value, dict):
        return ("dict", [(k, _bits(v)) for k, v in value.items()])
    return (type(value).__name__, value)


# Any float bit pattern (every NaN payload, both infinities, -0.0,
# subnormals), plus hypothesis's own float shrinking.
_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(min_value=0, max_value=2**64 - 1).map(
        lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]
    ),
)
_names = st.text(min_size=0, max_size=6)  # quotes, backslashes, controls


@st.composite
def checkpoints(draw):
    names = draw(st.lists(_names, unique=True, max_size=6))

    def keys():
        # Exactly the machine names (the compact encoding) or any set.
        return draw(
            st.one_of(st.just(names), st.lists(_names, unique=True, max_size=6))
        )

    jobs = st.integers(min_value=-(2**63), max_value=2**63 - 1)
    return CoordinatorCheckpoint(
        phase=draw(_names),
        machine_names=names,
        arrival_rate=draw(_floats),
        bids={k: draw(_floats) for k in keys()},
        loads=draw(st.one_of(st.none(), st.lists(_floats, max_size=6))),
        reports={k: (draw(jobs), draw(_floats)) for k in keys()},
        excluded=draw(st.lists(_names, max_size=3)),
        withheld=draw(st.lists(_names, max_size=3)),
        payments_sent={
            k: (draw(_floats), draw(_floats), draw(_floats)) for k in keys()
        },
    )


@settings(max_examples=300, deadline=None)
@given(checkpoints())
def test_snapshot_is_strict_json_and_bit_exact(checkpoint):
    payload = checkpoint.to_json()
    _strict(payload)
    restored = CoordinatorCheckpoint.from_json(payload)
    assert _bits(vars(restored)) == _bits(vars(checkpoint))


@settings(max_examples=200, deadline=None)
@given(
    checkpoints(),
    st.lists(
        st.tuples(
            st.sampled_from(["bid", "report", "payment", "payments"]),
            _names,
            st.lists(_floats, min_size=3, max_size=3),
        ),
        max_size=8,
    ),
)
def test_records_are_strict_json_and_replay_bit_exact(checkpoint, events):
    store = CheckpointStore()
    store.save(checkpoint)
    bids = dict(checkpoint.bids)
    reports = dict(checkpoint.reports)
    payments = dict(checkpoint.payments_sent)
    for kind, name, (a, b, c) in events:
        if kind == "bid":
            store.append_bid(name, a)
            bids[name] = a
        elif kind == "report":
            store.append_report(name, 7, a)
            reports[name] = (7, a)
        elif kind == "payment":
            store.append_payment(name, (a, b, c))
            payments[name] = (a, b, c)
        else:
            store.append_payments([name, name + "'"], [(a, b, c), (c, b, a)])
            payments[name] = (a, b, c)
            payments[name + "'"] = (c, b, a)
    for text in [store._payload, *store._records]:
        _strict(text)
    loaded = store.load()
    assert _bits(loaded.bids) == _bits(bids)
    assert _bits(loaded.reports) == _bits(reports)
    assert _bits(loaded.payments_sent) == _bits(payments)


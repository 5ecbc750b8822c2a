"""Checkpoint round-trips and coordinator crash/restore semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents import TruthfulAgent
from repro.mechanism import VerificationMechanism
from repro.protocol import ProtocolPhase, SimulatedNetwork
from repro.protocol.coordinator import COORDINATOR_NAME, MachineNode
from repro.resilience import (
    CheckpointStore,
    CoordinatorCheckpoint,
    SupervisedCoordinator,
)
from repro.system import LinearLatencyMachine, Simulator

TRUE_VALUES = [1.0, 2.0, 5.0, 10.0]


def _build(
    store: CheckpointStore | None = None,
    true_values=TRUE_VALUES,
    **coordinator_kwargs,
):
    """A wired protocol instance (4 machines by default) around a SupervisedCoordinator."""
    sim = Simulator()
    rng = np.random.default_rng(0)
    network = SimulatedNetwork(sim)
    names = [f"C{i+1}" for i in range(len(true_values))]
    nodes = []
    for name, t in zip(names, true_values):
        node = MachineNode(
            name=name,
            agent=TruthfulAgent(t),
            machine=LinearLatencyMachine(name, t, rng),
            network=network,
        )
        network.register(name, node.handle)
        nodes.append(node)
    coordinator = SupervisedCoordinator(
        mechanism=VerificationMechanism(),
        machine_names=names,
        arrival_rate=1.5 * len(true_values),
        network=network,
        checkpoint_store=store,
        **coordinator_kwargs,
    )
    network.register(COORDINATOR_NAME, coordinator.handle)
    return sim, network, coordinator, nodes


class TestSerialisation:
    def test_json_round_trip_preserves_everything(self):
        checkpoint = CoordinatorCheckpoint(
            phase="verifying",
            machine_names=["C1", "C2"],
            arrival_rate=6.0,
            bids={"C1": 1.0, "C2": 2.0},
            loads=[4.0, 2.0],
            reports={"C1": (17, 4.25)},
            excluded=["C3"],
            withheld=["C2"],
            payments_sent={"C1": (16.0, 16.0, 0.0)},
        )
        assert CoordinatorCheckpoint.from_json(checkpoint.to_json()) == checkpoint

    def test_none_loads_survive(self):
        checkpoint = CoordinatorCheckpoint(
            phase="bidding", machine_names=["C1"], arrival_rate=1.0
        )
        restored = CoordinatorCheckpoint.from_json(checkpoint.to_json())
        assert restored.loads is None

    def test_store_serialises_on_save(self):
        store = CheckpointStore()
        assert store.load() is None
        checkpoint = CoordinatorCheckpoint(
            phase="idle", machine_names=["C1"], arrival_rate=1.0
        )
        store.save(checkpoint)
        assert store.saves == 1
        loaded = store.load()
        assert loaded == checkpoint
        assert loaded is not checkpoint  # a reconstruction, not the object
        store.clear()
        assert store.load() is None


class TestPaymentJournal:
    """The O(1) write-ahead path under the sharded settle phase."""

    def _base(self):
        store = CheckpointStore()
        store.save(
            CoordinatorCheckpoint(
                phase="verifying",
                machine_names=["C1", "C2"],
                arrival_rate=6.0,
                payments_sent={"C1": (1.0, 0.5, 0.5)},
            )
        )
        return store

    def test_appends_fold_into_the_loaded_ledger(self):
        store = self._base()
        store.append_payment("C2", (2.0, 1.0, 1.0))
        loaded = store.load()
        assert loaded.payments_sent == {
            "C1": (1.0, 0.5, 0.5),
            "C2": (2.0, 1.0, 1.0),
        }
        assert store.appends == 1

    def test_journal_survives_repeated_loads(self):
        store = self._base()
        store.append_payment("C2", (2.0, 1.0, 1.0))
        assert store.load() == store.load()

    def test_fresh_save_subsumes_the_journal(self):
        store = self._base()
        store.append_payment("C2", (2.0, 1.0, 1.0))
        store.save(store.load())  # compaction: snapshot absorbs journal
        assert store.load().payments_sent["C2"] == (2.0, 1.0, 1.0)
        store.append_payment("C1", (9.0, 9.0, 0.0))  # later entry wins
        assert store.load().payments_sent["C1"] == (9.0, 9.0, 0.0)

    def test_append_without_snapshot_is_refused(self):
        store = CheckpointStore()
        with pytest.raises(RuntimeError, match="no base snapshot"):
            store.append_payment("C1", (1.0, 0.0, 1.0))

    def test_awkward_values_round_trip(self):
        # Escaped names and non-finite floats take the json fallback;
        # exact float round-trip either way.
        store = self._base()
        store.append_payment('C"\\2', (float("inf"), float("nan"), 1e-300))
        entry = store.load().payments_sent['C"\\2']
        assert entry[0] == float("inf")
        assert entry[1] != entry[1]  # NaN round-trips as NaN
        assert entry[2] == 1e-300

    def test_clear_drops_the_journal_too(self):
        store = self._base()
        store.append_payment("C2", (2.0, 1.0, 1.0))
        store.clear()
        assert store.load() is None
        assert not store.has_snapshot


class TestCheckpointProgression:
    def test_checkpoints_written_at_each_transition(self):
        store = CheckpointStore()
        sim, network, coordinator, nodes = _build(store)
        coordinator.start()
        sim.run()
        assert store.load().phase == "executing"
        assert store.load().loads is not None
        for node in nodes:
            node.machine.sojourn_times.append(0.5)
            node.report_completion()
        sim.run()
        assert store.load().phase == "done"
        assert len(store.load().payments_sent) == len(nodes)

    def test_bids_checkpointed_as_they_arrive(self):
        store = CheckpointStore()
        sim, network, coordinator, nodes = _build(store)
        coordinator.start()
        sim.run()
        assert store.load().bids == {
            f"C{i+1}": v for i, v in enumerate(TRUE_VALUES)
        }


class TestRestore:
    def _run_to_verifying(self, store, fail_after: int):
        """Crash the coordinator after ``fail_after`` payments were sent."""
        from repro.resilience import CoordinatorCrash

        sim, network, coordinator, nodes = _build(
            store, fail_after_payments=fail_after
        )
        coordinator.start()
        sim.run()
        for node in nodes:
            node.machine.sojourn_times.append(0.5)
            node.report_completion()
        with pytest.raises(CoordinatorCrash):
            sim.run()
        return sim, network, coordinator, nodes

    def test_restored_coordinator_pays_only_the_rest(self):
        store = CheckpointStore()
        sim, network, dead, nodes = self._run_to_verifying(store, fail_after=2)
        already_paid = dict(dead.payments_sent)
        assert len(already_paid) == 2

        restored = SupervisedCoordinator.restore(
            store.load(),
            mechanism=VerificationMechanism(),
            network=network,
            checkpoint_store=store,
        )
        assert restored.phase is ProtocolPhase.VERIFYING
        restored.resume()
        sim.run()
        assert restored.phase is ProtocolPhase.DONE
        # Everyone got exactly one notice; the pre-crash payments stand.
        for node in nodes:
            assert node.received_payment is not None
        for name, amounts in already_paid.items():
            assert restored.payments_sent[name] == amounts
        assert len(restored.payments_sent) == len(nodes)

    def test_restored_outcome_matches_uncrashed_run(self):
        # Crashed-and-restored payments must equal a run with no crash.
        store = CheckpointStore()
        sim, network, dead, nodes = self._run_to_verifying(store, fail_after=1)
        restored = SupervisedCoordinator.restore(
            store.load(),
            mechanism=VerificationMechanism(),
            network=network,
            checkpoint_store=store,
        )
        restored.resume()
        sim.run()

        sim2, network2, clean, nodes2 = _build(CheckpointStore())
        clean.start()
        sim2.run()
        for node in nodes2:
            node.machine.sojourn_times.append(0.5)
            node.report_completion()
        sim2.run()
        for name in clean.machine_names:
            assert restored.payments_sent[name] == pytest.approx(
                clean.payments_sent[name]
            )

    def test_restore_in_bidding_voids_the_round(self):
        store = CheckpointStore()
        sim, network, coordinator, nodes = _build(store)
        coordinator.start()
        # Crash before the simulator delivers anything: the checkpoint
        # still shows BIDDING with no loads announced.
        coordinator._save_checkpoint()
        restored = SupervisedCoordinator.restore(
            store.load(),
            mechanism=VerificationMechanism(),
            network=network,
            checkpoint_store=store,
        )
        restored.resume()
        assert restored.phase is ProtocolPhase.VOIDED
        assert restored.payments_sent == {}

    def test_restore_in_executing_waits_for_reports(self):
        store = CheckpointStore()
        sim, network, coordinator, nodes = _build(store)
        coordinator.start()
        sim.run()
        assert coordinator.phase is ProtocolPhase.EXECUTING
        restored = SupervisedCoordinator.restore(
            store.load(),
            mechanism=VerificationMechanism(),
            network=network,
            checkpoint_store=store,
        )
        restored.resume()
        assert restored.phase is ProtocolPhase.EXECUTING
        network._handlers[COORDINATOR_NAME] = restored.handle
        for node in nodes:
            node.machine.sojourn_times.append(0.5)
            node.report_completion()
        sim.run()
        assert restored.phase is ProtocolPhase.DONE

    def test_restored_coordinator_has_no_chaos_hook(self):
        store = CheckpointStore()
        sim, network, dead, nodes = self._run_to_verifying(store, fail_after=1)
        restored = SupervisedCoordinator.restore(
            store.load(),
            mechanism=VerificationMechanism(),
            network=network,
        )
        assert restored.fail_after_payments is None


class TestMinParticipants:
    def test_round_with_one_responder_is_voided(self):
        sim, network, coordinator, nodes = _build(min_participants=2)
        # Only C1's bid will arrive; everyone else stays silent.
        network._handlers["C2"] = lambda m, s: None
        network._handlers["C3"] = lambda m, s: None
        network._handlers["C4"] = lambda m, s: None
        coordinator.start()
        sim.run()
        coordinator.close_bidding(void_if_empty=True)
        assert coordinator.phase is ProtocolPhase.VOIDED


class TestWriteAheadLog:
    """One log per round: snapshots at phase transitions, records between."""

    def _report_all(self, sim, nodes):
        for node in nodes:
            node.machine.sojourn_times.append(0.5)
            node.report_completion()
        sim.run()

    def test_clean_n64_round_snapshots_four_times_and_logs_every_event(self):
        store = CheckpointStore()
        true_values = np.random.default_rng(5).uniform(1.0, 10.0, 64).tolist()
        sim, network, coordinator, nodes = _build(store, true_values)
        coordinator.start()
        sim.run()
        self._report_all(sim, nodes)
        assert coordinator.phase is ProtocolPhase.DONE
        # BIDDING (start), EXECUTING, VERIFYING, DONE.
        assert store.saves == 4
        assert store.appends == 64 + 64 + 64  # bids + reports + payments
        assert store.records == 0  # the DONE snapshot subsumed the log
        assert store.load() == coordinator.checkpoint()

    def test_supervised_rounds_snapshot_at_most_four_times_each(self):
        from repro.agents import TruthfulAgent
        from repro.observability import instrumented
        from repro.resilience import RoundSupervisor

        supervisor = RoundSupervisor(
            [TruthfulAgent(t) for t in np.linspace(1.0, 8.0, 64)],
            80.0,
            duration=5.0,
            rng=np.random.default_rng(1),
        )
        with instrumented() as instr:
            supervisor.run(3)
        assert instr.metrics.counter("resilience.checkpoint.saves").value <= 3 * 4

    def test_load_matches_a_full_checkpoint_between_snapshots(self):
        store = CheckpointStore()
        sim, network, coordinator, nodes = _build(store)
        coordinator.start()
        assert store.load() == coordinator.checkpoint()  # BIDDING, empty
        sim.run()
        nodes[0].machine.sojourn_times.append(0.5)
        nodes[0].report_completion()
        sim.run()
        assert store.records == 1
        assert store.load() == coordinator.checkpoint()

    def test_bid_record_carries_the_override_not_the_declared_bid(self):
        store = CheckpointStore()
        sim, network, coordinator, nodes = _build(store, bid_overrides={"C2": 7.5})
        network._handlers["C4"] = lambda m, s: None  # keep the round in BIDDING
        coordinator.start()
        sim.run()
        assert coordinator.phase is ProtocolPhase.BIDDING
        assert store.records == 3
        assert store.load().bids == {"C1": 1.0, "C2": 7.5, "C3": 5.0}

    def test_awkward_bid_and_report_records_round_trip(self):
        store = CheckpointStore()
        store.save(
            CoordinatorCheckpoint(
                phase="bidding", machine_names=['C"\\1', "C\n2"], arrival_rate=1.0
            )
        )
        store.append_bid('C"\\1', float("inf"))
        store.append_bid("C\n2", 1e-300)
        store.append_report('C"\\1', 3, float("nan"))
        store.append_report("C\n2", 7, float("-inf"))
        loaded = store.load()
        assert loaded.bids == {'C"\\1': float("inf"), "C\n2": 1e-300}
        jobs, sojourn = loaded.reports['C"\\1']
        assert jobs == 3 and sojourn != sojourn  # NaN round-trips as NaN
        assert loaded.reports["C\n2"] == (7, float("-inf"))

    def test_later_records_win(self):
        store = CheckpointStore()
        store.save(
            CoordinatorCheckpoint(
                phase="bidding", machine_names=["C1"], arrival_rate=1.0,
                bids={"C1": 1.0},
            )
        )
        store.append_bid("C1", 2.0)
        store.append_bid("C1", 3.0)
        assert store.load().bids == {"C1": 3.0}

    def test_records_without_a_snapshot_are_refused(self):
        store = CheckpointStore()
        with pytest.raises(RuntimeError, match="no base snapshot"):
            store.append_bid("C1", 1.0)
        with pytest.raises(RuntimeError, match="no base snapshot"):
            store.append_report("C1", 1, 0.5)


class TestRestoreFromRecords:
    """Restores whose state lives partly in records after the last snapshot."""

    def _restore(self, store, network):
        return SupervisedCoordinator.restore(
            store.load(),
            mechanism=VerificationMechanism(),
            network=network,
            checkpoint_store=store,
        )

    def _clean_payments(self):
        sim, network, clean, nodes = _build(CheckpointStore())
        clean.start()
        sim.run()
        for node in nodes:
            node.machine.sojourn_times.append(0.5)
            node.report_completion()
        sim.run()
        return clean.payments_sent

    def test_during_bidding(self):
        store = CheckpointStore()
        sim, network, coordinator, nodes = _build(store)
        network._handlers["C3"] = lambda m, s: None  # one bid outstanding
        coordinator.start()
        sim.run()
        assert store.records == 3
        restored = self._restore(store, network)
        assert restored._bids == {"C1": 1.0, "C2": 2.0, "C4": 10.0}
        restored.resume()
        assert restored.phase is ProtocolPhase.VOIDED
        assert restored.payments_sent == {}
        assert store.load().phase == "voided"

    def test_after_allocation(self):
        store = CheckpointStore()
        sim, network, coordinator, nodes = _build(store)
        coordinator.start()
        sim.run()
        for node in nodes[:2]:
            node.machine.sojourn_times.append(0.5)
            node.report_completion()
        sim.run()
        assert store.records == 2
        restored = self._restore(store, network)
        assert set(restored._reports) == {"C1", "C2"}
        restored.resume()
        assert restored.phase is ProtocolPhase.EXECUTING
        network._handlers[COORDINATOR_NAME] = restored.handle
        for node in nodes[2:]:
            node.machine.sojourn_times.append(0.5)
            node.report_completion()
        sim.run()
        assert restored.phase is ProtocolPhase.DONE
        assert restored.payments_sent == self._clean_payments()
        assert all(node.received_payment is not None for node in nodes)

    def test_mid_payment(self):
        from repro.resilience import CoordinatorCrash

        store = CheckpointStore()
        sim, network, dead, nodes = _build(store, fail_after_payments=2)
        dead.start()
        sim.run()
        for node in nodes:
            node.machine.sojourn_times.append(0.5)
            node.report_completion()
        with pytest.raises(CoordinatorCrash):
            sim.run()
        assert store.records == 2  # two payments on top of VERIFYING
        assert store.load().phase == "verifying"
        restored = self._restore(store, network)
        assert restored.payments_sent == dead.payments_sent
        restored.resume()
        sim.run()
        assert restored.phase is ProtocolPhase.DONE
        assert restored.payments_sent == self._clean_payments()
        assert store.appends == 4 + 4 + 4  # no payment logged twice

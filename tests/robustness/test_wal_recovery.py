"""Write-ahead journal format and replay-based crash recovery."""

import json

import pytest

from repro.core import UK
from repro.core.mapping import MappingRelationship, MeasureMap, UnknownMapping
from repro.robustness import (
    FaultInjector,
    InjectedFault,
    RecoveryError,
    TransactionManager,
    WALError,
    WriteAheadJournal,
    recover_schema,
)

from .conftest import build_schema, fingerprint


def merge(ev):
    return ev.merge_members(
        "Org",
        ["idV1", "idV2"],
        "idV12",
        "V12",
        10,
        reverse_shares={"idV1": 0.5, "idV2": None},
    )


@pytest.fixture()
def wal_path(tmp_path):
    return tmp_path / "evolutions.wal"


class TestJournalFormat:
    def test_fresh_manager_writes_initial_checkpoint(self, schema, wal_path):
        TransactionManager(schema, wal=wal_path)
        records = WriteAheadJournal(wal_path).records()
        assert [r["kind"] for r in records] == ["checkpoint"]
        assert records[0]["lsn"] == 1

    def test_committed_transaction_record_sequence(self, schema, wal_path):
        txm = TransactionManager(schema, wal=wal_path)
        with txm.transaction():
            merge(txm.evolution)
        kinds = [r["kind"] for r in txm.wal.records()]
        assert kinds == ["checkpoint", "begin", "op", "op", "op", "op", "op", "commit"]
        ops = [r["op"] for r in txm.wal.records() if r["kind"] == "op"]
        assert ops == ["Exclude", "Exclude", "Insert", "Associate", "Associate"]

    def test_rollback_writes_abort_record(self, schema, wal_path):
        txm = TransactionManager(schema, wal=wal_path)
        txm.begin()
        txm.evolution.create_member("Org", "idX", "X", 5, parents=["idP1"])
        txm.rollback()
        kinds = [r["kind"] for r in txm.wal.records()]
        assert kinds[-1] == "abort"

    def test_lsns_are_monotonic_and_continue_across_reopen(self, schema, wal_path):
        txm = TransactionManager(schema, wal=wal_path)
        with txm.transaction():
            txm.evolution.create_member("Org", "idX", "X", 5, parents=["idP1"])
        txm.wal.close()
        reopened = WriteAheadJournal(wal_path)
        lsns = [r["lsn"] for r in reopened.records()]
        assert lsns == sorted(lsns) and len(set(lsns)) == len(lsns)
        new_lsn = reopened.append("commit", txid=999)
        assert new_lsn == lsns[-1] + 1

    def test_torn_final_line_is_dropped(self, schema, wal_path):
        txm = TransactionManager(schema, wal=wal_path)
        with txm.transaction():
            txm.evolution.create_member("Org", "idX", "X", 5, parents=["idP1"])
        txm.wal.close()
        with open(wal_path, "a", encoding="utf-8") as f:
            f.write('{"lsn": 99, "format": 1, "kind": "com')  # crash mid-append
        records = WriteAheadJournal(wal_path).records()
        assert all(r["lsn"] != 99 for r in records)
        assert records[-1]["kind"] == "commit"

    def test_corruption_before_the_tail_raises(self, schema, wal_path):
        txm = TransactionManager(schema, wal=wal_path)
        with txm.transaction():
            txm.evolution.create_member("Org", "idX", "X", 5, parents=["idP1"])
        txm.wal.close()
        lines = wal_path.read_text().splitlines()
        lines[1] = "garbage"
        wal_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(WALError):
            WriteAheadJournal(wal_path).records()

    def test_unknown_record_kind_raises(self, wal_path):
        wal_path.write_text(
            json.dumps({"lsn": 1, "format": 1, "kind": "mystery"}) + "\n" * 2
        )
        with pytest.raises(WALError):
            WriteAheadJournal(wal_path).records()


class TestRecovery:
    def test_recovery_restores_committed_state(self, schema, wal_path):
        txm = TransactionManager(schema, wal=wal_path)
        with txm.transaction():
            merge(txm.evolution)
        with txm.transaction():
            txm.add_fact({"Org": "idV"}, 3, {"m": 7.0})
        committed = fingerprint(schema)

        recovered, report = recover_schema(wal_path)
        assert fingerprint(recovered) == committed
        assert report.transactions_replayed == 2
        assert report.transactions_discarded == 0
        assert report.operators_replayed == 5
        assert report.facts_replayed == 1
        assert report.integrity_violations == 0

    def test_crash_mid_transaction_recovers_to_last_commit(self, schema, wal_path):
        txm = TransactionManager(schema, wal=wal_path)
        with txm.transaction():
            merge(txm.evolution)
        committed = fingerprint(schema)
        # simulated crash: operators journaled, no commit record, process gone
        txm.begin()
        txm.evolution.create_member("Org", "idX", "X", 12, parents=["idP1"])
        del txm

        recovered, report = recover_schema(wal_path)
        assert fingerprint(recovered) == committed
        assert "idX" not in recovered.dimension("Org")
        assert report.transactions_discarded == 1

    def test_crash_during_commit_append_discards_transaction(self, schema, wal_path):
        injector = FaultInjector(seed=3)
        txm = TransactionManager(schema, wal=wal_path, fault_injector=injector)
        with txm.transaction():
            txm.evolution.create_member("Org", "idA", "A", 5, parents=["idP1"])
        committed = fingerprint(schema)
        # the commit record itself never reaches the disk: arming resets the
        # call counter, so appends count begin=1, op=2, commit=3
        injector.arm("wal.append", at_call=3)
        with pytest.raises(InjectedFault):
            with txm.transaction():
                txm.evolution.create_member("Org", "idB", "B", 6, parents=["idP1"])
        assert fingerprint(schema) == committed  # in-memory rollback worked

        recovered, report = recover_schema(wal_path)
        assert fingerprint(recovered) == committed
        assert "idB" not in recovered.dimension("Org")

    def test_recovery_from_later_checkpoint(self, schema, wal_path):
        txm = TransactionManager(schema, wal=wal_path)
        with txm.transaction():
            merge(txm.evolution)
        txm.checkpoint()
        with txm.transaction():
            txm.evolution.create_member("Org", "idY", "Y", 15, parents=["idP1"])
        recovered, report = recover_schema(wal_path)
        assert report.checkpoint_lsn > 1
        assert report.operators_replayed == 1  # only the post-checkpoint insert
        assert fingerprint(recovered) == fingerprint(schema)

    def test_recovery_without_checkpoint_fails(self, wal_path):
        wal = WriteAheadJournal(wal_path)
        wal.begin(1)
        wal.commit(1)
        wal.close()
        with pytest.raises(RecoveryError):
            recover_schema(wal_path)

    def test_reclassify_and_transform_round_trip(self, schema, wal_path):
        txm = TransactionManager(schema, wal=wal_path)
        with txm.transaction():
            txm.evolution.create_member("Org", "idP2", "P2", 0, level="Division")
            txm.evolution.reclassify_member(
                "Org", "idV1", 8, old_parents=["idP1"], new_parents=["idP2"]
            )
        with txm.transaction():
            txm.evolution.transform_member("Org", "idV2", "idV2b", "V2b", 9)
        recovered, _report = recover_schema(wal_path)
        assert fingerprint(recovered) == fingerprint(schema)
        snap = recovered.dimension("Org").at(9)
        assert snap.parents("idV1") == ["idP2"]

    def test_unknown_mapping_functions_survive_the_journal(self, schema, wal_path):
        txm = TransactionManager(schema, wal=wal_path)
        with txm.transaction():
            txm.evolution.delete_member("Org", "idV1", 10)
            txm.evolution.create_member("Org", "idW", "W", 10, parents=["idP1"])
            txm.editor.associate(
                MappingRelationship(
                    source="idV1",
                    target="idW",
                    forward={"m": MeasureMap(UnknownMapping(), UK)},
                    reverse={"m": MeasureMap(UnknownMapping(), UK)},
                )
            )
        recovered, _ = recover_schema(wal_path)
        assert fingerprint(recovered) == fingerprint(schema)
        assert len(recovered.mappings) == 1


class TestCommittedRecords:
    """The positional commit fold shared by recovery, PITR undo and CDC."""

    def test_reused_txid_commits_only_its_own_instance(self):
        from repro.robustness.wal import committed_records

        records = [
            {"lsn": 1, "kind": "begin", "txid": 1},
            {"lsn": 2, "kind": "op", "txid": 1},  # crashed before commit
            {"lsn": 3, "kind": "begin", "txid": 1},  # id reused after restart
            {"lsn": 4, "kind": "op", "txid": 1},
            {"lsn": 5, "kind": "restore_point", "name": "golden"},
            {"lsn": 6, "kind": "begin", "txid": 2},
            {"lsn": 7, "kind": "abort", "txid": 2},
            {"lsn": 8, "kind": "commit", "txid": 1},
            {"lsn": 9, "kind": "begin", "txid": 3},  # still open at the end
        ]
        commits, replayed, discarded = committed_records(records)
        assert [(commit["lsn"], owned) for commit, owned in commits] == [
            (5, [4]),
            (8, [3]),
        ]
        assert (replayed, discarded) == (1, 3)

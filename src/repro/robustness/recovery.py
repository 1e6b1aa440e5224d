"""Replay-based crash recovery.

Recovery rebuilds state from the write-ahead journal alone:

1. find the most recent ``checkpoint`` record and rebuild the snapshot it
   embeds (the schema, and — for :func:`recover_warehouse` — the embedded
   relational database dump);
2. scan the records after it, noting which transaction ids reached a
   ``commit`` record — those are the durable transactions;
3. replay the committed transactions' records in journal order:
   ``op`` / ``fact`` through a fresh :class:`SchemaEditor`
   (:func:`recover_schema`), ``catalog`` / ``dml`` onto a rebuilt
   :class:`~repro.storage.database.Database` (:func:`recover_warehouse`);
4. (by default) validate the result — the paper's invariants for the
   schema, foreign-key consistency for the warehouse — and refuse to hand
   back broken state.

Records of transactions that never committed — a crash mid-transaction, an
explicit abort, a torn tail — are discarded: the recovered state sits
exactly at the last committed transaction boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.chronology import NOW
from repro.core.errors import ReproError
from repro.core.operators import SchemaEditor
from repro.core.schema import TemporalMultidimensionalSchema
from repro.core.serialization import schema_from_dict
from repro.storage.database import Database, database_from_dict
from repro.storage.errors import StorageError
from repro.storage.schema import table_schema_from_dict, table_schema_to_dict

from .errors import RecoveryError
from .integrity import IntegrityChecker
from .wal import (
    WriteAheadJournal,
    committed_records,
    mapping_relationship_from_json,
    read_chain,
)

__all__ = [
    "RecoveryReport",
    "WarehouseRecoveryReport",
    "recover_schema",
    "recover_warehouse",
    "replay_operator",
]


@dataclass
class RecoveryReport:
    """What one recovery run did."""

    checkpoint_lsn: int = 0
    last_committed_txid: int | None = None
    transactions_replayed: int = 0
    transactions_discarded: int = 0
    operators_replayed: int = 0
    facts_replayed: int = 0
    integrity_violations: int = 0
    warehouse_records_skipped: int = 0

    def to_text(self) -> str:
        """A human-readable summary (the CLI prints this)."""
        lines = [
            f"checkpoint: lsn {self.checkpoint_lsn}",
            f"transactions replayed: {self.transactions_replayed}",
            f"transactions discarded (uncommitted): {self.transactions_discarded}",
            f"operators replayed: {self.operators_replayed}",
            f"facts replayed: {self.facts_replayed}",
            f"integrity violations: {self.integrity_violations}",
        ]
        if self.warehouse_records_skipped:
            lines.append(
                f"warehouse records skipped (use recover_warehouse): "
                f"{self.warehouse_records_skipped}"
            )
        if self.last_committed_txid is not None:
            lines.insert(1, f"last committed transaction: {self.last_committed_txid}")
        return "\n".join(lines)


@dataclass
class WarehouseRecoveryReport:
    """What one warehouse (row-level) recovery run did."""

    checkpoint_lsn: int = 0
    last_committed_txid: int | None = None
    transactions_replayed: int = 0
    transactions_discarded: int = 0
    tables_restored: int = 0
    tables_created: int = 0
    rows_inserted: int = 0
    rows_updated: int = 0
    rows_deleted: int = 0

    def to_text(self) -> str:
        """A human-readable summary (the CLI prints this)."""
        lines = [
            f"checkpoint: lsn {self.checkpoint_lsn}",
            f"transactions replayed: {self.transactions_replayed}",
            f"transactions discarded (uncommitted): {self.transactions_discarded}",
            f"tables restored from checkpoint: {self.tables_restored}",
            f"tables created from catalog records: {self.tables_created}",
            f"rows inserted: {self.rows_inserted}",
            f"rows updated: {self.rows_updated}",
            f"rows deleted: {self.rows_deleted}",
        ]
        if self.last_committed_txid is not None:
            lines.insert(1, f"last committed transaction: {self.last_committed_txid}")
        return "\n".join(lines)


def replay_operator(editor: SchemaEditor, record: dict[str, Any]) -> None:
    """Re-apply one journaled basic operator through ``editor``."""
    op = record["op"]
    args = record["args"]
    if op == "Insert":
        editor.insert(
            args["did"],
            args["mvid"],
            args["name"],
            args["ti"],
            NOW if args["tf"] is None else args["tf"],
            attributes=args.get("attributes") or {},
            level=args.get("level"),
            parents=args.get("parents", ()),
            children=args.get("children", ()),
        )
    elif op == "Exclude":
        editor.exclude(args["did"], args["mvid"], args["tf"])
    elif op == "Associate":
        editor.associate(
            mapping_relationship_from_json(args["rel"]),
            allow_non_leaf=args.get("allow_non_leaf", False),
        )
    elif op == "Reclassify":
        editor.reclassify(
            args["did"],
            args["mvid"],
            args["ti"],
            NOW if args["tf"] is None else args["tf"],
            old_parents=args.get("old_parents", ()),
            new_parents=args.get("new_parents", ()),
        )
    else:
        raise RecoveryError(f"cannot replay unknown operator {op!r}")


def _journal_records(
    wal: WriteAheadJournal | str | Path, *, use_archives: bool = False
) -> tuple[list[dict[str, Any]], Path]:
    """Read every durable record of a journal (plus its path, for errors).

    ``use_archives=True`` reads the full chain — compacted archive
    segments first, then the live journal — so replay can reach LSNs the
    live journal no longer holds (point-in-time recovery).
    """
    if isinstance(wal, WriteAheadJournal):
        records = wal.chain_records() if use_archives else wal.records()
        return records, wal.path
    # Recovery is read-only: never create (or hold open for append) a
    # journal that is merely being inspected.
    if not Path(wal).exists():
        raise RecoveryError(f"{wal}: journal holds no checkpoint to recover from")
    if use_archives:
        return read_chain(wal), Path(wal)
    with WriteAheadJournal(wal) as journal:
        return journal.records(), journal.path


def _resolve_commits(
    tail: list[dict[str, Any]],
) -> tuple[set[int], int, int, int | None]:
    """``(committed tail indices, transactions replayed, transactions
    discarded, last committed txid)`` by the journal's positional commit
    fold (:func:`~repro.robustness.wal.committed_records`)."""
    commits, replayed, discarded = committed_records(tail)
    committed_idx = {i for _, owned in commits for i in owned}
    txids = [commit["txid"] for commit, _ in commits if commit["kind"] == "commit"]
    return committed_idx, replayed, discarded, txids[-1] if txids else None


def _last_checkpoint(
    records: list[dict[str, Any]], path: Path
) -> tuple[dict[str, Any], int]:
    """The most recent ``checkpoint`` record and its index."""
    checkpoint_idx: int | None = None
    for i, record in enumerate(records):
        if record["kind"] == "checkpoint":
            checkpoint_idx = i
    if checkpoint_idx is None:
        raise RecoveryError(f"{path}: journal holds no checkpoint to recover from")
    return records[checkpoint_idx], checkpoint_idx


def recover_schema(
    wal: WriteAheadJournal | str | Path,
    *,
    verify: bool = True,
    up_to_lsn: int | None = None,
    use_archives: bool = False,
) -> tuple[TemporalMultidimensionalSchema, RecoveryReport]:
    """Rebuild the schema a journal describes, up to the last commit.

    ``verify=True`` (the default) runs the integrity checker on the
    recovered schema and raises :class:`RecoveryError` when any paper
    invariant is violated — a recovery that would hand back a broken
    schema is treated as failed.  Relational ``catalog`` / ``dml`` records
    belong to the warehouse tier; they are counted (``report.
    warehouse_records_skipped``) and left to :func:`recover_warehouse`.

    ``up_to_lsn`` stops replay at a historical LSN (only transactions
    whose commit record lies at or below it count as committed) and
    ``use_archives`` replays across compacted archive segments — together
    they are the forward half of point-in-time recovery
    (:mod:`repro.robustness.pitr`).
    """
    records, path = _journal_records(wal, use_archives=use_archives)
    if up_to_lsn is not None:
        records = [r for r in records if r["lsn"] <= up_to_lsn]
    checkpoint, checkpoint_idx = _last_checkpoint(records, path)
    try:
        schema = schema_from_dict(checkpoint["schema"])
    except ReproError as exc:
        raise RecoveryError(f"checkpoint snapshot does not rebuild: {exc}") from exc

    tail = records[checkpoint_idx + 1:]
    committed_idx, replayed, discarded, last_txid = _resolve_commits(tail)

    report = RecoveryReport(
        checkpoint_lsn=checkpoint["lsn"],
        last_committed_txid=last_txid,
        transactions_replayed=replayed,
        transactions_discarded=discarded,
    )

    editor = SchemaEditor(schema)
    for i, record in enumerate(tail):
        if i not in committed_idx:
            continue
        if record["kind"] == "op":
            try:
                replay_operator(editor, record)
            except ReproError as exc:
                raise RecoveryError(
                    f"replay of committed operator at lsn {record['lsn']} "
                    f"failed: {exc}"
                ) from exc
            report.operators_replayed += 1
        elif record["kind"] == "fact":
            try:
                schema.add_fact(
                    record["coordinates"],
                    record["t"],
                    record["values"],
                    source=record.get("source"),
                )
            except ReproError as exc:
                raise RecoveryError(
                    f"replay of committed fact at lsn {record['lsn']} failed: {exc}"
                ) from exc
            report.facts_replayed += 1
        elif record["kind"] in ("catalog", "dml"):
            report.warehouse_records_skipped += 1

    if verify:
        integrity = IntegrityChecker(schema).run()
        report.integrity_violations = len(integrity.violations)
        if not integrity.ok:
            raise RecoveryError(
                "recovered schema violates invariants:\n" + integrity.to_text()
            )
    return schema, report


def _replay_catalog(
    db: Database, record: dict[str, Any], report: WarehouseRecoveryReport
) -> None:
    """Re-apply one committed ``catalog`` record (idempotently)."""
    payload = record["table"]
    name = payload["name"]
    if name in db.table_names:
        existing = table_schema_to_dict(db.table(name).schema)
        if existing != payload:
            raise RecoveryError(
                f"catalog record at lsn {record['lsn']} disagrees with the "
                f"recovered schema of table {name!r}"
            )
        return
    schema = table_schema_from_dict(payload)
    table = db.create_table(
        name,
        schema.columns,
        primary_key=schema.primary_key,
        foreign_keys=schema.foreign_keys,
    )
    for spec in record.get("indexes", ()):
        table.create_index(tuple(spec["columns"]), unique=bool(spec.get("unique")))
    report.tables_created += 1


def _replay_dml(
    db: Database, record: dict[str, Any], report: WarehouseRecoveryReport
) -> None:
    """Re-apply one committed ``dml`` record at its journaled row id."""
    action = record["action"]
    try:
        table = db.table(record["table"])
        if action == "row.insert":
            table.restore_row(record["rid"], record["row"])
            report.rows_inserted += 1
        elif action == "row.update":
            table.restore_row(record["rid"], record["row"])
            report.rows_updated += 1
        elif action == "row.delete":
            table.remove_row(record["rid"])
            report.rows_deleted += 1
        else:
            raise RecoveryError(
                f"cannot replay unknown dml action {action!r} "
                f"at lsn {record['lsn']}"
            )
    except StorageError as exc:
        raise RecoveryError(
            f"replay of committed dml at lsn {record['lsn']} failed: {exc}"
        ) from exc


def recover_warehouse(
    wal: WriteAheadJournal | str | Path,
    *,
    verify: bool = True,
    up_to_lsn: int | None = None,
    use_archives: bool = False,
) -> tuple[Database, WarehouseRecoveryReport]:
    """Rebuild the relational database a journal describes, up to the last
    commit.

    The checkpoint's embedded database dump seeds the state; committed
    ``catalog`` records recreate tables the dump predates, and committed
    ``dml`` records replay row writes at their journaled row ids (so the
    recovered tables are slot-for-slot identical to the pre-crash ones).
    ``verify=True`` re-audits every foreign key over the replayed rows and
    raises :class:`RecoveryError` when a reference dangles.

    ``up_to_lsn`` / ``use_archives`` replay to a historical LSN across
    archive segments — see :func:`recover_schema`.
    """
    records, path = _journal_records(wal, use_archives=use_archives)
    if up_to_lsn is not None:
        records = [r for r in records if r["lsn"] <= up_to_lsn]
    checkpoint, checkpoint_idx = _last_checkpoint(records, path)
    dumped = checkpoint.get("database")
    try:
        db = database_from_dict(dumped) if dumped is not None else Database()
    except (StorageError, KeyError, TypeError, ValueError) as exc:
        raise RecoveryError(
            f"checkpoint database dump does not rebuild: {exc}"
        ) from exc

    tail = records[checkpoint_idx + 1:]
    committed_idx, replayed, discarded, last_txid = _resolve_commits(tail)

    report = WarehouseRecoveryReport(
        checkpoint_lsn=checkpoint["lsn"],
        last_committed_txid=last_txid,
        transactions_replayed=replayed,
        transactions_discarded=discarded,
        tables_restored=len(db.table_names),
    )

    for i, record in enumerate(tail):
        if i not in committed_idx:
            continue
        if record["kind"] == "catalog":
            _replay_catalog(db, record, report)
        elif record["kind"] == "dml":
            _replay_dml(db, record, report)

    if verify:
        violations = _foreign_key_violations(db)
        if violations:
            raise RecoveryError(
                "recovered warehouse violates foreign keys:\n"
                + "\n".join(violations)
            )
    return db, report


def _foreign_key_violations(db: Database) -> list[str]:
    """Dangling foreign-key references across every row of ``db``."""
    violations: list[str] = []
    for name in db.table_names:
        table = db.table(name)
        for fk in table.schema.foreign_keys:
            try:
                parent = db.table(fk.parent_table)
            except StorageError:
                violations.append(
                    f"{name}: foreign key references missing table "
                    f"{fk.parent_table!r}"
                )
                continue
            parent_keys = {
                tuple(row[c] for c in fk.parent_columns) for row in parent.rows()
            }
            for row in table.rows():
                key = tuple(row[c] for c in fk.columns)
                if any(v is None for v in key):
                    continue
                if key not in parent_keys:
                    violations.append(
                        f"{name}: {dict(zip(fk.columns, key))} has no match "
                        f"in {fk.parent_table!r}"
                    )
    return violations

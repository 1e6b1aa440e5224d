"""Point-in-time recovery: AS-OF time travel, restore points, backups.

The journal already holds everything a rewind needs — ``dml`` records
carry pre-images, ``catalog`` records carry table births, checkpoints
carry full dumps — this module is what finally consumes them:

* :func:`materialize_as_of` — **undo replay**: recover the current
  warehouse, then walk the committed ``dml`` history *backwards* from the
  journal head to a target LSN, applying pre-images (inserts are removed,
  updates and deletes restore their captured rows, post-target tables are
  dropped) to produce a historical :class:`~repro.storage.database.Database`
  byte-identical to what forward replay to that LSN would build;
* :func:`materialize_schema_as_of` — the schema tier of the same instant
  (forward replay across archives; ``op`` records are not journaled with
  invertible pre-images, and replay from the nearest checkpoint is exact);
* restore points — named LSN tags (:meth:`WriteAheadJournal.restore_point`)
  resolved by :func:`resolve_target`;
* :func:`recover_to` — rewind *the journal itself*: truncate forward
  history after the target, pruning archive segments the rewind obsoletes;
* :func:`open_as_of` — a read-only historical cursor
  (:class:`AsOfSnapshot`) mirroring the
  :class:`~repro.concurrency.cursor.SnapshotCursor` surface, the backing
  of ``AS OF`` queries (``MVQLSession.as_of`` / ``Cube.from_warehouse``);
* :func:`backup_journal` / :func:`restore_backup` — copy the journal,
  its archive segments and manifest into a self-verifying backup
  directory (staged, then renamed into place) and back.

Fault points: ``pitr.undo`` fires before each pre-image is applied,
``backup.copy`` before each file copy — both sides of the PITR crash
matrix (``tests/robustness/test_pitr.py``).
"""

from __future__ import annotations

import json
import os
import shutil
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.storage.database import Database
from repro.storage.errors import StorageError

from .errors import RecoveryError, WALError
from .recovery import (
    RecoveryReport,
    WarehouseRecoveryReport,
    _foreign_key_violations,
    recover_schema,
    recover_warehouse,
)
from .wal import (
    WriteAheadJournal,
    _segment_records,
    _write_manifest,
    committed_records,
    manifest_path,
    read_chain,
    read_manifest,
)

__all__ = [
    "AsOfReport",
    "AsOfSnapshot",
    "BackupReport",
    "RecoverToReport",
    "backup_journal",
    "materialize_as_of",
    "materialize_schema_as_of",
    "open_as_of",
    "recover_to",
    "resolve_target",
    "restore_points",
]

BACKUP_METADATA = "backup.json"


# -- targets ----------------------------------------------------------------------


def _chain_of(
    wal: WriteAheadJournal | str | Path,
) -> tuple[list[dict[str, Any]], Path]:
    """The full (archives + live) record history and the journal path."""
    if isinstance(wal, WriteAheadJournal):
        return wal.chain_records(), wal.path
    return read_chain(wal), Path(wal)


def restore_points(wal: WriteAheadJournal | str | Path) -> dict[str, int]:
    """Every named restore point in the journal's history, ``name → lsn``.

    A re-used name resolves to its newest tag (the journal keeps all of
    them; rewinding past the newest re-exposes the older one).
    """
    records, _ = _chain_of(wal)
    return {
        record["name"]: record["lsn"]
        for record in records
        if record["kind"] == "restore_point"
    }


def resolve_target(
    wal: WriteAheadJournal | str | Path, target: int | str | None
) -> int:
    """Resolve an LSN, a restore-point name, or ``None`` (= head) to an LSN."""
    records, path = _chain_of(wal)
    return _resolve(records, path, target)


def _resolve(
    records: list[dict[str, Any]], path: Path, target: int | str | None
) -> int:
    if not records:
        raise RecoveryError(f"{path}: journal holds no records")
    first, last = records[0]["lsn"], records[-1]["lsn"]
    if target is None:
        return last
    if isinstance(target, bool) or not isinstance(target, (int, str)):
        raise RecoveryError(
            f"recovery target must be an LSN or a restore-point name, "
            f"not {target!r}"
        )
    if isinstance(target, int):
        if not first <= target <= last:
            raise RecoveryError(
                f"{path}: lsn {target} is outside the journal history "
                f"({first}..{last})"
            )
        return target
    points = {
        record["name"]: record["lsn"]
        for record in records
        if record["kind"] == "restore_point"
    }
    if target not in points:
        known = ", ".join(sorted(points)) if points else "none"
        raise RecoveryError(
            f"{path}: unknown restore point {target!r} (known: {known})"
        )
    return points[target]


# -- undo replay ------------------------------------------------------------------


@dataclass
class AsOfReport:
    """What one :func:`materialize_as_of` undo replay did."""

    target_lsn: int = 0
    head_lsn: int = 0
    inserts_undone: int = 0
    updates_undone: int = 0
    deletes_undone: int = 0
    tables_dropped: int = 0

    def to_text(self) -> str:
        """A human-readable summary (the CLI prints this)."""
        return "\n".join(
            [
                f"as-of target: lsn {self.target_lsn} (head: {self.head_lsn})",
                f"inserts undone: {self.inserts_undone}",
                f"updates undone: {self.updates_undone}",
                f"deletes undone: {self.deletes_undone}",
                f"tables dropped: {self.tables_dropped}",
            ]
        )


def materialize_as_of(
    wal: WriteAheadJournal | str | Path,
    target: int | str | None,
    *,
    verify: bool = True,
    fault_injector: Any = None,
) -> tuple[Database, AsOfReport]:
    """The warehouse as it stood at ``target``, by backwards undo replay.

    Recovers the current database from the live journal, then walks the
    committed write history in reverse LSN order, reversing every ``dml``
    record whose transaction committed *after* the target: an insert is
    removed from its slot, an update or delete restores its pre-image.
    Tables the target predates are dropped, and slots that exist only
    because of undone inserts are un-allocated — the result is
    slot-for-slot identical to replaying the journal forward to the
    target (the property the PITR tests assert), without re-reading the
    bulk of the history.

    ``target`` is an LSN, a restore-point name, or ``None`` for the head
    (which degenerates to plain recovery).  ``verify=True`` re-audits
    foreign keys over the historical rows.  The ``pitr.undo`` fault point
    fires before each pre-image is applied; the journal itself is never
    written, so a crash mid-undo loses nothing.
    """
    records, path = _chain_of(wal)
    target_lsn = _resolve(records, path, target)
    db, _ = recover_warehouse(wal, verify=False)
    report = AsOfReport(
        target_lsn=target_lsn,
        head_lsn=records[-1]["lsn"] if records else 0,
    )
    # Each committed record's commit LSN — the instant its effects became
    # durable, which is the clock undo replay rewinds against.
    commit_of = {
        i: commit["lsn"]
        for commit, owned in committed_records(records)[0]
        for i in owned
    }

    undone_inserts: dict[str, set[int]] = {}
    for i in range(len(records) - 1, -1, -1):
        commit_lsn = commit_of.get(i)
        if commit_lsn is None or commit_lsn <= target_lsn:
            continue
        record = records[i]
        if record["kind"] != "dml":
            continue
        if fault_injector is not None:
            fault_injector.fire("pitr.undo")
        action = record["action"]
        try:
            table = db.table(record["table"])
            if action == "row.insert":
                table.remove_row(record["rid"])
                undone_inserts.setdefault(record["table"], set()).add(
                    record["rid"]
                )
                report.inserts_undone += 1
            elif action == "row.update":
                table.restore_row(record["rid"], record["pre"])
                report.updates_undone += 1
            elif action == "row.delete":
                table.restore_row(record["rid"], record["pre"])
                report.deletes_undone += 1
            else:
                raise RecoveryError(
                    f"cannot undo unknown dml action {action!r} "
                    f"at lsn {record['lsn']}"
                )
        except StorageError as exc:
            raise RecoveryError(
                f"undo of committed dml at lsn {record['lsn']} failed: {exc}"
            ) from exc

    # Reverse catalog ops: a table absent from the forward state at the
    # target — not in the dump of the last checkpoint at or below it, and
    # not (re-)cataloged by a transaction committed at or below it — did
    # not exist yet and is dropped whole.
    checkpoint_idx = None
    for i, record in enumerate(records):
        if record["kind"] == "checkpoint" and record["lsn"] <= target_lsn:
            checkpoint_idx = i
    if checkpoint_idx is None:
        raise RecoveryError(
            f"{path}: no checkpoint at or below lsn {target_lsn} to anchor "
            f"the as-of state"
        )
    dumped = records[checkpoint_idx].get("database")
    existing = {
        table_dump["schema"]["name"]
        for table_dump in (dumped or {}).get("tables", ())
    }
    for i, record in enumerate(records[checkpoint_idx + 1:], checkpoint_idx + 1):
        commit_lsn = commit_of.get(i)
        if (
            record["kind"] == "catalog"
            and commit_lsn is not None
            and commit_lsn <= target_lsn
        ):
            existing.add(record["table"]["name"])
    for name in reversed(db.table_names):
        if name not in existing:
            db.drop_table(name, check_references=False)
            report.tables_dropped += 1
    # Forward replay would have named the database after that checkpoint's
    # dump (or the default, when the checkpoint predates the warehouse).
    db.name = (dumped or {}).get("name", "warehouse")

    # Un-allocate trailing slots that exist only because of undone
    # inserts: inserts always append, so every slot past the forward
    # extent belongs to an undone insert and the trimmed tail is exactly
    # the contiguous run of them.
    for name, rids in undone_inserts.items():
        if name not in db:
            continue
        table = db.table(name)
        length = table.slot_count
        while length > 0 and (length - 1) in rids:
            length -= 1
        table.truncate_slots(length)

    if verify:
        violations = _foreign_key_violations(db)
        if violations:
            raise RecoveryError(
                "as-of warehouse violates foreign keys:\n"
                + "\n".join(violations)
            )
    return db, report


def materialize_schema_as_of(
    wal: WriteAheadJournal | str | Path,
    target: int | str | None,
    *,
    verify: bool = True,
):
    """The schema as it stood at ``target`` (forward replay over the full
    archive chain — operator records carry no invertible pre-images, and
    replay from the nearest checkpoint at or below the target is exact).
    Returns ``(schema, RecoveryReport)``."""
    records, path = _chain_of(wal)
    target_lsn = _resolve(records, path, target)
    return recover_schema(
        wal, verify=verify, up_to_lsn=target_lsn, use_archives=True
    )


# -- the historical cursor ---------------------------------------------------------


class AsOfSnapshot:
    """A read-only cursor over the state a journal described at one LSN.

    Mirrors the read surface of
    :class:`~repro.concurrency.cursor.SnapshotCursor` — ``mvft``,
    :meth:`query_engine`, :meth:`mvql_session`, :meth:`cube`,
    :meth:`warehouse` — but is pinned to a *historical* instant
    materialized from the journal rather than a live published version,
    and additionally exposes the historical relational
    :attr:`database`.  Everything is materialized up front; the snapshot
    holds no file handles and needs no ``close``.
    """

    def __init__(self, lsn: int, schema: Any, database: Database) -> None:
        self.lsn = lsn
        self.schema = schema
        self.database = database
        self._mvft: Any = None
        self._engine: Any = None

    @property
    def version(self) -> int:
        """The pinned LSN (the concurrency tier's version clock)."""
        return self.lsn

    @property
    def mvft(self):
        """The MultiVersion fact table of the historical schema (cached).

        Stamped with the pinned LSN so versioned result-cache entries
        computed by one AS-OF reader serve other readers of the same
        target (the historical state at an LSN is immutable by
        definition).
        """
        if self._mvft is None:
            mvft = self.schema.multiversion_facts()
            mvft.snapshot_version = self.lsn
            self._mvft = mvft
        return self._mvft

    def query_engine(self):
        """A query engine over the historical MVFT (cached)."""
        from repro.core.query import QueryEngine

        if self._engine is None:
            self._engine = QueryEngine(self.mvft)
        return self._engine

    def mvql_session(self, **kwargs: Any):
        """An MVQL session bound to the historical instant."""
        from repro.mvql.session import MVQLSession

        return MVQLSession(self.mvft, **kwargs)

    def cube(self, *, materialize: bool = False, **kwargs: Any):
        """An OLAP cube bound to the historical instant."""
        from repro.olap.cube import Cube

        return Cube(self.mvft, materialize=materialize, **kwargs)

    def warehouse(self, **build_kwargs: Any):
        """A relational multiversion warehouse built from the historical
        instant."""
        from repro.warehouse.multiversion_dw import MultiVersionDataWarehouse

        return MultiVersionDataWarehouse.build(self.mvft, **build_kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AsOfSnapshot(lsn={self.lsn})"


def open_as_of(
    wal: WriteAheadJournal | str | Path,
    target: int | str | None = None,
    *,
    verify: bool = True,
    fault_injector: Any = None,
) -> AsOfSnapshot:
    """Open a historical cursor: schema (forward replay) plus warehouse
    (undo replay) at ``target``, wrapped as an :class:`AsOfSnapshot`."""
    records, path = _chain_of(wal)
    target_lsn = _resolve(records, path, target)
    schema, _ = materialize_schema_as_of(wal, target_lsn, verify=verify)
    database, _ = materialize_as_of(
        wal, target_lsn, verify=verify, fault_injector=fault_injector
    )
    return AsOfSnapshot(target_lsn, schema, database)


# -- rewinding the journal ---------------------------------------------------------


@dataclass
class RecoverToReport:
    """What one :func:`recover_to` rewind did."""

    target_lsn: int = 0
    restore_point: str | None = None
    checkpoint_lsn: int = 0
    records_dropped: int = 0
    segments_dropped: int = 0
    segments_trimmed: int = 0
    schema: Any = field(default=None, repr=False, compare=False)
    database: Database | None = field(default=None, repr=False, compare=False)
    schema_report: RecoveryReport | None = field(
        default=None, repr=False, compare=False
    )
    warehouse_report: WarehouseRecoveryReport | None = field(
        default=None, repr=False, compare=False
    )

    def to_text(self) -> str:
        """A human-readable summary (the CLI prints this)."""
        lines = [f"recovered to: lsn {self.target_lsn}"]
        if self.restore_point is not None:
            lines[0] += f" (restore point {self.restore_point!r})"
        lines += [
            f"replay checkpoint: lsn {self.checkpoint_lsn}",
            f"forward-history records dropped: {self.records_dropped}",
            f"archive segments dropped: {self.segments_dropped}",
            f"archive segments trimmed: {self.segments_trimmed}",
        ]
        return "\n".join(lines)


def recover_to(
    wal: WriteAheadJournal | str | Path,
    target: int | str,
    *,
    verify: bool = True,
    fault_injector: Any = None,
) -> RecoverToReport:
    """Rewind the journal itself to ``target``, truncating forward history.

    The new live journal keeps the records from the last checkpoint at or
    below the target through the target; everything after the target is
    dropped *everywhere* — the live file is rewritten atomically and
    archive segments that only held forward (or now-live) history are
    deleted or trimmed, manifest included.  The rewound state is
    validated by full replay (schema and warehouse, honouring ``verify``)
    *before* the live journal is replaced, so a rewind that would not
    recover refuses to destroy anything.  The recovered tiers ride along
    on the report (``report.schema`` / ``report.database``).

    Accepts a path, or a :class:`WriteAheadJournal` that has been
    ``close()``-d — rewriting a journal under an open append handle would
    silently divorce the handle from the file.
    """
    if isinstance(wal, WriteAheadJournal):
        if not wal._file.closed:
            raise WALError(
                f"{wal.path}: close the journal before recover_to — an open "
                f"append handle would keep writing to the replaced file"
            )
        path = wal.path
    else:
        path = Path(wal)
    chain = read_chain(path)
    target_lsn = _resolve(chain, path, target)
    checkpoint_idx = None
    for i, record in enumerate(chain):
        if record["kind"] == "checkpoint" and record["lsn"] <= target_lsn:
            checkpoint_idx = i
    if checkpoint_idx is None:
        raise RecoveryError(
            f"{path}: no checkpoint at or below lsn {target_lsn} to recover "
            f"from"
        )
    kept = [r for r in chain[checkpoint_idx:] if r["lsn"] <= target_lsn]
    report = RecoverToReport(
        target_lsn=target_lsn,
        restore_point=target if isinstance(target, str) else None,
        checkpoint_lsn=chain[checkpoint_idx]["lsn"],
        records_dropped=sum(1 for r in chain if r["lsn"] > target_lsn),
    )

    # Validate-then-swap: write the rewound journal to a side file, prove
    # it replays, and only then let it replace the live one.
    tmp = path.with_name(path.name + ".rewind")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            for record in kept:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        report.schema, report.schema_report = recover_schema(tmp, verify=verify)
        report.database, report.warehouse_report = recover_warehouse(
            tmp, verify=verify
        )
        if fault_injector is not None:
            fault_injector.fire("wal.truncate")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise

    # Archives keep only records below the new live journal's first LSN;
    # segments of pure forward/now-live history go, the boundary segment
    # is trimmed.  Segments are LSN-ordered, so only a suffix is touched
    # and the surviving sequence numbers stay contiguous.
    keep_from = kept[0]["lsn"]
    manifest = read_manifest(path)
    surviving: list[dict[str, Any]] = []
    changed = False
    for segment in manifest["segments"]:
        if segment["last_lsn"] < keep_from:
            surviving.append(segment)
            continue
        changed = True
        segment_path = path.with_name(segment["name"])
        if segment["first_lsn"] >= keep_from:
            try:
                os.remove(segment_path)
            except OSError:
                pass
            report.segments_dropped += 1
            continue
        # The boundary segment: keep its pre-rewind prefix, drop the rest.
        trimmed = [
            r for r in _segment_records(path, segment) if r["lsn"] < keep_from
        ]
        data = "".join(
            json.dumps(r, separators=(",", ":")) + "\n" for r in trimmed
        ).encode("utf-8")
        seg_tmp = segment_path.with_name(segment_path.name + ".tmp")
        with open(seg_tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(seg_tmp, segment_path)
        surviving.append(
            {
                **segment,
                "last_lsn": trimmed[-1]["lsn"],
                "records": len(trimmed),
                "crc": zlib.crc32(data),
            }
        )
        report.segments_trimmed += 1
    if changed:
        manifest["segments"] = surviving
        if surviving:
            _write_manifest(path, manifest)
        else:
            try:
                os.remove(manifest_path(path))
            except OSError:
                pass
    return report


# -- backup and restore ------------------------------------------------------------


@dataclass
class BackupReport:
    """What one :func:`backup_journal` / :func:`restore_backup` run did."""

    action: str = "backup"
    journal: str = ""
    destination: str = ""
    files: int = 0
    bytes: int = 0

    def to_text(self) -> str:
        """A human-readable summary (the CLI prints this)."""
        return (
            f"{self.action}: {self.journal} -> {self.destination} "
            f"({self.files} files, {self.bytes} bytes)"
        )


def _backup_files(path: Path) -> list[Path]:
    """Every file a complete backup of ``path`` must carry: the live
    journal, its archive manifest (when present) and every segment the
    manifest names (a missing one fails the backup — a backup that cannot
    rewind is not a backup)."""
    files = [path]
    manifest = read_manifest(path)
    if manifest["segments"]:
        files.append(manifest_path(path))
    for segment in manifest["segments"]:
        segment_path = path.with_name(segment["name"])
        if not segment_path.exists():
            raise WALError(
                f"{segment_path}: archive segment named by the manifest is "
                f"missing; refusing to take an incomplete backup"
            )
        files.append(segment_path)
    return files


def backup_journal(
    wal: WriteAheadJournal | str | Path,
    destination: str | Path,
    *,
    fault_injector: Any = None,
) -> BackupReport:
    """Copy the journal, manifest and archive segments into a backup
    directory — atomically, by staging into ``<destination>.partial`` and
    renaming once every file (and the self-describing ``backup.json``
    catalog of names, sizes and CRC32s) is in place.  A crash mid-copy
    (the ``backup.copy`` fault point) leaves only the stage directory,
    never a half-written backup under the destination name.
    """
    path = wal.path if isinstance(wal, WriteAheadJournal) else Path(wal)
    if not path.exists():
        raise WALError(f"{path}: no journal to back up")
    destination = Path(destination)
    if destination.exists():
        raise WALError(f"{destination}: backup destination already exists")
    files = _backup_files(path)
    stage = destination.with_name(destination.name + ".partial")
    if stage.exists():
        shutil.rmtree(stage)
    stage.mkdir(parents=True)
    entries: list[dict[str, Any]] = []
    try:
        for source in files:
            if fault_injector is not None:
                fault_injector.fire("backup.copy")
            data = source.read_bytes()
            (stage / source.name).write_bytes(data)
            entries.append(
                {"name": source.name, "bytes": len(data), "crc": zlib.crc32(data)}
            )
        metadata = {
            "format": 1,
            "journal": path.name,
            "files": entries,
        }
        (stage / BACKUP_METADATA).write_text(
            json.dumps(metadata, indent=2) + "\n", encoding="utf-8"
        )
        os.replace(stage, destination)
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        raise
    return BackupReport(
        action="backup",
        journal=str(path),
        destination=str(destination),
        files=len(entries),
        bytes=sum(e["bytes"] for e in entries),
    )


def restore_backup(
    backup: str | Path,
    wal_path: str | Path,
    *,
    fault_injector: Any = None,
) -> BackupReport:
    """Reinstate a backup as the journal at ``wal_path``.

    Every file is CRC-verified against ``backup.json`` *before* anything
    is written (a tampered backup is refused whole), file names are
    re-rooted onto the destination journal's name (manifest contents
    included), and the live journal file is written last — a crash
    mid-restore (the ``backup.copy`` fault point) leaves no journal file,
    so a retry starts clean and simply overwrites the stray segments.
    """
    backup = Path(backup)
    metadata_path = backup / BACKUP_METADATA
    if not metadata_path.exists():
        raise WALError(f"{backup}: not a journal backup (no {BACKUP_METADATA})")
    try:
        metadata = json.loads(metadata_path.read_text(encoding="utf-8"))
    except ValueError:
        raise WALError(f"{metadata_path}: backup catalog is not valid JSON") from None
    original = metadata.get("journal")
    entries = metadata.get("files", [])
    if not isinstance(original, str) or not isinstance(entries, list):
        raise WALError(f"{metadata_path}: backup catalog is malformed")
    wal_path = Path(wal_path)
    if wal_path.exists():
        raise WALError(
            f"{wal_path}: refusing to overwrite an existing journal; "
            f"remove it (or restore elsewhere) first"
        )

    contents: dict[str, bytes] = {}
    for entry in entries:
        source = backup / entry["name"]
        if not source.exists():
            raise WALError(f"{source}: file named by the backup catalog is missing")
        data = source.read_bytes()
        if zlib.crc32(data) != entry.get("crc"):
            raise WALError(
                f"{source}: backup file does not match its catalog checksum"
            )
        if not entry["name"].startswith(original):
            raise WALError(
                f"{source}: backup file does not belong to journal {original!r}"
            )
        contents[entry["name"]] = data

    def renamed(name: str) -> str:
        return wal_path.name + name[len(original):]

    manifest_name = original + ".manifest.json"
    if manifest_name in contents:
        manifest = json.loads(contents[manifest_name].decode("utf-8"))
        manifest["journal"] = wal_path.name
        for segment in manifest.get("segments", ()):
            segment["name"] = renamed(segment["name"])
        contents[manifest_name] = json.dumps(
            manifest, separators=(",", ":")
        ).encode("utf-8")

    # Segments and manifest first, the journal itself last: its presence
    # is what marks the restore complete.
    ordered = sorted(contents, key=lambda name: name == original)
    written = 0
    for name in ordered:
        if fault_injector is not None:
            fault_injector.fire("backup.copy")
        target = wal_path.with_name(renamed(name))
        tmp = target.with_name(target.name + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(contents[name])
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
        written += len(contents[name])
    return BackupReport(
        action="restore",
        journal=str(backup),
        destination=str(wal_path),
        files=len(contents),
        bytes=written,
    )

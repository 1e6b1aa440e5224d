"""Change-data-capture over the WAL plus the in-process event bus.

The write-ahead journal already *is* a total order of everything that
happened — every evolution operator, fact load, relational write and
restore point, stamped with an LSN and fenced by ``begin``/``commit``
records.  This module turns that order into a live surface:

* :class:`ChangeStream` tails **committed** records in commit-LSN order.
  It reads through :func:`~repro.robustness.wal.read_chain`, so a tail
  is transparent across compaction boundaries (archived
  ``<wal>.NNNN.seg`` segments chain seamlessly into the live journal),
  resumable from any LSN (``from_lsn`` / :attr:`ChangeStream.cursor`),
  and filterable by record kind.  Records of a transaction surface
  *only once its commit record is durable*, atomically, in journal
  order — an aborted or still-open transaction is invisible, exactly as
  it is to recovery.
* :class:`EventBus` fans events — committed change events and the
  server tier's audit events — out to registered subscribers.  Each
  subscription owns a **bounded** queue: a slow subscriber loses events
  (counted per subscriber, surfaced in metrics) instead of ever
  blocking the committing writer.
* :class:`AuditEvent` / :class:`AuditLog` — the structured JSONL audit
  trail the server writes, keyed by tenant and session (auth
  success/failure, statement execution, evolve, admission rejection,
  drain), with the commit LSN attached where one exists so ``repro
  doctor`` can cross-check the trail against the journal.

The robustness imports happen lazily inside functions: this package is
imported *by* :mod:`repro.robustness.wal` (for the runtime defaults), so
a module-level import here would be a cycle.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

from . import runtime as _obs

__all__ = [
    "CDC_KINDS",
    "AUDIT_ACTIONS",
    "ChangeEvent",
    "ChangeStream",
    "committed_events",
    "last_committed_lsn",
    "EventBus",
    "Subscription",
    "publish_commits",
    "AuditEvent",
    "AuditLog",
    "read_audit_log",
]

#: Record kinds a change stream delivers.  ``begin``/``commit``/``abort``
#: are transaction plumbing (folded into :attr:`ChangeEvent.commit_lsn`)
#: and ``checkpoint`` is a recovery baseline, not a change.
CDC_KINDS = ("op", "fact", "catalog", "dml", "restore_point")

#: Actions the server-tier audit trail records.
AUDIT_ACTIONS = (
    "auth",
    "auth_failed",
    "statement",
    "evolve",
    "rejected",
    "drain",
)


def _normalize_kinds(kinds: Iterable[str] | None) -> frozenset[str] | None:
    if kinds is None:
        return None
    selected = frozenset(kinds)
    unknown = selected - set(CDC_KINDS)
    if unknown:
        raise ValueError(
            f"unknown change-stream kind(s) {', '.join(sorted(unknown))!s} "
            f"(choose from {', '.join(CDC_KINDS)})"
        )
    return selected


@dataclass(frozen=True)
class ChangeEvent:
    """One committed WAL record, as delivered by a :class:`ChangeStream`.

    ``lsn`` is the record's own position; ``commit_lsn`` is the LSN of
    the commit record that made it durable (for ``restore_point``
    records — durable on append, outside any transaction — the two are
    equal).  ``record`` is the raw journal record, byte-equivalent to
    what :func:`~repro.robustness.wal.read_chain` returns.
    """

    lsn: int
    commit_lsn: int
    txid: int | None
    kind: str
    record: Mapping[str, Any]

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready view (what ``repro tail`` prints)."""
        return {
            "lsn": self.lsn,
            "commit_lsn": self.commit_lsn,
            "txid": self.txid,
            "kind": self.kind,
            "record": dict(self.record),
        }


def committed_events(
    records: Iterable[Mapping[str, Any]],
    *,
    kinds: Iterable[str] | None = None,
) -> list[ChangeEvent]:
    """Fold a journal record sequence into committed change events.

    Uses the journal's positional commit resolution
    (:func:`repro.robustness.wal.committed_records`), shared with
    recovery and point-in-time undo.  Events come out in strict
    commit-LSN order (payload records grouped under their commit, in
    journal order; restore points at their own LSN).
    """
    from repro.robustness.wal import committed_records

    selected = _normalize_kinds(kinds)
    records = list(records)
    events = [
        ChangeEvent(
            lsn=records[i]["lsn"],
            commit_lsn=commit["lsn"],
            txid=commit.get("txid"),
            kind=records[i]["kind"],
            record=records[i],
        )
        for commit, owned in committed_records(records)[0]
        for i in owned
    ]
    if selected is None:
        return events
    return [event for event in events if event.kind in selected]


def last_committed_lsn(path: str | Path) -> int:
    """The LSN of the newest ``commit`` record in a journal's full chain
    (0 when nothing ever committed) — the doctor's cross-check anchor."""
    from repro.robustness.wal import read_chain

    last = 0
    for record in read_chain(path):
        if record["kind"] == "commit":
            last = record["lsn"]
    return last


class ChangeStream:
    """Tails committed WAL records in commit-LSN order.

    A stream is a *cursor* over the journal's full history: ``poll()``
    returns every event whose commit LSN is beyond the cursor and
    advances it, so interleaving polls with writer commits — or with
    compactions that archive the records into segment files — yields
    exactly the sequence a cold replay over
    :func:`~repro.robustness.wal.read_chain` would.  ``from_lsn``
    resumes a previous tail: events with ``commit_lsn <= from_lsn`` are
    skipped (a transaction's records are delivered atomically, so the
    commit LSN is the natural resume token; :attr:`cursor` after any
    poll is exactly what to persist).

    The stream is read-only and opens no append handle — tailing a
    journal another process is writing is safe.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        from_lsn: int = 0,
        kinds: Iterable[str] | None = None,
        metrics: Any = None,
    ) -> None:
        self.path = Path(path)
        self.kinds = _normalize_kinds(kinds)
        self._cursor = int(from_lsn)
        self._metrics = metrics

    def _metrics_now(self) -> Any:
        return self._metrics if self._metrics is not None else _obs.current_metrics()

    @property
    def cursor(self) -> int:
        """The commit LSN the stream has delivered through — persist it
        and pass as ``from_lsn`` to resume."""
        return self._cursor

    def poll(self) -> list[ChangeEvent]:
        """Every committed event beyond the cursor, advancing it.

        The cursor advances past commits the kind filter swallowed
        entirely, so a filtered stream never re-scans them.
        """
        from repro.robustness.wal import read_chain

        fresh = [
            event
            for event in committed_events(read_chain(self.path))
            if event.commit_lsn > self._cursor
        ]
        if fresh:
            self._cursor = fresh[-1].commit_lsn
        if self.kinds is not None:
            fresh = [event for event in fresh if event.kind in self.kinds]
        metrics = self._metrics_now()
        if metrics.enabled and fresh:
            metrics.counter("events.stream.delivered").inc(len(fresh))
        return fresh

    def follow(
        self,
        *,
        poll_interval: float = 0.05,
        stop: Callable[[], bool] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> Iterator[ChangeEvent]:
        """Yield events forever (or until ``stop()`` turns true), polling
        between batches — the ``repro tail --follow`` loop."""
        while True:
            yield from self.poll()
            if stop is not None and stop():
                return
            sleep(poll_interval)


# -- the in-process event bus -----------------------------------------------------


class Subscription:
    """One subscriber's bounded view of the bus.

    Events queue up until :meth:`drain`; when the queue is full the
    *incoming* event is dropped (the backlog the subscriber has not read
    yet stays intact) and :attr:`dropped` counts it.  Publishing never
    blocks.
    """

    __slots__ = ("name", "topics", "maxlen", "dropped", "delivered", "_queue", "_bus")

    def __init__(
        self,
        bus: "EventBus",
        name: str,
        topics: frozenset[str] | None,
        maxlen: int,
    ) -> None:
        self._bus = bus
        self.name = name
        self.topics = topics
        self.maxlen = maxlen
        self.dropped = 0
        self.delivered = 0
        self._queue: deque[tuple[str, Any]] = deque()

    def _offer(self, topic: str, event: Any) -> bool:
        if self.topics is not None and topic not in self.topics:
            return False
        if len(self._queue) >= self.maxlen:
            self.dropped += 1
            return False
        self._queue.append((topic, event))
        self.delivered += 1
        return True

    def drain(self) -> list[tuple[str, Any]]:
        """Take every queued ``(topic, event)`` pair, oldest first."""
        with self._bus._lock:
            out = list(self._queue)
            self._queue.clear()
        return out

    def __len__(self) -> int:
        return len(self._queue)

    def close(self) -> None:
        """Unsubscribe from the bus."""
        self._bus.unsubscribe(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Subscription({self.name!r}, queued={len(self._queue)}, "
            f"dropped={self.dropped})"
        )


class EventBus:
    """Fans events out to bounded subscriber queues; never blocks.

    ``publish`` offers the event to every matching subscription under
    one lock — a commit hook or an audit point pays a few deque appends,
    no subscriber code runs inline.  Slow subscribers shed load into
    their own drop counters (``events.bus.dropped{subscriber=}`` in the
    metrics registry) instead of back-pressuring the publisher.
    """

    DEFAULT_QUEUE = 1024

    def __init__(self, *, metrics: Any = None, max_queue: int = DEFAULT_QUEUE) -> None:
        if max_queue < 1:
            raise ValueError("event-bus queues need room for at least one event")
        self.max_queue = max_queue
        self._metrics = metrics
        self._lock = threading.Lock()
        self._subscriptions: list[Subscription] = []
        self._next_name = 1
        self.published = 0

    def _metrics_now(self) -> Any:
        return self._metrics if self._metrics is not None else _obs.current_metrics()

    def subscribe(
        self,
        name: str | None = None,
        *,
        topics: Iterable[str] | None = None,
        max_queue: int | None = None,
    ) -> Subscription:
        """Register a subscriber; ``topics=None`` receives everything."""
        maxlen = self.max_queue if max_queue is None else max_queue
        if maxlen < 1:
            raise ValueError("event-bus queues need room for at least one event")
        with self._lock:
            if name is None:
                name = f"subscriber-{self._next_name}"
            self._next_name += 1
            subscription = Subscription(
                self,
                name,
                frozenset(topics) if topics is not None else None,
                maxlen,
            )
            self._subscriptions.append(subscription)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Remove a subscription (idempotent)."""
        with self._lock:
            try:
                self._subscriptions.remove(subscription)
            except ValueError:
                pass

    @property
    def subscribers(self) -> tuple[Subscription, ...]:
        """Every live subscription."""
        with self._lock:
            return tuple(self._subscriptions)

    def publish(self, topic: str, event: Any) -> int:
        """Offer ``event`` to every matching subscriber; returns how many
        accepted it (the rest dropped or filtered)."""
        accepted = 0
        drops: list[str] = []
        with self._lock:
            self.published += 1
            for subscription in self._subscriptions:
                before = subscription.dropped
                if subscription._offer(topic, event):
                    accepted += 1
                elif subscription.dropped > before:
                    drops.append(subscription.name)
        metrics = self._metrics_now()
        if metrics.enabled:
            metrics.counter("events.bus.published", {"topic": topic}).inc()
            for name in drops:
                metrics.counter("events.bus.dropped", {"subscriber": name}).inc()
        return accepted

    def stats(self) -> dict[str, Any]:
        """Publish/drop totals plus one row per subscriber."""
        with self._lock:
            return {
                "published": self.published,
                "dropped": sum(s.dropped for s in self._subscriptions),
                "subscribers": {
                    s.name: {
                        "queued": len(s._queue),
                        "delivered": s.delivered,
                        "dropped": s.dropped,
                        "topics": sorted(s.topics) if s.topics is not None else None,
                    }
                    for s in self._subscriptions
                },
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EventBus(subscribers={len(self._subscriptions)}, "
            f"published={self.published})"
        )


def publish_commits(
    transactions: Any, bus: EventBus, *, topic: str = "commit"
) -> Callable[[Any], None]:
    """Wire a :class:`~repro.robustness.transactions.TransactionManager`
    into the bus: every durable commit publishes ``{"txid", "commit_lsn"}``
    (the hook returned can be removed from ``postcommit_hooks`` later)."""

    def hook(txn: Any) -> None:
        bus.publish(topic, {"txid": txn.txid, "commit_lsn": txn.commit_lsn})

    transactions.postcommit_hooks.append(hook)
    return hook


# -- the server audit trail -------------------------------------------------------


@dataclass(frozen=True)
class AuditEvent:
    """One auditable server-tier action, keyed by tenant and session."""

    action: str
    tenant: str | None = None
    session: str | None = None
    ok: bool = True
    lsn: int | None = None
    detail: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.action not in AUDIT_ACTIONS:
            raise ValueError(
                f"unknown audit action {self.action!r} "
                f"(choose from {', '.join(AUDIT_ACTIONS)})"
            )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "action": self.action,
            "tenant": self.tenant,
            "session": self.session,
            "ok": self.ok,
        }
        if self.lsn is not None:
            out["lsn"] = self.lsn
        if self.detail:
            out["detail"] = dict(self.detail)
        return out


class AuditLog:
    """An append-only JSONL audit trail.

    Each :meth:`record` call appends one line — wall-clock timestamp
    plus the event fields — and (optionally) republishes the event on an
    :class:`EventBus` under the ``"audit"`` topic.  Commit-carrying
    events keep their ``lsn`` field, so :meth:`last_lsn` gives ``repro
    doctor`` something to compare against the journal.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        bus: EventBus | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.path = Path(path)
        self.bus = bus
        self._clock = clock
        self._lock = threading.Lock()
        self.recorded = 0

    def record(self, event: AuditEvent) -> dict[str, Any]:
        """Append one event; returns the entry as written."""
        entry = {"at": round(self._clock(), 6), **event.to_dict()}
        line = json.dumps(entry, separators=(",", ":"))
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
            self.recorded += 1
        if self.bus is not None:
            self.bus.publish("audit", entry)
        metrics = _obs.current_metrics()
        if metrics.enabled:
            metrics.counter(
                "server.audit_events",
                {"action": event.action, "tenant": event.tenant or ""},
            ).inc()
        return entry

    def entries(
        self, *, tenant: str | None = None, action: str | None = None
    ) -> list[dict[str, Any]]:
        """Read the trail back, optionally filtered."""
        return read_audit_log(self.path, tenant=tenant, action=action)

    def last_lsn(self) -> int:
        """The newest commit LSN the trail witnessed (0 when none)."""
        last = 0
        for entry in self.entries():
            lsn = entry.get("lsn")
            if isinstance(lsn, int) and lsn > last:
                last = lsn
        return last


def read_audit_log(
    path: str | Path,
    *,
    tenant: str | None = None,
    action: str | None = None,
) -> list[dict[str, Any]]:
    """Parse an audit JSONL file (missing file → empty trail); a torn
    final line — crash mid-append — is dropped, like the WAL's."""
    path = Path(path)
    if not path.exists():
        return []
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    out: list[dict[str, Any]] = []
    for i, line in enumerate(lines):
        try:
            entry = json.loads(line)
        except ValueError:
            if i == len(lines) - 1:
                break
            raise ValueError(f"{path}:{i + 1}: corrupt audit entry") from None
        if tenant is not None and entry.get("tenant") != tenant:
            continue
        if action is not None and entry.get("action") != action:
            continue
        out.append(entry)
    return out

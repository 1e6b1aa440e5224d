"""Layer spans recorded from outside the program.

The traced run wraps the public entry points of each layer of
``repro`` with timing wrappers -- no source edits.  A span carries a
name, start and end (``perf_counter_ns``), its parent span and the id of
the wire request it served; spans stay in memory and are written out
when the server stops.

Request ids are assigned where requests enter the server: the wrapper
around ``decode_line`` numbers each decoded line and stores the number
in a context variable of the connection task.  The server copies that
context into its executor thread, so engine spans carry the id too.  The
load generator sends one request at a time and counts its own, so the
n-th request it sent is request ``n`` here.
"""

from __future__ import annotations

import contextvars
import importlib
import itertools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

_request = contextvars.ContextVar("perfbench_request", default=0)
_parent = contextvars.ContextVar("perfbench_parent", default=0)

#: ``(span name, module, attribute)`` -- every wrapped entry point.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("protocol.decode", "repro.server.server", "decode_line"),
    ("protocol.encode", "repro.server.server", "encode_message"),
    ("session.execute", "repro.server.session", "ServerSession.execute"),
    ("session.pivot", "repro.server.session", "ServerSession.pivot"),
    ("session.refresh", "repro.server.session", "ServerSession.refresh"),
    ("session.evolve", "repro.server.session", "ServerSession.evolve"),
    ("session.serialize", "repro.server.session", "result_row_to_dict"),
    ("session.serialize", "repro.server.session", "cube_view_to_dict"),
    ("rls.apply", "repro.server.rls", "RLSPolicy.apply"),
    ("mvql.parse", "repro.mvql.session", "parse"),
    ("mvql.compile", "repro.mvql.session", "MVQLSession.compile_select"),
    ("dimension.at", "repro.core.dimension", "TemporalDimension.at"),
    ("cache.digest", "repro.cache", "query_digest"),
    ("cache.get", "repro.cache", "VersionedResultCache.get"),
    ("engine.resolve", "repro.core.query", "QueryEngine.resolve"),
    ("engine.collect", "repro.core.query", "QueryEngine.collect_contributions"),
    ("engine.finalize", "repro.core.query", "QueryEngine.finalize"),
    ("olap.pivot", "repro.olap.cube", "Cube.pivot"),
    ("mvft.build", "repro.core.multiversion", "MultiVersionFactTable.build"),
    ("mvcc.commit", "repro.concurrency.manager", "SnapshotManager.run_write"),
    ("mvcc.open_cursor", "repro.concurrency.manager", "SnapshotManager.open_cursor"),
    ("mvcc.clone", "repro.concurrency.manager", "clone_schema"),
    ("wal.append", "repro.robustness.wal", "WriteAheadJournal.append"),
)

#: Span-name prefix -> the repro layer (module) it times.
LAYERS = {
    "protocol": "server.protocol",
    "session": "server.session",
    "rls": "server.rls",
    "mvql": "mvql",
    "dimension": "core.dimension",
    "cache": "cache",
    "engine": "core.query",
    "olap": "olap",
    "mvft": "core.multiversion",
    "mvcc": "concurrency",
    "wal": "robustness",
}


def layer_of(name: str) -> str:
    return LAYERS[name.split(".", 1)[0]]


def _describe(name: str, result: Any) -> Any:
    """The one number a span keeps about its result, if any."""
    if name == "protocol.encode":
        return len(result)
    if name == "cache.get":
        return 0 if result is None else 1
    if name == "mvft.build":
        return len(result)
    return None


class Recorder:
    """Installs and removes the wrappers; holds the recorded spans."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._saved: list[tuple[Any, str, Any]] = []

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, ids, requests = self.spans, self._ids, self._requests
        clock = time.perf_counter_ns
        numbering = name == "protocol.decode"

        def wrapper(*args, **kwargs):
            if numbering:
                _request.set(next(requests))
            span_id = next(ids)
            parent = _parent.get()
            token = _parent.set(span_id)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                _parent.reset(token)
                spans.append(
                    (span_id, parent, name, start, end, _request.get(),
                     _describe(name, result))
                )

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._saved:
            return
        for name, module_name, attribute in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = (
                owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            )
            if isinstance(original, classmethod):
                wrapped: Any = classmethod(self._wrap(name, original.__func__))
            else:
                wrapped = self._wrap(name, original)
            setattr(owner, leaf, wrapped)
            self._saved.append((owner, leaf, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


# -- analysis (load generator side) ------------------------------------------------


def read_spans(path) -> list[tuple]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(json.loads(line)) for line in handle if line.strip()]


class RequestTable:
    """Spans folded per wire request: self time, calls and the kept
    numbers per span name.

    Self time is a span's duration minus the time its child spans
    cover; children run nested in their parent's thread, so they never
    overlap one another.
    """

    def __init__(self, spans: Iterable[tuple]) -> None:
        spans = list(spans)
        child_time: dict[int, int] = defaultdict(int)
        for span_id, parent, _name, start, end, _req, _extra in spans:
            if parent:
                child_time[parent] += end - start
        self.self_ns: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.calls: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.extras: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(list))
        for span_id, _parent_id, name, start, end, req, extra in spans:
            self.self_ns[req][name] += end - start - child_time.get(span_id, 0)
            self.calls[req][name] += 1
            if extra is not None:
                self.extras[req][name].append(extra)

    def fold(self, requests: Iterable[int]) -> tuple[dict, dict, dict]:
        """Summed self time (ns), calls and extras over ``requests``."""
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        extras: dict[str, list] = defaultdict(list)
        for req in requests:
            for name, value in self.self_ns.get(req, {}).items():
                self_ns[name] += value
            for name, value in self.calls.get(req, {}).items():
                calls[name] += value
            for name, value in self.extras.get(req, {}).items():
                extras[name].extend(value)
        return self_ns, calls, extras

"""The warehouse benchmark: dashboard, explore and churn over the wire.

Run from the repository root::

    python3 perfbench/run.py --workload dashboard --seed 42 --seconds 15 --trace 0

Each run launches real ``repro.server`` processes (``serve.py``) over a
warehouse generated from ``--seed`` and drives them from this process
through ``WarehouseClient`` in a closed loop: one reader connection (plus
one writer connection for commits), one request in flight at a time.

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` measures the per-layer metrics with the layer wrappers of
``spans.py`` installed in the server.  Every reply is checked against an
in-process ``QueryEngine`` reference built from the same seed, outside
the timed windows.  Lines before the last one on standard output are
``{"details": ...}`` objects (sample counts, host probe, workload facts,
layer split); the last line is the result object.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: Server launches per untraced run; ``setup_s`` is their median.
SETUP_LAUNCHES = 3
#: Untraced/traced segment pairs in a traced run's window.
TRACE_SEGMENTS = 4
#: New reader sessions timed for ``fresh_read_p50_ms`` on dashboard
#: and explore.  They come before any commit, so they pin the version
#: the reader reads.
FRESH_SESSIONS = 20
#: Health round trips timed for ``wire.rtt_ms``.
RTT_PROBES = 200
#: Seconds between ticks of the measured window.  Each tick probes the
#: host; on dashboard and explore it also opens one fresh session (until
#: ``FRESH_SESSIONS`` are done) or else makes ``COMMITS_PER_TICK`` commits,
#: so those samples spread over the window like the reads do.
TICK = 0.4
COMMITS_PER_TICK = 4
#: Commits a window too short for them is topped up to.
MIN_COMMITS = 10
#: Page size for warm-up reads (one round trip each).
WARMUP_PAGE = 10_000
SERVER_TIMEOUT = 120.0


# -- small helpers -------------------------------------------------------------


def calibrate() -> float:
    """One host-speed probe: a fixed stdlib loop, in ms."""
    start = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i % 7
    return (time.perf_counter() - start) * 1000.0


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ms(seconds: float) -> float:
    return seconds * 1000.0


# -- the server process ----------------------------------------------------------


class ServerProcess:
    """One ``serve.py`` child: launched, read from, stopped and waited."""

    def __init__(self, workload: str, seed: int, out: Path, trace: bool) -> None:
        out.mkdir(parents=True, exist_ok=True)
        command = [
            sys.executable, str(HERE / "serve.py"),
            "--workload", workload, "--seed", str(seed), "--out", str(out),
        ]
        if trace:
            command.append("--trace")
        self.out = out
        self._log = open(out / "server.log", "wb")
        self.proc = subprocess.Popen(
            command, cwd=ROOT, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log,
        )
        self._buffer = b""
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.proc.stdout, selectors.EVENT_READ)

    def read(self, timeout: float = SERVER_TIMEOUT) -> dict:
        """The next JSON line the server prints."""
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._selector.select(remaining):
                raise RuntimeError(f"server silent for {timeout}s ({self.out})")
            chunk = os.read(self.proc.stdout.fileno(), 65536)
            if not chunk:
                raise RuntimeError(
                    f"server exited with {self.proc.wait()} "
                    f"(see {self.out / 'server.log'})"
                )
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def toggle_trace(self) -> bool:
        self.proc.send_signal(signal.SIGUSR1)
        return self.read()["traced"]

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._selector.close()
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


# -- the client side ---------------------------------------------------------------


def client_class():
    from repro.server import WarehouseClient

    class CountingClient(WarehouseClient):
        """A ``WarehouseClient`` that numbers its requests the way a
        traced server numbers the lines it decodes."""

        def __init__(self, port: int, api_key: str, counter: "RequestCounter") -> None:
            self._counter = counter
            super().__init__("127.0.0.1", port, api_key=api_key, timeout=60.0)

        def call(self, op, **fields):
            self._counter.tick()
            return super().call(op, **fields)

    return CountingClient


class RequestCounter:
    """Request ids as the traced server assigns them: they advance only
    while the server's wrappers are installed."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.last = 0

    def tick(self) -> None:
        if self.traced:
            self.last += 1


class Sample:
    """One timed client operation."""

    __slots__ = ("phase", "kind", "seconds", "first", "last")

    def __init__(self, phase, kind, seconds, first, last) -> None:
        self.phase, self.kind, self.seconds = phase, kind, seconds
        self.first, self.last = first, last

    def requests(self) -> range:
        return range(self.first, self.last + 1)


# -- one run -------------------------------------------------------------------------


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool) -> None:
        import workloads
        from repro.server import RemoteError, RemoteTimeoutError

        self.RemoteError, self.RemoteTimeoutError = RemoteError, RemoteTimeoutError
        self.w = workloads
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.out = OUT / f"{workload}-{seed}-{int(trace)}"
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.Client = client_class()
        self.servers: list[ServerProcess] = []
        self.counter = RequestCounter(trace)
        self.samples: list[Sample] = []
        self.seen: dict = {}  # op -> digest of its first reply
        self.replies: list[tuple] = []  # (op, digest) in issue order
        self.versions: list[tuple[int, int]] = []  # (acked commit, fresh read)
        self.attempted = self.failed = 0
        self.wrong: list[str] = []  # every wrong answer, described
        self.calib: dict[str, list[float]] = {"before": [], "during": [], "after": []}
        self.commits = 0
        self.reference = None
        self.port = None
        self.writer = None  # connected at the first commit

    # -- plumbing

    def close(self) -> None:
        for server in self.servers:
            server.stop()

    def timed(self, phase: str, kind: str, fn):
        """Run ``fn()`` as one timed operation; errors count as failed."""
        first = self.counter.last + 1
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn()
        except self.RemoteError as exc:
            if isinstance(exc, self.RemoteTimeoutError):
                raise
            self.failed += 1
            print(f"failed {kind}: {exc} [{exc.code}]", file=sys.stderr)
            return None
        elapsed = time.perf_counter() - start
        self.samples.append(Sample(phase, kind, elapsed, first, self.counter.last))
        return result

    def read(self, client, op, phase: str, *, page_size=None):
        """One read; its reply digest is kept for the reference check."""
        if op.kind == "query":
            call = lambda: client.query(op.statement, page_size=page_size)  # noqa: E731
        else:
            call = lambda: client.pivot(  # noqa: E731
                op.mode, op.rows, op.cols, "amount", page_size=page_size
            )
        reply = self.timed(phase, "read", call)
        if reply is not None:
            digest = self.w.remote_digest(op, reply)
            self.replies.append((op, digest))
            self.seen.setdefault(op, digest)
        return reply

    def evolve(self, phase: str) -> dict | None:
        """One commit by the writer; the refresh before it is untimed.

        The writer connects at the first commit, so on dashboard and
        explore it is not open yet while the fresh sessions run: never
        more than two connections to the measured server.
        """
        if self.writer is None:
            self.writer = self.Client(self.port, self.w.API_KEYS["writer"], self.counter)
        writer = self.writer
        writer.refresh()
        spec = self.w.evolve_spec(self.workload, self.seed, self.commits)
        ack = self.timed(phase, "commit", lambda: writer.evolve(spec))
        if ack is not None:
            self.commits += 1
            if ack["committed_version"] <= ack["base_version"]:
                self.wrong.append(f"commit did not advance the version: {ack}")
        return ack

    def probe(self, phase: str) -> None:
        self.calib[phase].append(calibrate())

    # -- phases

    def launch(self, measured: bool):
        """Launch a server and time it until its first authenticated read
        is answered (one ``setup_s`` sample).  Only the measured server
        stays up; another launch is stopped at once."""
        out = self.out / f"launch{len(self.seconds_of('setup'))}"
        counter = self.counter if measured else RequestCounter(False)
        start = time.perf_counter()
        server = ServerProcess(self.workload, self.seed, out, self.trace)
        self.servers.append(server)
        info = server.read()
        reader = self.Client(info["port"], self.w.API_KEYS["reader"], counter)
        reply = self.read(
            reader, self.first_op(info["modes"]), "first", page_size=self.first_page()
        )
        if reply is None:
            raise RuntimeError("the first read of a launch failed")
        self.samples.append(Sample("setup", "setup", time.perf_counter() - start, 0, 0))
        if not measured:
            reader.close()
            server.stop()
            self.servers.remove(server)
        return server, info, reader

    def first_op(self, modes):
        if self.workload == "dashboard":
            return self.w.dashboard_panel(self.seed, modes)[0]
        if self.workload == "explore":
            return self.w.explore_warmup(modes)[0]
        return self.w.churn_panel(self.seed, modes)[0]

    def first_page(self):
        return WARMUP_PAGE if self.workload == "explore" else None

    def window(self, step, seconds: float, phase: str, interludes=(), tick=None) -> None:
        """Call ``step(phase)`` for ``seconds`` of measured time, with a
        host probe and ``tick(phase)`` between steps every ``TICK`` seconds.

        The window is cut into one more segment than there are
        ``interludes`` (untimed work: extra set-up launches, building the
        reference), which run between the segments.  So the measured
        time is spread over a longer stretch of the run and one slow
        spell of the host weighs less on it.
        """
        segment = seconds / (len(interludes) + 1)
        for interlude in (*interludes, None):
            start = time.perf_counter()
            next_tick = start + TICK
            while time.perf_counter() - start < segment:
                step(phase)
                now = time.perf_counter()
                if now >= next_tick:
                    self.probe("during")
                    if tick is not None:
                        tick(phase)
                    next_tick = time.perf_counter() + TICK
            if interlude is not None:
                interlude()

    def measure(self, server: ServerProcess, info: dict, reader) -> dict:
        w = self.w
        modes = info["modes"]
        self.port = info["port"]
        for _ in range(15):
            self.probe("before")

        if self.workload == "dashboard":
            panel = w.dashboard_panel(self.seed, modes)
            fresh_op = lambda: panel[0]  # noqa: E731
            for op in panel:
                self.read(reader, op, "warmup")

            def step(phase):
                for op in panel:
                    self.read(reader, op, phase)
        elif self.workload == "explore":
            for op in w.explore_warmup(modes)[1:]:
                self.read(reader, op, "warmup", page_size=WARMUP_PAGE)
            stream = w.ExploreStream(self.seed, modes)
            fresh_op = stream.fresh

            def step(phase):
                self.read(reader, stream.next(), phase)
        else:
            panel = w.churn_panel(self.seed, modes)
            for op in panel[1:]:
                self.read(reader, op, "warmup")

            def step(phase):
                ack = self.evolve(phase)
                if ack is None:
                    return
                committed = ack["committed_version"]
                first = self.counter.last + 1
                start = time.perf_counter()
                refreshed = reader.refresh()
                self.read(reader, panel[0], "fresh-read")
                self.samples.append(
                    Sample("fresh", "fresh", time.perf_counter() - start,
                           first, self.counter.last)
                )
                self.versions.append((committed, refreshed["version"]))
                for op in panel[1:]:
                    self.read(reader, op, phase)
                for _ in range(w.CHURN_PASSES - 1):
                    for op in panel:
                        self.read(reader, op, phase)

        tick = None
        if self.workload != "churn":

            def fresh_session():
                """Connect, auth (which pins a cursor) and a first read."""
                first = self.counter.last + 1
                start = time.perf_counter()
                session = self.Client(info["port"], w.API_KEYS["reader"], self.counter)
                self.read(session, fresh_op(), "fresh-read")
                self.samples.append(
                    Sample("fresh", "fresh", time.perf_counter() - start,
                           first, self.counter.last)
                )
                session.close()

            def tick(phase):
                if len(self.seconds_of("fresh")) < FRESH_SESSIONS:
                    fresh_session()
                else:
                    for _ in range(COMMITS_PER_TICK):
                        self.evolve(phase)

        if self.trace:
            # Untraced and traced segments alternate, so a change of host
            # speed within the run does not pose as tracing overhead.
            segment = self.seconds / (2 * TRACE_SEGMENTS)
            for _ in range(TRACE_SEGMENTS):
                self.counter.traced = server.toggle_trace()
                self.window(step, segment, "untraced", tick=tick)
                self.counter.traced = server.toggle_trace()
                self.window(step, segment, "window", tick=tick)
        else:
            interludes = [lambda: self.launch(measured=False)] * (SETUP_LAUNCHES - 1)
            if self.workload != "churn":
                interludes.append(self.build_reference)
            self.window(step, self.seconds, "window", interludes, tick)
        if tick is not None:
            # A window too short for every sample completes them here.
            while len(self.seconds_of("fresh")) < FRESH_SESSIONS:
                fresh_session()
            while len(self.seconds_of("window", "commit")) < MIN_COMMITS:
                self.evolve("window")

        rtt = []
        if self.trace:
            for _ in range(RTT_PROBES):
                start = time.perf_counter()
                reader.health()
                rtt.append(time.perf_counter() - start)
        for _ in range(15):
            self.probe("after")
        rss = server.peak_rss_mb()
        self.writer.close()
        reader.close()
        server.stop()
        self.servers.remove(server)
        return {"rss_mb": rss, "rtt": rtt}

    def build_reference(self, inserts: int = 0) -> None:
        self.reference = self.w.Reference(self.workload, self.seed, inserts=inserts)

    def check(self, modes: list[str]) -> dict:
        """Every reply against the in-process reference (untimed)."""
        w = self.w
        wrong = self.wrong
        for committed, fresh in self.versions:
            if fresh < committed:
                wrong.append(f"fresh read at version {fresh} < commit {committed}")
        if self.workload == "dashboard":
            for op, digest in self.replies:
                if digest != self.seen[op]:
                    wrong.append(f"repeat reply differs from the first: {op.label()}")
        # Dashboard and explore read the initial version: their reader
        # stays pinned and their commits begin after the fresh sessions.
        # Churn reads every version up to the last commit; its inserted
        # members carry no facts, so every answer stays as it was, which
        # the reference before any insert confirms.
        inserts = self.commits if self.workload == "churn" else 0
        if self.reference is None:
            self.build_reference(inserts)
        reference = self.reference
        if reference.modes != modes:
            wrong.append(f"reference modes {reference.modes} != served {modes}")
        expected = {op: reference.digest(op) for op in self.seen}
        if inserts:
            initial = w.Reference(self.workload, self.seed)
            for op in self.seen:
                if initial.digest(op) != expected[op]:
                    wrong.append(f"reference changed across commits: {op.label()}")
        for op, digest in self.replies:
            if digest != expected[op]:
                wrong.append(f"reply differs from the reference: {op.label()}")
        facts = {
            "facts": len(reference.schema.facts),
            "mv_rows": len(reference.mvft),
            "modes": len(reference.modes),
        }
        return {"wrong": wrong, "facts": facts}

    # -- metrics

    def seconds_of(self, phase: str, kind: str | None = None) -> list[float]:
        return [
            s.seconds for s in self.samples
            if s.phase == phase and (kind is None or s.kind == kind)
        ]

    def end_to_end(self, measured: dict) -> tuple[dict, dict]:
        reads = [ms(s) for s in self.seconds_of("window", "read")]
        commits = [ms(s) for s in self.seconds_of("window", "commit")]
        fresh = [ms(s) for s in self.seconds_of("fresh")]
        setup = self.seconds_of("setup")
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "read_p50_ms": (percentile(reads, 50), "ms"),
            "read_p90_ms": (percentile(reads, 90), "ms"),
            "commit_p50_ms": (percentile(commits, 50), "ms"),
            "fresh_read_p50_ms": (percentile(fresh, 50), "ms"),
            "server_peak_rss_mb": (measured["rss_mb"], "MB"),
        }
        counts = {
            "setup_s": len(setup),
            "read_p50_ms": len(reads),
            "read_p90_ms": len(reads),
            "read_p90_beyond": sum(1 for r in reads if r > metrics["read_p90_ms"][0]),
            "commit_p50_ms": len(commits),
            "fresh_read_p50_ms": len(fresh),
        }
        return metrics, counts

    def per_layer(self, measured: dict) -> tuple[dict, dict]:
        from spans import RequestTable, layer_of, read_spans

        out = self.out / "launch0"
        table = RequestTable(read_spans(out / "spans.jsonl"))
        server = json.loads((out / "server.json").read_text(encoding="utf-8"))
        if server["requests"] != self.counter.last:
            raise RuntimeError(
                f"traced server numbered {server['requests']} requests, "
                f"the client sent {self.counter.last}"
            )
        # Per-read figures cover the traced window's reads -- the steady
        # state read_p50_ms and read_p90_ms measure; per-call figures
        # cover every traced call, warm-up included.
        reads = [s for s in self.samples if s.phase == "window" and s.kind == "read"]
        n = len(reads)
        self_ns, calls, extras = table.fold(r for s in reads for r in s.requests())

        def per_read(*names: str) -> float:
            return sum(self_ns.get(name, 0) for name in names) / n / 1e6

        # Request 0 is start-up: the opening journal checkpoint and first
        # clone would swamp the per-commit figures, so per-call figures
        # cover served requests -- except inference, which dashboard and
        # explore only run at start-up.
        served = table.fold(r for r in table.self_ns if r > 0)
        everything = table.fold(table.self_ns.keys())

        def per_call(name: str, fold=served) -> float:
            count = fold[1].get(name, 0)
            return fold[0].get(name, 0) / count / 1e6 if count else 0.0

        unattributed = []
        for s in reads:
            spans_ns = sum(table.fold(s.requests())[0].values())
            unattributed.append(ms(s.seconds) - spans_ns / 1e6)
        gets = extras.get("cache.get", [])
        counters = server["counters"]

        def counter(name: str) -> float:
            return sum(
                value for key, value in counters.items()
                if key == name or key.startswith(name + "{")
            )

        cells = counter("query.cells_emitted")
        traced = [ms(s) for s in self.seconds_of("window", "read")]
        untraced = [ms(s) for s in self.seconds_of("untraced", "read")]
        builds = everything[2].get("mvft.build", [])
        host = self.calib["before"] + self.calib["during"] + self.calib["after"]
        metrics = {
            "protocol.encode_ms": (per_read("protocol.encode"), "ms"),
            "protocol.decode_ms": (per_read("protocol.decode"), "ms"),
            "protocol.response_bytes": (sum(extras.get("protocol.encode", [])) / n, "bytes"),
            "protocol.pages_per_read": (sum(len(s.requests()) for s in reads) / n, "count"),
            "wire.rtt_ms": (ms(statistics.median(measured["rtt"])), "ms"),
            "server.unattributed_ms": (statistics.fmean(unattributed), "ms"),
            "session.execute_ms": (per_read("session.execute", "session.pivot"), "ms"),
            "session.serialize_ms": (per_read("session.serialize"), "ms"),
            "rls.apply_ms": (per_read("rls.apply"), "ms"),
            "mvql.parse_ms": (per_read("mvql.parse"), "ms"),
            "mvql.compile_ms": (per_read("mvql.compile"), "ms"),
            "dimension.at_ms": (per_read("dimension.at"), "ms"),
            "dimension.at_calls_per_read": (calls.get("dimension.at", 0) / n, "count"),
            "cache.digest_ms": (per_read("cache.digest"), "ms"),
            "cache.get_ms": (per_read("cache.get"), "ms"),
            "cache.hit_ratio": (sum(gets) / len(gets) if gets else 0.0, "ratio"),
            "cache.bytes": (server["cache"]["bytes"], "bytes"),
            "engine.resolve_ms": (per_call("engine.resolve"), "ms"),
            "engine.collect_ms": (per_call("engine.collect"), "ms"),
            "engine.finalize_ms": (per_call("engine.finalize"), "ms"),
            "engine.rows_scanned_per_cell": (
                counter("query.rows_scanned") / cells if cells else 0.0, "count"),
            "olap.pivot_ms": (per_read("olap.pivot"), "ms"),
            "mvft.infer_ms": (per_call("mvft.build", everything), "ms"),
            "mvft.rows": (builds[-1] if builds else 0, "count"),
            "mvcc.commit_ms": (per_call("mvcc.commit"), "ms"),
            "mvcc.clone_ms": (per_call("mvcc.clone"), "ms"),
            "mvcc.open_cursor_ms": (per_call("mvcc.open_cursor"), "ms"),
            "wal.append_ms": (per_call("wal.append"), "ms"),
            "wal.bytes_per_commit": (
                server["wal_commit_bytes"] / self.commits if self.commits else 0.0, "bytes"),
            "host.calib_ms": (statistics.median(host), "ms"),
            "trace.read_p50_ms": (percentile(traced, 50), "ms"),
            "trace.untraced_read_p50_ms": (percentile(untraced, 50), "ms"),
            "trace.overhead_pct": (
                100.0 * (percentile(traced, 50) / percentile(untraced, 50) - 1.0), "%"),
        }
        details = {
            "layer_split": self.layer_split(table, layer_of),
            "samples": {"traced_reads": n, "window_traced": len(traced),
                        "window_untraced": len(untraced), "rtt": len(measured["rtt"])},
            "cache": server["cache"],
        }
        return metrics, details

    def layer_split(self, table, layer_of) -> dict:
        """Server-side self time by layer: shares over the traced window's
        reads, and (churn) shares of the fresh reads' client wall time."""

        def shares(samples, denominator_ms=None) -> dict:
            total = {}
            for s in samples:
                for name, value in table.fold(s.requests())[0].items():
                    layer = layer_of(name)
                    total[layer] = total.get(layer, 0) + value / 1e6
            base = denominator_ms if denominator_ms else sum(total.values())
            return {k: round(v / base, 4) for k, v in sorted(total.items(), key=lambda kv: -kv[1])}

        window = [s for s in self.samples if s.phase == "window" and s.kind == "read"]
        split = {"window_reads": shares(window)}
        fresh = [s for s in self.samples if s.phase == "fresh" and len(s.requests())]
        if fresh and self.workload == "churn":
            wall = sum(ms(s.seconds) for s in fresh)
            split["fresh_reads_of_wall"] = shares(fresh, wall)
        return split


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    bench = Run(workload, seed, seconds, trace)
    try:
        server, info, reader = bench.launch(measured=True)
        measured = bench.measure(server, info, reader)
    finally:
        bench.close()
    checked = bench.check(info["modes"])
    for journal in bench.out.glob("launch*/journal.wal"):
        journal.unlink()
    for problem in checked["wrong"][:20]:
        print(f"wrong: {problem}", file=sys.stderr)
    w = bench.w
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {entry["name"]: entry["why"] for entry in benchmark["workloads"]}
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "shape": {"name": w.SHAPE_OF[workload],
                  **w.SHAPES[w.SHAPE_OF[workload]]},
        "served": {"facts": info["facts"], "mv_rows": info["mv_rows"],
                   "modes": len(info["modes"])},
        "reference": checked["facts"],
        "host_calib_ms": {k: round(statistics.median(v), 4) for k, v in bench.calib.items() if v},
        "commits": bench.commits,
        "why": why[workload],
    }
    if trace:
        metrics, extra = bench.per_layer(measured)
    else:
        metrics, extra = bench.end_to_end(measured)
        extra = {"sample_counts": extra}
    details.update(extra)
    print(json.dumps({"details": details}))
    wrong = len(checked["wrong"])
    return {
        "correct": wrong == 0,
        "attempted": bench.attempted,
        "failed": bench.failed + wrong,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (have {WORKLOADS})",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's server process: one ``repro.server`` over a generated
warehouse.

Run from the repository root::

    python3 perfbench/serve.py --workload dashboard --seed 42 --out DIR [--trace]

It generates the workload's warehouse from the seed, journals writes to
``DIR/journal.wal`` (buffered: ``durable=False``), starts a
``WarehouseServer`` with its default telemetry on a free local port and
prints one JSON line ``{"port": ..., "facts": ..., ...}`` on standard
output once it listens.  SIGTERM drains and stops it.

With ``--trace`` the layer wrappers of ``spans.py`` are installed before
anything is built (so the first MultiVersion inference is timed) and a
metrics registry is switched on; SIGUSR1 toggles both off and on again,
answering ``{"traced": bool}`` on standard output.  On exit a traced
server writes ``DIR/spans.jsonl`` and ``DIR/server.json`` (request
count, cache stats, engine counters, journal size).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    out = Path(args.out)

    recorder = registry = None
    if args.trace:
        from spans import Recorder

        from repro.observability import MetricsRegistry, runtime

        recorder, registry = Recorder(), MetricsRegistry()
        recorder.install()
        runtime.enable(metrics=registry)

    from workloads import tenant_roster, workload_config

    from repro.concurrency import SnapshotManager
    from repro.robustness import TransactionManager
    from repro.server import ServerConfig, WarehouseServer
    from repro.workloads import generate_workload

    generated = generate_workload(workload_config(args.workload, args.seed))
    wal_path = out / "journal.wal"
    wal_path.unlink(missing_ok=True)
    txm = TransactionManager(generated.schema, wal=wal_path)
    # The journal opens with a checkpoint of the whole schema; commits
    # append after it.
    checkpoint_bytes = txm.wal.size_bytes
    manager = SnapshotManager(txm)
    config = ServerConfig.from_dict(tenant_roster(args.workload, args.seed))
    # The constructor validates RLS against the first snapshot, which
    # runs the Definition 11 inference before the socket opens.
    server = WarehouseServer(manager, config, wal_path=wal_path)
    with manager.open_cursor() as cursor:
        mvft = cursor.mvft
        facts = {
            "facts": len(generated.schema.facts),
            "mv_rows": len(mvft),
            "modes": list(mvft.modes.labels),
        }

    def toggle() -> None:
        from repro.observability import runtime

        if recorder.installed:
            recorder.uninstall()
            runtime.disable()
        else:
            recorder.install()
            runtime.enable(metrics=registry)
        _emit({"traced": recorder.installed})

    async def serve() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        loop.add_signal_handler(signal.SIGINT, stop.set)
        if recorder is not None:
            loop.add_signal_handler(signal.SIGUSR1, toggle)
        _emit({"port": server.port, **facts})
        await stop.wait()
        await server.shutdown(drain_timeout=10.0)

    asyncio.run(serve())
    if recorder is not None:
        recorder.uninstall()
        recorder.write(out / "spans.jsonl")
        requests = max((span[5] for span in recorder.spans), default=0)
        summary = {
            "requests": requests,
            "cache": manager.result_cache.stats(),
            "counters": registry.snapshot()["counters"],
            "wal_commit_bytes": txm.wal.size_bytes - checkpoint_bytes,
        }
        (out / "server.json").write_text(json.dumps(summary), encoding="utf-8")
    txm.wal.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

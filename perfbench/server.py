"""Serve the benchmark relation on the production durable path.

Run as ``python perfbench/server.py --root DIR`` from a checkout whose
``src`` holds the program.  An empty ``DIR`` is bootstrapped: the owner
signs the generated relation, it is persisted to a sqlite relation store
with ``fsync="always"`` and recovered from there.  An existing ``DIR`` is
recovered (the restart after a crash).  The server then runs with the
defaults of ``python -m repro.service``: response cache on, proofs built
inline, 512-bit owner key, 64 connections.

Stdout carries ``PORT <n>`` once the server listens.  With ``--trace`` the
set-up (or recovery) path is traced from launch, and SIGUSR2 toggles the
request-path wrappers (it prints ``TRACING on`` or ``TRACING off``), so one
server can serve untraced and traced windows in turn.  On SIGUSR1 the launcher writes
``<root>.stats.json`` (cache counters and spans) and prints ``DUMPED``;
SIGTERM stops it gracefully.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), os.path.dirname(HERE)]

from perfbench.data import RELATION, SHARD, genesis_rows, metrics_schema  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402
from repro.core.owner import DataOwner  # noqa: E402
from repro.core.publisher import Publisher  # noqa: E402
from repro.db.relation import Relation  # noqa: E402
from repro.service.config import ServerConfig, StorageConfig  # noqa: E402
from repro.service.router import ShardRouter  # noqa: E402
from repro.service.server import PublicationServer  # noqa: E402
from repro.storage import open_publication_storage  # noqa: E402
from repro.storage.store import PublicationStorage  # noqa: E402

KEY_BITS = 512
MAX_CONNECTIONS = 64


def install_setup_tracing(tracer: Tracer, recovering: bool) -> None:
    """Wrap the bootstrap (or, on a restart, the recovery) path."""
    from repro.storage import recovery

    tracer.wrap(DataOwner, "publish_database", "setup.publish", counted=True)
    tracer.wrap(PublicationStorage, "create", "setup.persist")
    tracer.wrap(
        recovery, "recover_router", "recovery.replay" if recovering else "setup.recover"
    )


def install_request_tracing(tracer: Tracer) -> None:
    """Wrap the layers a request and an owner update pass through."""
    from repro.core import publisher as publisher_module
    from repro.service import handler as handler_module
    from repro.storage import relstore

    tracer.wrap(handler_module.RequestHandler, "handle_frame", "handler.frame")
    tracer.wrap(handler_module, "decode", "wire.server_decode")
    tracer.wrap(handler_module, "encode", "wire.server_encode")
    tracer.wrap(ShardRouter, "route", "router.route")
    tracer.wrap(publisher_module.Publisher, "answer", "publisher.answer", counted=True)
    tracer.wrap(publisher_module.Publisher, "apply_deltas", "publisher.apply")
    tracer.wrap(relstore.RelationStore, "load_row_payload", "relstore.row_load")
    tracer.wrap(relstore.RelationStore, "load_entry_chain", "relstore.entry_chain")
    tracer.wrap(PublicationStorage, "log_update", "storage.log_update")
    tracer.wrap(PublicationStorage, "log_rotation", "storage.log_rotation")


def build_router(rows: int) -> ShardRouter:
    owner = DataOwner(key_bits=KEY_BITS)
    relation = Relation.from_rows(metrics_schema(rows), genesis_rows(rows))
    database = owner.publish_database({RELATION: relation})
    return ShardRouter({SHARD: Publisher(database.relations)})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="durable publication root")
    parser.add_argument("--rows", type=int, default=10_000)
    parser.add_argument("--trace", action="store_true", help="record server spans")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install_setup_tracing(tracer, recovering=PublicationStorage.exists(args.root))
    router, storage = open_publication_storage(
        args.root,
        lambda: build_router(args.rows),
        config=StorageConfig(root=args.root, backend="sqlite", fsync="always"),
    )
    server = PublicationServer(
        router, storage=storage, config=ServerConfig(max_workers=MAX_CONNECTIONS)
    )

    def dump(signum, frame):  # noqa: ARG001 - signal handler signature
        stats = {
            "cache": server.cache_stats(),
            "spans": list(tracer.spans) if tracer is not None else [],
        }
        with open(args.root + ".stats.json", "w") as handle:
            json.dump(stats, handle, default=str)
        print("DUMPED", flush=True)

    request_tracing = []

    def toggle_request_tracing(signum, frame):  # noqa: ARG001 - signal handler signature
        if request_tracing:
            tracer.uninstall()
            request_tracing.clear()
        else:
            install_request_tracing(tracer)
            request_tracing.append(True)
        print("TRACING " + ("on" if request_tracing else "off"), flush=True)

    signal.signal(signal.SIGTERM, lambda signum, frame: server.request_stop())
    signal.signal(signal.SIGUSR1, dump)
    if tracer is not None:
        signal.signal(signal.SIGUSR2, toggle_request_tracing)
    _, port = server.start()
    print(f"PORT {port}", flush=True)
    try:
        server.serve_forever()
    finally:
        storage.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

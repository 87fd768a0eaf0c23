"""cProfile harness for the two crypto-bound hot loops.

``python -m repro.bench.profile`` profiles the verified-serving path (a
publisher answering repeated range queries with a client-side verifier
checking every proof) and the durable-ingest path
(:func:`~repro.storage.relstore.build_stored_chain` streaming a dense-key
relation onto disk), then prints the top functions by cumulative time.  This
is the tool that motivated the native backend work: on the pure-Python
backend the top of both profiles is modular exponentiation and full-domain
hashing, which is exactly what :mod:`repro.crypto.backend` and the batched
FDH accelerate.

Usage::

    PYTHONPATH=src python -m repro.bench.profile                 # both loops
    PYTHONPATH=src python -m repro.bench.profile --workload serving
    PYTHONPATH=src python -m repro.bench.profile --workload ingest --limit 30
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import shutil
import sys
import tempfile

from repro.bench.hot_paths import SMOKE_CONFIG, HotPathConfig, _employee_world, _range_queries
from repro.bench.scale import SMOKE_SCALE_CONFIG, ScaleConfig, _ingest, metrics_schema
from repro.crypto.backend import backend_stats
from repro.crypto.signature import rsa_scheme
from repro.storage.relstore import RelationStore

__all__ = ["profile_serving", "profile_ingest", "main"]


def _print_stats(profiler: cProfile.Profile, limit: int) -> None:
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative").print_stats(limit)


def profile_serving(config: HotPathConfig, rounds: int, limit: int) -> None:
    """Profile verified serving: answer + verify for repeated range queries."""
    scheme = rsa_scheme(bits=config.key_bits)
    signed, publisher, _ = _employee_world(scheme, config, vo_cache=True)
    verifier_manifests = {"employees": signed.manifest}
    from repro.core.verifier import ResultVerifier

    verifier = ResultVerifier(verifier_manifests)
    queries = _range_queries(config)
    # Warm the caches once so the profile shows the steady-state path the
    # service actually runs, not one-time tree construction.
    for query in queries:
        result = publisher.answer(query)
        verifier.verify(query, result.rows, result.proof)

    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(rounds):
        for query in queries:
            result = publisher.answer(query)
            verifier.verify(query, result.rows, result.proof)
    profiler.disable()
    ops = rounds * len(queries)
    print(f"\n== verified serving: {ops} answer+verify round trips ==")
    _print_stats(profiler, limit)


def profile_ingest(config: ScaleConfig, limit: int) -> None:
    """Profile durable ingest: ``build_stored_chain`` onto a scratch store."""
    scheme = rsa_scheme(bits=config.key_bits)
    schema = metrics_schema(config.rows)
    scratch = tempfile.mkdtemp(prefix="repro-profile-")
    try:
        store = RelationStore(f"{scratch}/relstore.db", fsync=config.fsync)
        try:
            profiler = cProfile.Profile()
            profiler.enable()
            ingest = _ingest(store, schema, scheme, config)
            profiler.disable()
        finally:
            store.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(
        f"\n== durable ingest: {ingest['rows']} rows, "
        f"{ingest['rows_per_sec']:.0f} rows/s =="
    )
    _print_stats(profiler, limit)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workload",
        choices=("serving", "ingest", "all"),
        default="all",
        help="which hot loop to profile",
    )
    parser.add_argument(
        "--limit", type=int, default=20, help="rows of profile output to print"
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="profile the full-size workloads instead of the smoke tiers",
    )
    parser.add_argument(
        "--rounds", type=int, default=5, help="serving rounds over the query set"
    )
    args = parser.parse_args(argv)

    stats = backend_stats()
    print(f"crypto backend: {stats['backend']} (native={stats['native']})")

    if args.workload in ("serving", "all"):
        config = HotPathConfig() if args.full else SMOKE_CONFIG
        profile_serving(config, args.rounds, args.limit)
    if args.workload in ("ingest", "all"):
        config = ScaleConfig() if args.full else SMOKE_SCALE_CONFIG
        profile_ingest(config, args.limit)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

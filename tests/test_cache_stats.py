"""Bounded caches and cache_stats() observability (long-running servers)."""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict

import pytest

from repro.cache import BoundedCache, bounded_put
from repro.core.publisher import Publisher
from repro.core.relational import SignedRelation
from repro.core.verifier import ResultVerifier
from repro.crypto import rsa
from repro.db import workload
from repro.db.query import Conjunction, Query, RangeCondition
from repro.service import PublicationServer, VerifyingClient, build_demo_world

RANGE = Query("employees", Conjunction((RangeCondition("salary", 1_000, 90_000),)))


def test_bounded_cache_counts_and_evicts():
    cache = BoundedCache(2)
    assert cache.get("a") is None
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1
    cache.put("c", 3)  # evicts the oldest ("a")
    stats = cache.stats()
    assert stats["evictions"] == 1
    assert stats["size"] == 2 and stats["capacity"] == 2
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert cache.get("a") is None


def test_bounded_caches_keep_exact_fifo_order_across_many_evictions():
    """Both bounded caches evict strictly oldest-first, however long they live.

    Re-putting a present key moves it to the back of a :class:`BoundedCache`;
    ``bounded_put`` memos only ever see fresh keys.
    """
    bound = 50
    memo: OrderedDict = OrderedDict()
    cache = BoundedCache(bound)
    for index in range(10_000):
        bounded_put(memo, index, index, bound)
        cache.put(index, index)
        if index % 7 == 0:
            cache.put(index - 3, index)  # re-insert: moves to the back
    assert list(memo) == list(range(10_000 - bound, 10_000))
    assert cache.evictions > 10_000 - bound
    expected = []
    for index in range(10_000):  # replay the puts against a plain list
        for key in ((index,) + ((index - 3,) if index % 7 == 0 else ())):
            if key in expected:
                expected.remove(key)
            expected.append(key)
            del expected[:-bound]
    assert list(cache.keys()) == expected


def test_bounded_put_lowered_bound_evicts_down_to_it():
    memo: OrderedDict = OrderedDict((index, index) for index in range(10))
    bounded_put(memo, "new", 0, 4)
    assert list(memo) == [7, 8, 9, "new"]


def test_bounded_put_is_safe_for_concurrent_evictions():
    """Threads evicting at once neither pop the same key twice nor overfill.

    The FDH memo behind every signature check is one module-wide dict filled
    through ``bounded_put``, so concurrent verifying clients evict from it at
    the same time.  A tiny switch interval makes the unsafe interleavings
    show up within a few thousand puts: two threads popping one oldest key
    (``KeyError``), iteration racing a resize (``RuntimeError``), and two
    threads inserting after one size check (one entry past the bound).
    """
    cache: OrderedDict = OrderedDict()
    bound = 64
    errors = []
    peak = [0]
    writing = threading.Event()

    def writer(thread: int) -> None:
        try:
            for index in range(50_000):
                bounded_put(cache, (thread, index), index, bound)
        except Exception as error:  # noqa: BLE001 - the failure under test
            errors.append(error)

    def sampler() -> None:
        while writing.is_set():
            peak[0] = max(peak[0], len(cache))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        writing.set()
        watcher = threading.Thread(target=sampler, daemon=True)
        watcher.start()
        writers = [threading.Thread(target=writer, args=(n,)) for n in range(4)]
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=120)
        writing.clear()
        watcher.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in writers + [watcher])
    assert errors == []
    assert len(cache) <= bound
    assert peak[0] <= bound


def test_publisher_cache_stats_and_capacity(signature_scheme):
    relation = workload.generate_employees(40, seed=3, photo_bytes=8)
    signed = SignedRelation(relation, signature_scheme)
    publisher = Publisher({"employees": signed}, vo_cache_max=64)
    publisher.answer(RANGE)
    publisher.answer(RANGE)
    stats = publisher.cache_stats()
    fragments = stats["vo_fragments"]
    assert fragments["capacity"] == 64
    assert fragments["hits"] > 0 and fragments["misses"] > 0
    assert publisher.vo_cache_hits == fragments["hits"]
    assert "employees" in stats["signature_memos"]


def test_verifier_cache_stats(signature_scheme):
    relation = workload.generate_employees(30, seed=4, photo_bytes=8)
    signed = SignedRelation(relation, signature_scheme)
    publisher = Publisher({"employees": signed})
    verifier = ResultVerifier({"employees": signed.manifest})
    result = publisher.answer(RANGE)
    verifier.verify(RANGE, result.rows, result.proof)
    stats = verifier.cache_stats()
    assert set(stats["fdh"]) == {"hits", "misses", "evictions", "size", "capacity"}
    assert stats["chain_schemes"]["size"] == 1


def test_fdh_and_signature_memo_capacities_configurable():
    original = rsa.fdh_cache_stats()["capacity"]
    try:
        rsa.configure_fdh_cache(16)
        assert rsa.fdh_cache_stats()["capacity"] == 16
        for index in range(40):  # far past the bound; the memo must not grow
            rsa.full_domain_hash(b"cap|%d" % index, 2**64 + 13)
        assert rsa.fdh_cache_stats()["size"] <= 16
        with pytest.raises(ValueError):
            rsa.configure_fdh_cache(0)
        with pytest.raises(ValueError):
            rsa.configure_signature_memo(0)
    finally:
        rsa.configure_fdh_cache(original)


def test_server_cache_stats_cover_responses_and_shards():
    world = build_demo_world(key_bits=512, seed=5)
    with PublicationServer(world.router) as server:
        host, port = server.address
        with VerifyingClient(host, port) as client:
            client.query(RANGE, verify=False)
            client.query(RANGE, verify=False)
        stats = server.cache_stats()
        assert stats["responses"]["hits"] >= 1
        assert set(stats["shards"]) == {"hr", "sales"}
        for shard_stats in stats["shards"].values():
            assert "vo_fragments" in shard_stats

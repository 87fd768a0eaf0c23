"""Per-layer metrics from the spans of a traced run.

:func:`install_client_tracing` wraps the module attributes the load process
calls through; the server's wrappers live in ``server.py``.  Durations are
medians over the measured window, in milliseconds unless named ``_s``;
counts are per query, per answer or per row as named.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Tuple

from perfbench.trace import Span, Tracer, self_times_ns
from repro.core.cost_model import CostParameters, user_computation_seconds, user_traffic_bytes

CRYPTO_SPANS = ("crypto.verify", "crypto.verify_aggregate", "crypto.batch_verify")
RELSTORE_SPANS = ("relstore.row_load", "relstore.entry_chain")


def install_client_tracing(tracer: Tracer) -> None:
    """Wrap what :mod:`repro.service.client` and :mod:`repro.service.protocol` call."""
    from perfbench import load
    from repro.core import verifier
    from repro.crypto.rsa import RSAPublicKey
    from repro.service import client, owner, protocol

    tracer.wrap(load, "take_turn", "client.turn_wait")
    tracer.wrap(client.VerifyingClient, "query", "client.query")
    tracer.wrap(client.VerifyingClient, "refresh_rotated_manifest", "client.rotation_chase")
    tracer.wrap(client, "send_message", "client.send")
    tracer.wrap(protocol, "encode_frame", "client.encode")
    tracer.wrap(protocol, "recv_frame", "client.recv_frame")
    tracer.wrap(protocol, "decode", "wire.client_decode")
    tracer.wrap(verifier.ResultVerifier, "verify", "verifier.verify", counted=True)
    tracer.wrap(verifier, "verify_aggregate", "crypto.verify_aggregate", counted=True)
    tracer.wrap(verifier, "batch_verify_signatures", "crypto.batch_verify", counted=True)
    tracer.wrap(RSAPublicKey, "verify", "crypto.verify", counted=True)
    tracer.wrap(owner, "build_update_request", "owner.sign")
    tracer.wrap(owner.OwnerClient, "push", "owner.push")


def _ms(values_ns: List[int]) -> float:
    return statistics.median(values_ns) / 1e6 if values_ns else 0.0


def _duration_ms(spans: List[Span]) -> float:
    """Median span duration in milliseconds (0 when there are none)."""
    return _ms([span[5] - span[4] for span in spans])


def _window(spans: List[Span], start_ns: int, end_ns: int):
    """The spans inside the window, and the same spans grouped by name."""
    window = [span for span in spans if start_ns <= span[4] and span[5] <= end_ns]
    named: Dict[str, List[Span]] = {}
    for span in window:
        named.setdefault(span[3], []).append(span)
    return window, named


def _ancestor_named(span: Span, by_id: Dict[int, Span], name: str) -> Optional[Span]:
    parent = by_id.get(span[1])
    while parent is not None:
        if parent[3] == name:
            return parent
        parent = by_id.get(parent[1])
    return None


def _hit_ratio(stats: Dict[str, object], before: Dict[str, object]) -> float:
    """Hits per lookup between two snapshots of a cache's counters."""
    hits = stats.get("hits", 0) - before.get("hits", 0)
    lookups = hits + stats.get("misses", 0) - before.get("misses", 0)
    return hits / lookups if lookups else 0.0


def _shard(cache: Dict[str, object]) -> Dict[str, object]:
    return next(iter(cache.get("shards", {}).values()), {})


def client_layers(spans: List[Span], start_ns: int, end_ns: int) -> Dict[str, float]:
    by_id = {span[0]: span for span in spans}
    window, named = _window(spans, start_ns, end_ns)
    queries = named.get("client.query", [])
    query_count = max(1, len(queries))
    query_ids = {span[0] for span in queries}

    # Round trip: a send and the next frame received under the same parent,
    # less the time the thread then waited for its turn to run client code
    # (another reader was verifying).
    waited: Dict[int, int] = {}
    for span in named.get("client.turn_wait", []):
        if span[1] is not None:
            waited[span[1]] = waited.get(span[1], 0) + span[5] - span[4]
    pending: Dict[Optional[int], Tuple[int, int]] = {}
    roundtrips = []
    exchanges = named.get("client.send", []) + named.get("client.recv_frame", [])
    for span in sorted(exchanges, key=lambda span: span[4]):
        if span[3] == "client.send":
            pending[span[1]] = (span[4], waited.get(span[0], 0))
        elif span[1] in pending:
            start, send_wait = pending.pop(span[1])
            roundtrips.append(span[5] - start - send_wait - waited.get(span[0], 0))

    selfs = self_times_ns(window)
    crypto_under_queries = [
        span
        for name in CRYPTO_SPANS
        for span in named.get(name, [])
        if _ancestor_named(span, by_id, "client.query") is not None
    ]
    top_crypto = [
        span for span in crypto_under_queries
        if by_id.get(span[1]) is None or by_id[span[1]][3] not in CRYPTO_SPANS
    ]
    chases = [
        span for span in named.get("client.rotation_chase", []) if span[1] in query_ids
    ]
    verifies = named.get("verifier.verify", [])
    return {
        "client.encode_ms": _duration_ms(named.get("client.encode", [])),
        "client.roundtrip_ms": _ms(roundtrips),
        "client.roundtrip_mean_ms": (statistics.fmean(roundtrips) / 1e6) if roundtrips else 0.0,
        "wire.client_decode_ms": _duration_ms(named.get("wire.client_decode", [])),
        "verifier.verify_ms": _ms([selfs[s[0]] for s in verifies]),
        "verifier.hashes_per_query": (
            statistics.median([s[6] for s in verifies]) if verifies else 0.0
        ),
        "crypto.verify_ms": _duration_ms(top_crypto),
        "crypto.verifications_per_query": sum(s[7] for s in top_crypto) / query_count,
        "client.rotation_chases_per_query": len(chases) / query_count,
        "client.rotation_chase_ms": _duration_ms(chases),
        "owner.sign_ms": _duration_ms(named.get("owner.sign", [])),
        "owner.push_ms": _duration_ms(named.get("owner.push", [])),
    }


def server_layers(
    spans: List[Span],
    cache_before: Dict[str, object],
    cache: Dict[str, object],
    start_ns: int,
    end_ns: int,
    rows: int,
) -> Dict[str, float]:
    """Server metrics; cache hit ratios count from ``cache_before`` (the
    counters once the readers had primed) to ``cache`` (after the window)."""
    by_id = {span[0]: span for span in spans}
    window, named = _window(spans, start_ns, end_ns)
    setup: Dict[str, Span] = {}
    for span in spans:
        setup.setdefault(span[3], span)
    selfs = self_times_ns(window)
    answers = named.get("publisher.answer", [])
    answer_ids = {span[0] for span in answers}
    loads = [
        span
        for name in RELSTORE_SPANS
        for span in named.get(name, [])
        if _ancestor_named(span, by_id, "publisher.answer") is not None
    ]
    publish = setup.get("setup.publish")
    frames = [s[5] - s[4] for s in named.get("handler.frame", [])]

    def seconds(name: str) -> float:
        span = setup.get(name)
        return (span[5] - span[4]) / 1e9 if span is not None else 0.0

    return {
        "handler.frame_ms": _ms(frames),
        "handler.frame_mean_ms": (statistics.fmean(frames) / 1e6) if frames else 0.0,
        "handler.response_cache_hit_ratio": _hit_ratio(
            cache.get("responses", {}), cache_before.get("responses", {})
        ),
        "wire.server_decode_ms": _duration_ms(named.get("wire.server_decode", [])),
        "wire.server_encode_ms": _duration_ms(named.get("wire.server_encode", [])),
        "router.route_ms": _duration_ms(named.get("router.route", [])),
        "publisher.answer_ms": _ms([selfs[s[0]] for s in answers]),
        "publisher.vo_cache_hit_ratio": _hit_ratio(
            _shard(cache).get("vo_fragments", {}), _shard(cache_before).get("vo_fragments", {})
        ),
        "publisher.hashes_per_answer": (
            statistics.median([s[6] for s in answers]) if answers else 0.0
        ),
        "relstore.row_loads_per_answer": len(loads) / len(answer_ids) if answer_ids else 0.0,
        "relstore.row_load_ms": _duration_ms(loads),
        "publisher.apply_ms": _duration_ms(named.get("publisher.apply", [])),
        "storage.log_update_ms": _duration_ms(named.get("storage.log_update", [])),
        "storage.log_rotation_ms": _duration_ms(named.get("storage.log_rotation", [])),
        "setup.publish_s": seconds("setup.publish"),
        "setup.hashes_per_row": publish[6] / rows if publish else 0.0,
        "setup.signatures_per_row": publish[8] / rows if publish else 0.0,
        "setup.persist_s": seconds("setup.persist"),
        "setup.recover_s": seconds("setup.recover"),
    }


def cost_model_rows(
    answers, spans: List[Span], rows: int, digest_bits: int, signature_bits: int
) -> List[Dict[str, float]]:
    """Measured hashes and bytes per result size beside formulas (5) and (4).

    Each answer is matched to the verify span of its request.  The formulas
    use the relation's key-domain width and the digest and signature sizes
    this deployment actually ships.
    """
    counting = CostParameters(c_hash=1.0, c_sign=0.0)
    shipped = CostParameters(m_digest_bits=digest_bits, m_sign_bits=signature_bits)
    width = rows + 1
    hashes_by_request = {span[2]: span[6] for span in spans if span[3] == "verifier.verify"}
    table: Dict[int, Dict[str, list]] = {}
    for answer in answers:
        hashes = hashes_by_request.get(answer.request)
        if hashes is None:
            continue
        entry = table.setdefault(len(answer.rows), {"hashes": [], "bytes": []})
        entry["hashes"].append(hashes)
        entry["bytes"].append(answer.nbytes)
    return [
        {
            "result_rows": size,
            "answers": len(entry["hashes"]),
            "measured_hashes": statistics.median(entry["hashes"]),
            "formula5_hashes": user_computation_seconds(size, 2, width, counting),
            "measured_bytes": statistics.median(entry["bytes"]),
            "formula4_bytes": user_traffic_bytes(size, 2, width, shipped),
        }
        for size, entry in sorted(table.items())
    ]

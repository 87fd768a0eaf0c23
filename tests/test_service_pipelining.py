"""Pipelined frames: in-order answers, atomic snapshots under live updates.

The event-loop server answers each connection's frames strictly in request
order; these tests drive many frames per round trip through
:meth:`VerifyingClient.query_many` / :meth:`OwnerClient.push_many` and
interleave them with owner mutations: every answer must still verify as an
atomic snapshot attributed to exactly one manifest id, with sequences
non-decreasing along one connection.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.db.query import Conjunction, Query, RangeCondition
from repro.service import (
    OwnerClient,
    PublicationServer,
    RecordDelta,
    RemoteError,
    ServerConfig,
    VerifyingClient,
    build_demo_world,
)

pytestmark = pytest.mark.concurrency

#: CI runs the stress lane with reduced iterations (see ci.yml).
STRESS_DELTAS = int(os.environ.get("REPRO_STRESS_DELTAS", "40"))

SALARY_RANGE = Query(
    "employees", Conjunction((RangeCondition("salary", 10_000, 90_000),))
)
FULL_RANGE = Query("employees", Conjunction())


@pytest.fixture()
def world():
    return build_demo_world(key_bits=512, seed=13)


@pytest.fixture()
def server(world):
    with PublicationServer(
        world.router, config=ServerConfig(max_workers=16)
    ) as live:
        yield live


def test_query_many_orders_and_verifies(world, server):
    host, port = server.address
    queries = [SALARY_RANGE, FULL_RANGE, SALARY_RANGE, FULL_RANGE]
    with VerifyingClient(
        host, port, trusted_manifests=dict(world.manifests)
    ) as client:
        results = client.query_many(queries)
        assert len(results) == 4
        assert all(result.report is not None for result in results)
        assert results[0].rows == results[2].rows
        assert results[1].rows == results[3].rows
        # Pipelined and lockstep answers are the same answers.
        assert client.query(SALARY_RANGE).rows == results[0].rows


def test_error_mid_pipeline_keeps_connection_usable(world, server):
    host, port = server.address
    # Resolves client-side (known relation) but the server's proof engine
    # rejects the unknown attribute with a typed ErrorResponse.
    bad = Query(
        "employees", Conjunction((RangeCondition("no_such_attribute", 1, 2),))
    )
    with VerifyingClient(host, port) as client:
        client.fetch_manifest("employees")
        with pytest.raises(RemoteError):
            client.query_many([SALARY_RANGE, bad, SALARY_RANGE])
        # The whole exchange was drained, so the stream is still in sync.
        result = client.query(SALARY_RANGE)
        assert result.rows and result.report is not None


def test_push_many_applies_all_batches_in_order(world, server):
    host, port = server.address
    batches = [
        (
            RecordDelta(
                kind="insert",
                values={
                    "salary": 55_000 + index,
                    "emp_id": f"pm-{index}",
                    "name": f"pipelined {index}",
                    "dept": 2,
                    "photo": b"\x05" * 16,
                },
            ),
        )
        for index in range(6)
    ]
    with OwnerClient(
        host, port, signature_scheme=world.owner.signature_scheme
    ) as owner_client:
        responses = owner_client.push_many("employees", batches)
        assert len(responses) == 6
        sequences = [r.rotation.manifest.sequence for r in responses]
        assert sequences == sorted(sequences)
        assert all(r.receipt.signatures_recomputed >= 1 for r in responses)
    with VerifyingClient(
        host, port, trusted_manifests=dict(world.manifests)
    ) as client:
        result = client.query(
            Query(
                "employees",
                Conjunction((RangeCondition("salary", 55_000, 55_005),)),
            )
        )
        assert result.report is not None
        assert {row["emp_id"] for row in result.rows} >= {
            f"pm-{index}" for index in range(6)
        }


def _range_frames(world, count):
    """``count`` encoded range-query frames over overlapping salary windows."""
    from repro.service.protocol import QueryRequest, encode_frame
    from repro.wire.codec import manifest_id

    identifier = manifest_id(world.manifests["employees"])
    lows = range(10_000, 70_000, 500)
    return [
        encode_frame(
            QueryRequest(
                identifier,
                Query(
                    "employees",
                    Conjunction((RangeCondition("salary", low, low + 20_000),)),
                ),
            )
        )
        for low in lows
    ] * (count // len(lows))


def test_backpressure_pauses_and_resumes(world, monkeypatch):
    """A peer that pipelines without reading is parked at the outbuf bound.

    The server stops reading the socket once the answers the peer has not
    read reach ``MAX_OUTBUF_BYTES``, so the buffer holds at most the bound
    plus one response frame and later frames wait unanswered.  Once the peer
    reads, every answer arrives, in request order.
    """
    import socket as socket_module
    import time

    from repro.service import server as server_module
    from repro.service.protocol import recv_frame

    bound = 16 * 1024
    monkeypatch.setattr(server_module, "MAX_OUTBUF_BYTES", bound)
    frames = _range_frames(world, 360)
    with PublicationServer(world.router) as live:
        host, port = live.address
        with socket_module.create_connection((host, port), timeout=30) as serial:
            expected = []
            for frame in frames:
                serial.sendall(frame)
                expected.append(recv_frame(serial))
        largest_frame = 4 + max(len(payload) for payload in expected)
        assert sum(map(len, expected)) > 40 * bound
        served_before = live.requests_served

        sock = socket_module.socket(socket_module.AF_INET, socket_module.SOCK_STREAM)
        sock.setsockopt(socket_module.SOL_SOCKET, socket_module.SO_RCVBUF, 4096)
        sock.settimeout(30)
        with sock:
            sock.connect((host, port))

            def serves_us(connection) -> bool:
                try:
                    return connection.sock.getpeername() == sock.getsockname()
                except OSError:  # a connection the server just closed
                    return False

            deadline = time.monotonic() + 30
            ours = []
            while not ours:
                assert time.monotonic() < deadline, "the server never accepted"
                time.sleep(0.01)
                ours = [c for c in list(live._connections.values()) if serves_us(c)]
            (connection,) = ours
            # Small kernel buffers on both ends, so the answers the peer does
            # not read pile up in the server's outbuf rather than in the kernel.
            connection.sock.setsockopt(
                socket_module.SOL_SOCKET, socket_module.SO_SNDBUF, 4096
            )
            sock.sendall(b"".join(frames))
            while not connection.paused:
                assert time.monotonic() < deadline, "the connection never paused"
                time.sleep(0.01)
            peak = 0
            for _ in range(30):  # the peer keeps not reading
                peak = max(peak, len(connection.outbuf))
                time.sleep(0.01)
            assert connection.paused
            assert bound <= peak <= bound + largest_frame
            assert live.requests_served - served_before < len(frames)

            answers = [recv_frame(sock) for _ in frames]
        assert answers == expected
        assert live.requests_served - served_before == len(frames)


def test_pause_resumes_when_outbuf_drains_right_after_it(world, monkeypatch):
    """A pause whose outbuf the peer drains before the loop turns still resumes.

    The peer may read between the send that leaves the outbuf at the bound
    and the next send, which then empties the outbuf while the connection is
    paused.  Every send here alternates between finding the kernel buffer
    full and taking everything, with a one-byte bound, so each answer pauses
    the connection and the very next send drains it.  Every frame must still
    be answered, in order.
    """
    import socket as socket_module

    from repro.service import server as server_module
    from repro.service.protocol import recv_frame

    frames = _range_frames(world, 120)
    with PublicationServer(world.router) as live:
        host, port = live.address
        with socket_module.create_connection((host, port), timeout=30) as serial:
            expected = []
            for frame in frames:
                serial.sendall(frame)
                expected.append(recv_frame(serial))
        served_before = live.requests_served

        class _FullEveryOtherSend(socket_module.socket):
            refuse = False

            def send(self, data, *flags):
                self.refuse = not self.refuse
                if self.refuse:
                    raise BlockingIOError
                return super().send(data, *flags)

        accept = socket_module.socket.accept

        def accept_flaky(listener):
            sock, peer = accept(listener)
            if listener is not live._listener:
                return sock, peer
            return _FullEveryOtherSend(fileno=sock.detach()), peer

        monkeypatch.setattr(server_module, "MAX_OUTBUF_BYTES", 1)
        monkeypatch.setattr(socket_module.socket, "accept", accept_flaky)
        with socket_module.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"".join(frames))
            answers = [recv_frame(sock) for _ in frames]
        assert answers == expected
        assert live.requests_served - served_before == len(frames)


def test_mid_frame_stall_drops_connection(world, monkeypatch):
    """A peer stalled mid-frame is swept, not allowed to pin a buffer forever."""
    import socket as socket_module

    from repro.service import server as server_module

    monkeypatch.setattr(server_module, "MID_FRAME_STALL_SECONDS", 0.3)
    with PublicationServer(world.router) as live:
        host, port = live.address
        with socket_module.create_connection((host, port), timeout=30) as sock:
            sock.sendall((100).to_bytes(4, "big") + b"\x00" * 10)  # partial frame
            sock.settimeout(30)
            assert sock.recv(4096) == b"", "the stalled connection should be closed"


def test_pipelined_queries_interleaved_with_updates(world, server):
    """Readers pipeline batches while the owner streams deltas.

    Every answer must verify (atomic snapshot, correct manifest id), and the
    sequence an answer is attributed to must never go backwards along one
    connection (the server answers frames in order).
    """
    host, port = server.address
    errors = []
    done = threading.Event()

    def reader():
        try:
            with VerifyingClient(
                host,
                port,
                trusted_manifests=dict(world.manifests),
                timeout=60,
            ) as client:
                last_sequence = -1
                while not done.is_set():
                    for result in client.query_many([FULL_RANGE, SALARY_RANGE]):
                        assert result.report is not None
                        assert result.manifest_id, "answers must be attributed"
                        assert result.manifest_sequence >= last_sequence
                        last_sequence = result.manifest_sequence
        except BaseException as error:  # pragma: no cover - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for thread in threads:
        thread.start()
    try:
        with OwnerClient(
            host, port, signature_scheme=world.owner.signature_scheme, timeout=60
        ) as owner_client:
            for index in range(STRESS_DELTAS):
                owner_client.insert(
                    "employees",
                    {
                        "salary": 30_000 + index,
                        "emp_id": f"stream-{index}",
                        "name": "streamed",
                        "dept": 1,
                        "photo": b"\x09" * 16,
                    },
                )
    finally:
        done.set()
        for thread in threads:
            thread.join(timeout=120)
    assert not errors, errors
    assert server.updates_applied >= STRESS_DELTAS

"""The load process: workloads, verified readers, the paced owner, and the
checks that every answer is right.

Readers are closed-loop: each is one :class:`VerifyingClient` connection that
waits for its verified answer before asking again.  The owner is open-loop:
update batches are due on a fixed schedule and each is timed from when it
was due.  Every accepted answer is kept and, after the measured window,
compared with a plain evaluation over the owner's ground truth; a seeded
sample is mutated and re-submitted to a verifier (the tamper canary).
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import random
import threading
import time
from typing import Dict, List, Optional, Tuple

from perfbench.data import RELATION, genesis_rows
from repro.bench.scale import ZipfianKeys
from repro.core.errors import ReproError, VerificationError
from repro.core.verifier import ResultVerifier
from repro.db.query import Conjunction, Query, RangeCondition
from repro.service.client import VerifyingClient
from repro.service.owner import OwnerClient
from repro.service.protocol import ServiceError
from repro.wire.errors import WireFormatError
from repro.wire.updates import RecordDelta

ZIPF_THETA = 0.99
RANGE_WIDTH_MAX = 63
#: The owner's pace.  Each write costs the server some 10 ms (a signature
#: check, an fsync, an apply and a rotation); at 20 writes/s they took about
#: a fifth of its time, and the disk's and host's stalls swung the readers'
#: figures from run to run.  At 5/s every write step still runs.
UPDATE_RATE_PER_S = 5.0
CANARY_SAMPLES_PER_READER = 8
MUTATIONS = ("drop_row", "alter_value", "forge_row", "swap_signature")


@dataclasses.dataclass(frozen=True)
class Workload:
    """One traffic mix; why each exists is recorded in ``BENCHMARK.json``.

    ``hot_point`` (the response-cache path) is not listed there: with two
    serial set-ups per run, three workloads' runs would not fit the run-time
    budget of a benchmark check, and closed loops of ~1 ms point queries
    swing with the speed of a shared host far more than fatter requests do.
    It stays runnable by name.  ``mixed_write`` reads ``cold_range``'s
    stream on one connection, so its writes show as the difference from
    ``cold_range``.
    """

    readers: int
    shape: str  # "point" (zipfian key) or "range" (uniform start and width)
    owner: bool


WORKLOADS: Dict[str, Workload] = {
    "hot_point": Workload(2, "point", owner=False),
    "cold_range": Workload(2, "range", owner=False),
    "mixed_write": Workload(1, "range", owner=True),
}

#: How many of the hottest zipfian keys :func:`prime_ranges` asks for.  They
#: draw 86% of the queries; the server's response cache holds 4096 answers.
#: With only 1000 primed, the cache keeps filling for some 15 s of load and
#: throughput climbs by half through a window.
PRIME_POINT_KEYS = 2000
#: Queries per pipelined batch while priming: small enough that a batch of
#: cold 64-row ranges is answered well inside the client's 10 s timeout.
PRIME_BATCH = 16


#: Typed failures are counted per category (the base class a caller would
#: handle) and type, as ``"<category>.<type>"``.
ERROR_CATEGORIES = (VerificationError, WireFormatError, ServiceError, ReproError)


def error_key(error: ReproError) -> str:
    category = next(kind for kind in ERROR_CATEGORIES if isinstance(error, kind))
    return f"{category.__name__}.{type(error).__name__}"


def range_query(low: int, high: int) -> Query:
    return Query(RELATION, Conjunction((RangeCondition("metric_id", low, high),)))


class QueryStream:
    """The seeded key ranges one reader asks for."""

    def __init__(self, shape: str, rows: int, rng: random.Random) -> None:
        self.shape = shape
        self.rows = rows
        self.rng = rng
        self.zipf = ZipfianKeys(rows, ZIPF_THETA, rng) if shape == "point" else None

    def next(self) -> Tuple[int, int]:
        if self.zipf is not None:
            key = self.zipf.next_key()
            return key, key
        low = self.rng.randint(1, self.rows)
        return low, min(self.rows, low + self.rng.randint(0, RANGE_WIDTH_MAX))


def prime_ranges(shape: str, rows: int) -> List[Tuple[int, int]]:
    """What each reader asks for, verified, before its warm-up.

    Caches on both sides then start near their steady state: point workloads
    ask for the most frequent zipfian keys once, coldest first (so a FIFO
    cache keeps the hottest); range workloads sweep the key space once in
    maximal ranges, which also fills the reader's own chain-digest memos.
    """
    if shape == "point":
        zipf = ZipfianKeys(rows, ZIPF_THETA, random.Random(0))
        frequency = collections.Counter(zipf.next_key() for _ in range(50 * PRIME_POINT_KEYS))
        return [(key, key) for key, _ in frequency.most_common(PRIME_POINT_KEYS)][::-1]
    step = RANGE_WIDTH_MAX + 1
    return [(low, min(rows, low + step - 1)) for low in range(1, rows + 1, step)]


# -- metered transport ---------------------------------------------------------

#: The load threads take turns running client-library code and give up the
#: turn only while they wait: on a socket, or for the owner's next due time.
#: The library's module-wide memos are not safe for concurrent use
#: (``repro.cache.bounded_put``, behind the FDH memo every signature check
#: goes through, can pop the same oldest key from two threads; the second
#: pop's KeyError surfaces as a ``malformed-proof`` rejection of a genuine
#: answer).  The interpreter lock already runs one thread's Python at a
#: time, so taking turns costs the pure-Python client next to nothing.
CLIENT_TURN = threading.Lock()


def take_turn() -> None:
    """Wait for this thread's turn.  A traced run times the wait
    (``perfbench.layers``) and keeps it out of the client's round trip."""
    CLIENT_TURN.acquire()


@contextlib.contextmanager
def off_turn():
    """Let the other load threads run client code while this one waits."""
    CLIENT_TURN.release()
    try:
        yield
    finally:
        take_turn()


class _MeteredSocket:
    """Delegates to a socket, counts the bytes received through it, and gives
    up the client turn while it blocks."""

    def __init__(self, sock, meter) -> None:
        self._sock = sock
        self._meter = meter

    def recv(self, size, *flags):
        with off_turn():
            data = self._sock.recv(size, *flags)
        self._meter.bytes_received += len(data)
        return data

    def sendall(self, data, *flags):
        with off_turn():
            return self._sock.sendall(data, *flags)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class _Metered:
    """Wraps each (re)connected socket in a :class:`_MeteredSocket`.

    Use it only from a thread that holds :data:`CLIENT_TURN`.
    """

    bytes_received = 0

    def connect(self):
        super().connect()
        if not isinstance(self._sock, _MeteredSocket):
            self._sock = _MeteredSocket(self._sock, self)
        return self


class MeteredClient(_Metered, VerifyingClient):
    """A :class:`VerifyingClient` that counts response bytes off its socket."""


class MeteredOwner(_Metered, OwnerClient):
    """An :class:`OwnerClient` that takes turns with the readers."""


# -- ground truth --------------------------------------------------------------


class GroundTruth:
    """The owner's view: genesis rows plus every acknowledged update, by sequence."""

    def __init__(self, rows: int) -> None:
        self.genesis = genesis_rows(rows)
        self.history: Dict[int, List[Tuple[int, Dict[str, object]]]] = {}
        self.last_sequence = 0

    def current(self, key: int) -> Dict[str, object]:
        versions = self.history.get(key)
        return versions[-1][1] if versions else self.genesis[key - 1]

    def record(self, sequence: int, row: Dict[str, object]) -> None:
        self.history.setdefault(int(row["metric_id"]), []).append((sequence, row))
        self.last_sequence = sequence

    def row_at(self, key: int, sequence: int) -> Dict[str, object]:
        row = self.genesis[key - 1]
        for applied, version in self.history.get(key, ()):
            if applied > sequence:
                break
            row = version
        return row

    def expected(self, low: int, high: int, sequence: int) -> List[Dict[str, object]]:
        return [self.row_at(key, sequence) for key in range(low, high + 1)]


# -- the load threads ----------------------------------------------------------


@dataclasses.dataclass
class Answer:
    low: int
    high: int
    rows: tuple
    proof: object
    sequence: int
    manifest: object = None
    request: int = 0
    nbytes: int = 0
    #: Accepted inside the measured window (warm-up answers are checked too).
    measured: bool = True


class Window:
    """Shared phase flag: warm-up, then the measured window, then stop."""

    def __init__(self) -> None:
        self.measuring = False
        self.stop = threading.Event()
        self.start_ns = 0
        self.end_ns = 0

    def open(self) -> None:
        self.start_ns = time.perf_counter_ns()
        self.measuring = True

    def close(self) -> None:
        self.measuring = False
        self.end_ns = time.perf_counter_ns()
        self.stop.set()


class Reader(threading.Thread):
    """One closed-loop verifying connection.

    It first asks for ``prime`` in pipelined batches, then sets
    :attr:`primed` and loops until the window closes.
    """

    def __init__(self, index, address, stream, window, canary_seed, prime, tracer=None) -> None:
        super().__init__(name=f"reader-{index}", daemon=True)
        self.index = index
        # Readers start their primes at different points, so that each
        # answer is built once and the other reader finds it cached.
        turn = len(prime) * index // 2  # at most two readers
        self.prime = prime[turn:] + prime[:turn]
        self.primed = threading.Event()
        self.address = address
        self.stream = stream
        self.window = window
        self.tracer = tracer
        self.canary_rng = random.Random(canary_seed)
        self.attempted = 0
        self.errors: Dict[str, int] = {}
        #: The first message of each error type, for the failure report.
        self.messages: Dict[str, str] = {}
        self.latencies_ms: List[float] = []
        #: perf_counter() at which each measured answer was accepted.
        self.done_at: List[float] = []
        #: time.thread_time() spent on each measured answer, in milliseconds.
        self.cpu_ms: List[float] = []
        self.bytes = 0
        self.answers: List[Answer] = []
        self.samples: List[Answer] = []
        self.crash: Optional[BaseException] = None

    def run(self) -> None:
        try:
            with CLIENT_TURN:
                self._run()
        except BaseException as error:  # reported by the caller as a failure
            self.crash = error

    def _run(self) -> None:
        # Each reader numbers its requests in its own range (the owner's
        # starts at 1 << 40), so a span's request id names one query.
        request_ids = iter(range((self.index << 32) + 1, 1 << 40))
        with MeteredClient(*self.address) as client:
            try:
                self._prime(client)
            finally:
                self.primed.set()
            while not self.window.stop.is_set():
                low, high = self.stream.next()
                measuring = self.window.measuring
                self.attempted += 1
                bytes_before = client.bytes_received
                cpu = time.thread_time()
                start = time.perf_counter()
                request = next(request_ids)
                try:
                    if self.tracer is not None:
                        with self.tracer.request(request):
                            result = client.query(range_query(low, high))
                    else:
                        result = client.query(range_query(low, high))
                except ReproError as error:
                    self._count_error(error, f"[{low}, {high}]")
                    continue
                latency = time.perf_counter() - start
                cpu = time.thread_time() - cpu
                nbytes = client.bytes_received - bytes_before
                answer = Answer(
                    low, high, result.rows, result.proof, result.manifest_sequence,
                    request=request, nbytes=nbytes, measured=measuring,
                )
                self.answers.append(answer)
                self._maybe_sample(answer, client)
                if measuring:
                    self.latencies_ms.append(latency * 1000.0)
                    self.done_at.append(start + latency)
                    self.cpu_ms.append(cpu * 1000.0)
                    self.bytes += nbytes

    def _count_error(self, error: ReproError, context: str, count: int = 1) -> None:
        name = error_key(error)
        self.errors[name] = self.errors.get(name, 0) + count
        self.messages.setdefault(name, f"{context} {error}")

    def _prime(self, client: VerifyingClient) -> None:
        for start in range(0, len(self.prime), PRIME_BATCH):
            batch = self.prime[start:start + PRIME_BATCH]
            self.attempted += len(batch)
            try:
                results = client.query_many([range_query(low, high) for low, high in batch])
            except ReproError as error:
                self._count_error(error, f"prime batch from {batch[0]}", len(batch))
                continue
            for (low, high), result in zip(batch, results):
                answer = Answer(
                    low, high, result.rows, result.proof, result.manifest_sequence,
                    measured=False,
                )
                self.answers.append(answer)
                self._maybe_sample(answer, client)

    def _maybe_sample(self, answer: Answer, client: VerifyingClient) -> None:
        """Reservoir-sample answers for the canary (seeded, so repeatable)."""
        seen = len(self.answers)
        slot = seen - 1 if seen <= CANARY_SAMPLES_PER_READER else self.canary_rng.randrange(seen)
        if slot >= CANARY_SAMPLES_PER_READER:
            return
        manifest = client.verifier.manifests.get(RELATION)
        if manifest is None or manifest.sequence != answer.sequence:
            return
        answer.manifest = manifest
        if slot < len(self.samples):
            self.samples[slot] = answer
        else:
            self.samples.append(answer)


class Owner(threading.Thread):
    """Open-loop owner: one signed single-row update batch every 1/rate s."""

    def __init__(self, address, scheme, truth, rows, window, seed, tracer=None) -> None:
        super().__init__(name="owner", daemon=True)
        self.address = address
        self.scheme = scheme
        self.truth = truth
        self.window = window
        self.tracer = tracer
        self.rng = random.Random(seed * 104729 + 1)
        self.zipf = ZipfianKeys(rows, ZIPF_THETA, self.rng)
        self.attempted = 0
        self.errors: Dict[str, int] = {}
        #: The first message of each error type, for the failure report.
        self.messages: Dict[str, str] = {}
        self.latencies_ms: List[float] = []
        self.done_at: List[float] = []
        self.lags_ms: List[float] = []
        self.crash: Optional[BaseException] = None

    def run(self) -> None:
        try:
            with CLIENT_TURN:
                self._run()
        except BaseException as error:
            self.crash = error

    def _run(self) -> None:
        interval = 1.0 / UPDATE_RATE_PER_S
        with MeteredOwner(*self.address, self.scheme) as owner:
            owner.refresh_manifest(RELATION)
            due = time.perf_counter()
            request_ids = iter(range(1 << 40, 1 << 62))
            while True:
                due += interval
                delay = due - time.perf_counter()
                if delay > 0:
                    with off_turn():
                        if self.window.stop.wait(delay):
                            return
                if self.window.stop.is_set():
                    return
                measuring = self.window.measuring
                key = self.zipf.next_key()
                old = self.truth.current(key)
                value = (int(old["value"]) + 1 + self.rng.randrange(999_999)) % 1_000_000
                new = dict(old, value=value)
                delta = RecordDelta(kind="update", values=new, old_values=dict(old))
                self.attempted += 1
                sent = time.perf_counter()
                try:
                    if self.tracer is not None:
                        with self.tracer.request(next(request_ids)):
                            response = owner.push(RELATION, (delta,))
                    else:
                        response = owner.push(RELATION, (delta,))
                except ReproError as error:
                    name = error_key(error)
                    self.errors[name] = self.errors.get(name, 0) + 1
                    self.messages.setdefault(name, f"key {key}: {error}")
                    owner.refresh_manifest(RELATION)
                    continue
                done = time.perf_counter()
                self.truth.record(response.rotation.manifest.sequence, new)
                if measuring:
                    self.latencies_ms.append((done - due) * 1000.0)
                    self.done_at.append(done)
                    self.lags_ms.append(max(0.0, sent - due) * 1000.0)


# -- checks --------------------------------------------------------------------


def reference_mismatches(answers: List[Answer], truth: GroundTruth) -> int:
    """Accepted answers whose rows differ from a plain evaluation."""
    wrong = 0
    for answer in answers:
        expected = truth.expected(answer.low, answer.high, answer.sequence)
        got = sorted((dict(row) for row in answer.rows), key=lambda row: row["metric_id"])
        if got != expected:
            wrong += 1
    return wrong


def _mutate(kind: str, answer: Answer, other: Optional[Answer]):
    rows = [dict(row) for row in answer.rows]
    proof = answer.proof
    if kind == "drop_row":
        rows = rows[:-1]
    elif kind == "alter_value":
        rows[0]["value"] = int(rows[0]["value"]) + 1
    elif kind == "forge_row":
        rows.append({"metric_id": answer.high, "value": 7, "label": "forged"})
    else:
        bundle = proof.signatures
        if other is not None and other.proof.signatures != bundle:
            bundle = other.proof.signatures
        else:
            aggregate = bundle.aggregate
            bundle = dataclasses.replace(
                bundle, aggregate=dataclasses.replace(aggregate, value=aggregate.value ^ 1)
            )
        proof = dataclasses.replace(proof, signatures=bundle)
    return rows, proof


def tamper_canary(samples: List[Answer]) -> Tuple[int, int, Dict[str, int]]:
    """Re-verify each sample, then each of its mutations.

    Returns ``(attempted, failed, rejected_by_mutation)``: a failure is an
    untouched sample that no longer verifies, a mutation that is accepted,
    or a rejection that is not a typed :class:`VerificationError`.
    """
    attempted = failed = 0
    rejected = {kind: 0 for kind in MUTATIONS}
    for index, answer in enumerate(samples):
        verifier = ResultVerifier({RELATION: answer.manifest})
        query = range_query(answer.low, answer.high)
        attempted += 1
        try:
            verifier.verify(query, answer.rows, answer.proof)
        except ReproError:
            failed += 1
            continue
        other = samples[(index + 1) % len(samples)] if len(samples) > 1 else None
        for kind in MUTATIONS:
            rows, proof = _mutate(kind, answer, other)
            attempted += 1
            try:
                verifier.verify(query, rows, proof)
            except VerificationError:
                rejected[kind] += 1
                continue
            except Exception:  # noqa: BLE001 - an untyped rejection is a defect too
                pass
            failed += 1
    return attempted, failed, rejected


def read_back(address, truth: GroundTruth, keys: List[int]) -> Tuple[int, int]:
    """Verified point reads of ``keys`` after recovery; stale or missing rows fail."""
    failed = 0
    with VerifyingClient(*address) as client:
        for key in keys:
            try:
                result = client.query(range_query(key, key))
            except ReproError:
                failed += 1
                continue
            if [dict(row) for row in result.rows] != [truth.current(key)] or (
                result.manifest_sequence < truth.last_sequence
            ):
                failed += 1
    return len(keys), failed

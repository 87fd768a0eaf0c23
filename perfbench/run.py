"""Out-of-process verified-serving benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_range --seed 1 --seconds 10 --trace 0

The server (``perfbench/server.py``) runs as a subprocess on the durable
sqlite path; this process is the load: verifying reader threads and, on
``mixed_write``, a paced owner.  A run launches the server twice, one
launch after another (``setup_s`` is the median of their launch-to-listening
times) and keeps the first.  The readers prime its caches and their own
with verified queries, warm up, and one window is measured.  Afterwards
the server is killed with SIGKILL and restarted on the same storage root,
and every acknowledged update is read back through a verified query.  A
traced run measures untraced, traced and untraced windows on the same
server.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The exit code is non-zero when any
check failed: a typed error, a reference mismatch, an accepted tamper or a
lost update.  ``python3 perfbench/run.py --help`` lists the sizing knobs the
benchmark's own tests use.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SERVER = os.path.join(ROOT, "perfbench", "server.py")
WORKDIR = os.path.join(ROOT, ".perfbench_work")

#: Launches per run, one after another: setup_s is their median.
SETUPS = 2
#: SIGKILL-and-restart cycles after a traced run's load: the per-layer
#: ``recovery.restart_s`` is their median.  An untraced run restarts once, for
#: the durability check.
RESTARTS = 5
WARMUP_FRACTION = 0.1
#: Width of the slices the measured window is cut into.
SLICE_S = 0.5
STARTUP_TIMEOUT_S = 120.0
CLK_TCK = os.sysconf("SC_CLK_TCK")

class ServerProcess:
    """One launch of ``server.py``.

    :meth:`wait_listening` sets :attr:`startup_s`, launch to listening.
    """

    def __init__(self, root: str, rows: int, trace: bool) -> None:
        command = [sys.executable, SERVER, "--root", root, "--rows", str(rows)]
        if trace:
            command.append("--trace")
        self.root = root
        self._buffer = b""
        self._started = time.perf_counter()
        self._log = open(root + ".log", "wb")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, cwd=ROOT, bufsize=0
        )
        self.startup_s = 0.0
        self.address = ("127.0.0.1", 0)

    def wait_listening(self) -> "ServerProcess":
        line = self.expect("PORT", timeout=STARTUP_TIMEOUT_S)
        self.startup_s = time.perf_counter() - self._started
        self.address = ("127.0.0.1", int(line.split()[1]))
        return self

    def _line(self, prefix: str) -> Optional[str]:
        """The first buffered line starting with ``prefix``, if any."""
        while b"\n" in self._buffer:
            line, self._buffer = self._buffer.split(b"\n", 1)
            if line.decode().startswith(prefix):
                return line.decode()
        return None

    def _read(self) -> None:
        chunk = os.read(self.process.stdout.fileno(), 65536)
        if not chunk:
            raise RuntimeError(f"server {self.root} exited early (see its .log)")
        self._buffer += chunk

    def expect(self, prefix: str, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while True:
            line = self._line(prefix)
            if line is not None:
                return line
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"server did not print {prefix} in {timeout}s")
            if select.select([self.process.stdout], [], [], remaining)[0]:
                self._read()

    def cpu_s(self) -> float:
        with open(f"/proc/{self.process.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def toggle_request_tracing(self) -> None:
        """Turn the server's request-path spans on or off (SIGUSR2)."""
        self.process.send_signal(signal.SIGUSR2)
        self.expect("TRACING", timeout=30.0)

    def dump(self) -> Dict[str, object]:
        """Ask the server for its counters and spans (SIGUSR1)."""
        self.process.send_signal(signal.SIGUSR1)
        self.expect("DUMPED", timeout=30.0)
        with open(self.root + ".stats.json") as handle:
            return json.load(handle)

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdout.close()
        self._log.close()

    def stop(self) -> int:
        """Graceful SIGTERM; returns the exit code (killed after 30 s)."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                pass
        code = self.process.poll()
        self.kill()
        return code if code is not None else -9


def slice_sums(times, values, start: float, width: float, slices: int):
    """Per slice of the window: how many of ``times`` fall into it, and the
    sum of the ``values`` that go with them (``values`` may be ``None``)."""
    counts = [0] * slices
    sums = [0.0] * slices
    for index, series in enumerate(times):
        weights = values[index] if values is not None else [0.0] * len(series)
        for moment, value in zip(series, weights):
            position = int((moment - start) // width)
            if 0 <= position < slices:
                counts[position] += 1
                sums[position] += value
    return counts, sums


def percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(fraction * len(ordered))) - 1))
    return ordered[rank]


def environment(args) -> Dict[str, object]:
    from repro.crypto.backend import backend_stats

    digest = hashlib.sha256()
    for folder, _, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "crypto_backend": backend_stats(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "fsync": "always",
        "storage_backend": "sqlite",
        "rows": args.rows,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Dict[str, int] = {}

    def add(self, attempted: int, failed: int = 0, reason: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.reasons[reason] = self.reasons.get(reason, 0) + failed


def drive(args, server: ServerProcess, truth, tally: Tally, salt: int, tracer=None):
    """Prime, warm up, measure one window, and check every answer.

    ``salt`` separates the query streams of two windows on one server.
    """
    from perfbench import load
    from perfbench.data import SHARD
    from repro.storage.checkpoint import load_keys

    workload = load.WORKLOADS[args.workload]
    window = load.Window()
    seed = args.seed * 1000 + salt * 100
    readers = [
        load.Reader(
            index,
            server.address,
            load.QueryStream(workload.shape, args.rows, random.Random(seed + index)),
            window,
            canary_seed=seed + 10 + index,
            prime=load.prime_ranges(workload.shape, args.rows),
            tracer=tracer,
        )
        for index in range(workload.readers)
    ]
    threads = list(readers)
    primed = time.perf_counter()
    for reader in readers:
        reader.start()
    for reader in readers:
        reader.primed.wait(STARTUP_TIMEOUT_S)
    primed = time.perf_counter() - primed
    # A traced window's cache hit ratios count from here, after the prime,
    # to the end of the window.
    cache_before = server.dump()["cache"] if tracer is not None else None
    owner = None
    if workload.owner:
        keys = os.path.join(server.root, "shards", SHARD, "keys.json")
        scheme = load_keys(keys)[load.RELATION]
        owner = load.Owner(server.address, scheme, truth, args.rows, window, seed, tracer)
        threads.append(owner)
        owner.start()
    time.sleep(args.seconds * WARMUP_FRACTION)
    # The window is cut into half-second slices; throughput and CPU per
    # operation are medians over the slices, so a stall (an fsync held up by
    # the disk, a burst of load from another tenant of the host) shows in the
    # latency percentiles rather than swinging the whole window's mean.
    window.open()
    started = time.perf_counter()
    slices = max(1, round(args.seconds / SLICE_S))
    slice_s = args.seconds / slices
    cpu_marks = [server.cpu_s()]
    for index in range(1, slices + 1):
        time.sleep(max(0.0, started + index * slice_s - time.perf_counter()))
        cpu_marks.append(server.cpu_s())
    window.close()
    for thread in threads:
        thread.join(timeout=60.0)
    server_stats = server.dump() if tracer is not None else None

    errors: Dict[str, int] = {}
    for thread in threads:
        if thread.is_alive() or thread.crash is not None:
            tally.add(1, 1, f"{thread.name} crashed: {thread.crash!r}")
        for name, count in thread.errors.items():
            errors[name] = errors.get(name, 0) + count
            tally.add(0, count, f"{name}: {thread.messages[name]}")
        tally.add(thread.attempted)
    answers = [answer for reader in readers for answer in reader.answers]
    tally.add(0, load.reference_mismatches(answers, truth), "reference mismatch")
    samples = [sample for reader in readers for sample in reader.samples]
    canary_attempted, canary_failed, rejected = load.tamper_canary(samples)
    tally.add(canary_attempted, canary_failed, "tamper canary")
    latencies = [value for reader in readers for value in reader.latencies_ms]
    queries = len(latencies)
    query_counts, cpu_sums = slice_sums(
        [reader.done_at for reader in readers], [reader.cpu_ms for reader in readers],
        started, slice_s, slices,
    )
    op_counts, _ = slice_sums([thread.done_at for thread in threads], None, started, slice_s, slices)
    client_cpu_ms = [cpu_sums[index] / count for index, count in enumerate(query_counts) if count]
    cpu_per_op_ms = [
        (cpu_marks[index + 1] - cpu_marks[index]) * 1000.0 / max(1, op_counts[index])
        for index in range(slices)
    ]
    return {
        "window_ns": (window.start_ns, window.end_ns),
        "attempted": sum(thread.attempted for thread in threads),
        "errors": errors,
        "answers": answers,
        "latencies": latencies,
        "qps": statistics.median(query_counts) / slice_s,
        "bytes_per_query": sum(reader.bytes for reader in readers) / max(1, queries),
        "client_cpu_ms": statistics.median(client_cpu_ms),
        "server_cpu_ms_per_op": statistics.median(cpu_per_op_ms),
        "owner": owner,
        "cache_before": cache_before,
        "server_stats": server_stats,
        "canary": {"samples": len(samples), "rejected": rejected},
        "slice_qps": [count / slice_s for count in query_counts],
        "slice_client_cpu_ms": client_cpu_ms,
        "slice_server_cpu_ms_per_op": cpu_per_op_ms,
        "prime_s": primed,
    }


def crash_and_recover(args, server: ServerProcess, truth, tally: Tally, servers):
    """SIGKILL, restart on the same root and read back; repeat when traced.

    Returns the median restart time and, when traced, the first restart's
    recovery span in seconds.
    """
    from perfbench import load

    rng = random.Random(args.seed * 31 + 5)
    keys = sorted(truth.history) or sorted(rng.sample(range(1, args.rows + 1), min(32, args.rows)))
    samples = []
    replay_s = 0.0
    for attempt in range(RESTARTS if args.trace else 1):
        server.kill()
        server = ServerProcess(server.root, args.rows, bool(args.trace))
        servers.append(server)
        samples.append(server.wait_listening().startup_s)
        if attempt == 0:
            attempted, failed = load.read_back(server.address, truth, keys)
            tally.add(attempted, failed, "lost or stale update after restart")
            if args.trace:
                replay = [s for s in server.dump()["spans"] if s[3] == "recovery.replay"]
                replay_s = (replay[0][5] - replay[0][4]) / 1e9 if replay else 0.0
    code = server.stop()
    if code != 0:
        tally.add(1, 1, f"server exited with {code} on SIGTERM")
    return statistics.median(samples), replay_s


def measure(args) -> Dict[str, object]:
    """One benchmark run: set up, load, crash, recover; every check applied."""
    from perfbench import load
    from perfbench.trace import Tracer, nesting_violations, self_times_ns

    base = os.path.join(WORKDIR, f"run-{os.getpid()}")
    os.makedirs(base)
    servers: List[ServerProcess] = []
    tally = Tally()
    truth = load.GroundTruth(args.rows)
    tracer = None
    try:
        # One launch after another, so that no launch competes with another
        # for cores or fsyncs: setup_s is their median.  The first is kept.
        setups = []
        for index in range(SETUPS):
            launch = ServerProcess(
                os.path.join(base, f"server-{index}"), args.rows,
                trace=bool(args.trace) and index == 0,
            )
            servers.append(launch)
            setups.append(launch.wait_listening().startup_s)
            if index:
                launch.stop()
        server = servers[0]

        if args.trace:
            # Untraced, traced, untraced: the caches keep warming across
            # windows, so the traced one is compared with the mean of its
            # neighbours.
            from perfbench.layers import install_client_tracing

            untraced_qps = [drive(args, server, truth, tally, salt=1)["qps"]]
            tracer = Tracer()
            install_client_tracing(tracer)
            server.toggle_request_tracing()
            run = drive(args, server, truth, tally, salt=0, tracer=tracer)
            tracer.uninstall()
            server.toggle_request_tracing()
            untraced_qps.append(drive(args, server, truth, tally, salt=2)["qps"])
        else:
            run = drive(args, server, truth, tally, salt=0)
        peak_rss = server.peak_rss_mib()
        restart_s, replay_s = crash_and_recover(args, server, truth, tally, servers)
    finally:
        if tracer is not None:
            tracer.uninstall()
        for process in servers:
            process.kill()
        shutil.rmtree(base, ignore_errors=True)
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass  # another run still uses it

    owner = run["owner"]
    detail = {
        "query_samples": len(run["latencies"]),
        "query_p95_ms": percentile(run["latencies"], 0.95),
        "query_p99_ms": percentile(run["latencies"], 0.99),
        "setup_samples_s": setups,
        "restart_s": restart_s,
        "prime_s": run["prime_s"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "ops_failed_frac": tally.failed / max(1, tally.attempted),
        "failure_reasons": tally.reasons,
        "typed_errors": run["errors"],
        "canary": run["canary"],
        "slice_qps": run["slice_qps"],
        "slice_client_cpu_ms": run["slice_client_cpu_ms"],
        "slice_server_cpu_ms_per_op": run["slice_server_cpu_ms_per_op"],
    }
    if owner is not None and owner.latencies_ms:
        detail.update(
            update_p50_ms=percentile(owner.latencies_ms, 0.50),
            update_p99_ms=percentile(owner.latencies_ms, 0.99),
            update_samples=len(owner.latencies_ms),
        )
    result = {
        "tally": tally,
        "detail": detail,
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "query_p50_ms": percentile(run["latencies"], 0.50),
            "query_qps": run["qps"],
            "vo_bytes_per_query": run["bytes_per_query"],
            "client_cpu_ms_per_query": run["client_cpu_ms"],
            "server_cpu_ms_per_op": run["server_cpu_ms_per_op"],
            "server_peak_rss_mib": peak_rss,
        },
    }
    if tracer is not None:
        server_spans = run["server_stats"]["spans"]
        problems = nesting_violations(tracer.spans) + nesting_violations(server_spans)
        for spans in (tracer.spans, server_spans):
            if spans and min(self_times_ns(spans).values()) < 0:
                problems.append("a span's self time is negative")
        if problems:
            tally.add(1, 1, "spans do not nest: " + "; ".join(problems[:3]))
        detail["untraced_qps"] = untraced_qps
        detail["traced_qps"] = run["qps"]
        result["per_layer"], result["cost_model"] = per_layer(
            args, run, tracer.spans, untraced_qps
        )
        result["per_layer"].update({"recovery.restart_s": restart_s, "recovery.replay_s": replay_s})
    return result


def per_layer(args, run, spans, untraced_qps):
    """Every per-layer metric, plus the cost-model table."""
    from perfbench import layers

    start_ns, end_ns = run["window_ns"]
    metrics = layers.client_layers(spans, start_ns, end_ns)
    metrics.update(
        layers.server_layers(
            run["server_stats"]["spans"], run["cache_before"], run["server_stats"]["cache"],
            start_ns, end_ns, args.rows,
        )
    )
    attempts = max(1, run["attempted"])
    owner = run["owner"]
    manifest = next(answer.manifest for answer in run["answers"] if answer.manifest is not None)
    table = layers.cost_model_rows(
        [answer for answer in run["answers"] if answer.measured],
        spans,
        args.rows,
        digest_bits=8 * len(manifest.hash_function().digest(b"")),
        signature_bits=manifest.public_key.modulus.bit_length(),
    )
    answered = sum(row["answers"] for row in table) or 1
    roundtrip = metrics.pop("client.roundtrip_mean_ms")
    frame = metrics.pop("handler.frame_mean_ms")
    metrics["server.transport_ms"] = max(0.0, roundtrip - frame)
    metrics["client.errors_per_attempt"] = sum(run["errors"].values()) / attempts
    for category in ("VerificationError", "WireFormatError", "ServiceError"):
        metrics[f"client.errors.{category}"] = sum(
            count for name, count in run["errors"].items() if name.startswith(category + ".")
        ) / attempts
    updates = owner.latencies_ms if owner is not None else []
    metrics.update(
        {
            "owner.schedule_lag_ms": statistics.median(owner.lags_ms) if updates else 0.0,
            "owner.update_p50_ms": percentile(updates, 0.50) if updates else 0.0,
            "owner.update_p99_ms": percentile(updates, 0.99) if updates else 0.0,
            "query_samples": len(run["latencies"]),
            "query_p95_ms": percentile(run["latencies"], 0.95),
            "query_p99_ms": percentile(run["latencies"], 0.99),
            "tracing.overhead_ratio": run["qps"] / statistics.fmean(untraced_qps),
            "costmodel.formula5_hashes_per_query": sum(
                row["formula5_hashes"] * row["answers"] for row in table
            ) / answered,
            "costmodel.formula4_bytes_per_query": sum(
                row["formula4_bytes"] * row["answers"] for row in table
            ) / answered,
            "costmodel.measured_bytes_per_query": run["bytes_per_query"],
        }
    )
    return metrics, table


def main(argv=None) -> int:
    from perfbench.load import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", type=int, default=10_000, help="relation size")
    args = parser.parse_args(argv)

    print("ENV " + json.dumps(environment(args), sort_keys=True), flush=True)
    result = measure(args)
    tally = result["tally"]
    print("DETAIL " + json.dumps(result["detail"], sort_keys=True), flush=True)
    kind = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        print("COST_MODEL " + json.dumps(result["cost_model"]), flush=True)
    chosen = result[kind]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        units = {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}
    if set(chosen) != set(units):
        raise RuntimeError(f"measured {sorted(chosen)}, BENCHMARK.json declares {sorted(units)}")
    for name, value in chosen.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}", flush=True)
    correct = tally.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in chosen.items()
                },
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [SRC, ROOT]
    raise SystemExit(main())

"""Smoke-size tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

They drive ``run.py`` end to end on a few hundred rows for a second per
window, so each takes a few seconds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import load  # noqa: E402
from perfbench.data import RELATION, genesis_rows  # noqa: E402
from perfbench.trace import Tracer, nesting_violations, self_times_ns  # noqa: E402

SMOKE_ROWS = 300

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    BENCHMARK = json.load(handle)


def run_benchmark(workload: str, trace: int = 0, seed: int = 1):
    completed = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
            "--rows", str(SMOKE_ROWS),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = completed.stdout.strip().splitlines()
    detail = json.loads(next(line for line in lines if line.startswith("DETAIL "))[7:])
    return completed.returncode, json.loads(lines[-1]), detail


def test_benchmark_lists_known_workloads():
    assert {entry["name"] for entry in BENCHMARK["workloads"]} <= set(load.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(load.WORKLOADS))
def test_each_workload_finishes_without_failures(workload):
    code, result, detail = run_benchmark(workload)
    assert code == 0, detail["failure_reasons"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert detail["ops_failed_frac"] == 0
    assert set(result["metrics"]) == {metric["name"] for metric in BENCHMARK["end_to_end"]}
    for metric in BENCHMARK["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0


def test_traced_run_reports_every_layer_and_nests():
    code, result, detail = run_benchmark("mixed_write", trace=1)
    assert code == 0, detail["failure_reasons"]
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert set(metrics) == {metric["name"] for metric in BENCHMARK["per_layer"]}
    assert metrics["publisher.apply_ms"] > 0
    assert metrics["storage.log_update_ms"] > 0
    assert metrics["owner.update_p50_ms"] > 0
    assert metrics["tracing.overhead_ratio"] > 0


def test_traced_hot_point_hits_the_caches_and_never_chases():
    code, result, detail = run_benchmark("hot_point", trace=1)
    assert code == 0, detail["failure_reasons"]
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["handler.response_cache_hit_ratio"] > 0.5
    assert metrics["client.rotation_chases_per_query"] == 0


def _published_answers(count: int):
    """Genuine answers from an in-process publisher, with their manifest."""
    from perfbench.server import build_router

    router = build_router(SMOKE_ROWS)
    publisher = router.shards[RELATION]
    manifest = publisher.signed_relation(RELATION).manifest
    answers = []
    for low in range(1, count * 20, 20):
        high = low + low % 7
        published = publisher.answer(load.range_query(low, high))
        rows = tuple(dict(row) for row in published.rows)
        answers.append(load.Answer(low, high, rows, published.proof, manifest.sequence, manifest))
    return answers


def test_tamper_canary_rejects_every_mutation():
    answers = _published_answers(4)
    attempted, failed, rejected = load.tamper_canary(answers)
    assert failed == 0
    assert attempted == len(answers) * (1 + len(load.MUTATIONS))
    assert rejected == {kind: len(answers) for kind in load.MUTATIONS}


def test_tamper_canary_fails_a_verifier_that_accepts_anything(monkeypatch):
    answers = _published_answers(2)
    monkeypatch.setattr(load.ResultVerifier, "verify", lambda self, *args, **kwargs: None)
    _, failed, _ = load.tamper_canary(answers)
    assert failed == len(answers) * len(load.MUTATIONS)


def test_reference_check_flags_a_wrong_row():
    answers = _published_answers(2)
    truth = load.GroundTruth(SMOKE_ROWS)
    assert load.reference_mismatches(answers, truth) == 0
    wrong = answers[0]
    wrong.rows = (dict(wrong.rows[0], value=-1),) + tuple(wrong.rows[1:])
    assert load.reference_mismatches(answers, truth) == 1


def test_seed_changes_the_query_stream_but_not_the_data():
    import random

    def stream(shape, seed):
        source = load.QueryStream(shape, SMOKE_ROWS, random.Random(seed))
        return [source.next() for _ in range(50)]

    for shape in ("point", "range"):
        assert stream(shape, 1) == stream(shape, 1)
        assert stream(shape, 1) != stream(shape, 2)
    # The rows come from a constant data seed; the workload seed never
    # reaches the row generator.
    assert genesis_rows(SMOKE_ROWS) == genesis_rows(SMOKE_ROWS)
    from perfbench.server import build_router

    published = build_router(SMOKE_ROWS).shards[RELATION].signed_relation(RELATION)
    assert [dict(record.values) for record in published.relation] == genesis_rows(SMOKE_ROWS)


def test_spans_nest_and_self_times_are_not_negative():
    tracer = Tracer()

    class Layer:
        def outer(self, depth):
            return self.inner(depth) + 1

        def inner(self, depth):
            return sum(range(depth))

    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner", counted=True)
    try:
        workers = [
            threading.Thread(target=lambda: [Layer().outer(2000) for _ in range(200)])
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        tracer.uninstall()
    assert len(tracer.spans) == 800
    assert nesting_violations(tracer.spans) == []
    assert min(self_times_ns(tracer.spans).values()) >= 0
    assert Layer.outer.__name__ == "outer" and not hasattr(Layer.outer, "__wrapped__")

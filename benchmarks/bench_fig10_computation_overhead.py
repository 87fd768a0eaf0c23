"""Figure 10: user computation overhead (ms) vs the polynomial base B.

Regenerates:

* the analytical curve of formula (5) for result sizes {1, 5, 10} and B in
  [2, 10] (paper units: Chash = 50 µs, Csign = 5 ms, 32-bit key domain),
* the Section 6.2 worked examples (Cuser for |Q| = 1, 100, 1000 at B = 2),
* a *measured* sweep over B: the number of hash operations the verifier
  actually performs against the implementation, scaled by the paper's Chash so
  the shape can be compared directly, and
* wall-clock verification timings via pytest-benchmark.

The claims to reproduce: Cuser is minimised at B in {2, 3}, grows linearly in
the result size, and the |Q| = 1 worked example lands around 15.5 ms.
"""

import pytest

from conftest import format_table, report
from repro.core.cost_model import (
    CostParameters,
    figure10_series,
    optimal_base,
    section_6_2_worked_examples,
    user_computation_seconds,
)
from repro.core.owner import DataOwner
from repro.core.publisher import Publisher
from repro.core.verifier import ResultVerifier
from repro.crypto.hashing import HASH_COUNTER
from repro.db.query import Conjunction, Query, RangeCondition
from repro.db.workload import generate_employees

# Run the table-regeneration tests under --benchmark-only as well: they are
# what actually reproduces the paper's figures.
pytestmark = pytest.mark.usefixtures("benchmark")

BASES = tuple(range(2, 11))
RESULT_SIZES = (1, 5, 10)
PARAMS = CostParameters()


def test_report_figure10_analytical():
    series = figure10_series(BASES, RESULT_SIZES, parameters=PARAMS)
    rows = []
    for index, base in enumerate(BASES):
        rows.append(
            (base,)
            + tuple(f"{series[size][index]:.2f}" for size in RESULT_SIZES)
        )
    report(
        "figure10_analytical_computation_ms",
        format_table(("B",) + tuple(f"|Q|={q}" for q in RESULT_SIZES), rows),
    )
    for size in RESULT_SIZES:
        assert optimal_base(size, candidate_bases=BASES) in (2, 3)


def test_report_section_6_2_worked_examples():
    examples = section_6_2_worked_examples(PARAMS)
    rows = [
        (size, f"{seconds * 1000:.1f} ms", reference)
        for (size, seconds), reference in zip(
            sorted(examples.items()), ("15.5 ms", "689 ms", "6.81 s")
        )
    ]
    report(
        "section_6_2_worked_examples",
        format_table(("|Q|", "formula (5)", "paper quotes"), rows),
    )
    assert examples[1] == pytest.approx(15.5e-3, rel=0.05)
    assert examples[1000] == pytest.approx(6.81, rel=0.05)


@pytest.fixture(scope="module")
def base_sweep_worlds(signature_scheme):
    """One published relation per base B (smaller sweep: signing is the slow part)."""
    relation = generate_employees(60, seed=10, photo_bytes=8)
    worlds = {}
    for base in (2, 3, 4, 6, 8, 10):
        owner = DataOwner(signature_scheme=signature_scheme, base=base)
        signed = owner.publish_relation(relation)
        worlds[base] = (
            relation,
            Publisher({"employees": signed}),
            ResultVerifier({"employees": signed.manifest}),
        )
    return worlds


def _query(relation, size):
    keys = relation.keys()
    return Query(
        "employees",
        Conjunction((RangeCondition("salary", keys[20], keys[20 + size - 1]),)),
    )


def _verify_from_scratch(verifier, query, result):
    """Verify with a fresh verifier, so its canonical-digest memo starts empty.

    Every call then walks the digit chains the paper's per-query user
    computation counts, however many rounds the benchmark runs.
    """
    return ResultVerifier(verifier.manifests).verify(query, result.rows, result.proof)


def test_report_measured_hash_counts(base_sweep_worlds):
    """Measured verifier hash counts per base, scaled by the paper's Chash."""
    rows = []
    minima = {}
    for base, (relation, publisher, verifier) in sorted(base_sweep_worlds.items()):
        row = [base]
        for size in RESULT_SIZES:
            query = _query(relation, size)
            result = publisher.answer(query)
            HASH_COUNTER.reset()
            report_obj = _verify_from_scratch(verifier, query, result)
            hashes = report_obj.hash_operations
            row.append(f"{hashes} ({hashes * PARAMS.c_hash * 1000 + PARAMS.c_sign * 1000:.1f} ms)")
            minima.setdefault(size, {})[base] = hashes
        rows.append(tuple(row))
    report(
        "figure10_measured_hash_counts",
        format_table(
            ("B",) + tuple(f"|Q|={q} hashes (paper-unit ms)" for q in RESULT_SIZES), rows
        ),
    )
    # Shape: verification hashing grows with the result size for every base,
    # and B = 2 stays close to the best base.  (Formula (5) charges the worst
    # case of B hashes per digit, which is minimised at B = 2-3; the measured
    # counts hash the *actual* digits, whose average is (B-1)/2, so the
    # measured curve is flatter than the analytical one.)
    for base in minima[RESULT_SIZES[0]].keys() if minima else []:
        assert (
            minima[RESULT_SIZES[0]][base]
            < minima[RESULT_SIZES[1]][base]
            < minima[RESULT_SIZES[2]][base]
        )
    for size in RESULT_SIZES:
        best = min(minima[size].values())
        assert minima[size][2] <= 2.0 * best


@pytest.mark.parametrize("result_size", RESULT_SIZES)
def test_verification_time_base2(benchmark, base_sweep_worlds, result_size):
    relation, publisher, verifier = base_sweep_worlds[2]
    query = _query(relation, result_size)
    result = publisher.answer(query)
    benchmark(_verify_from_scratch, verifier, query, result)


@pytest.mark.parametrize("base", [2, 3, 8])
def test_verification_time_result10(benchmark, base_sweep_worlds, base):
    relation, publisher, verifier = base_sweep_worlds[base]
    query = _query(relation, 10)
    result = publisher.answer(query)
    benchmark(_verify_from_scratch, verifier, query, result)


def test_analytical_linear_growth():
    c10 = user_computation_seconds(10)
    c100 = user_computation_seconds(100)
    c1000 = user_computation_seconds(1000)
    assert (c1000 - c100) / 900 == pytest.approx((c100 - c10) / 90, rel=1e-9)

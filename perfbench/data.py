"""The benchmark relation: one dense-key table, generated from a data seed.

The launcher publishes these rows and the load process evaluates reference
answers over the same generator, so neither side ships the data to the
other.  The data seed is a constant; the workload seed only steers the
query stream.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.db.schema import Attribute, AttributeType, KeyDomain, Schema

RELATION = "metrics"
SHARD = "metrics"
DEFAULT_ROWS = 10_000
DATA_SEED = 20050614


def metrics_schema(rows: int) -> Schema:
    """Dense integer keys ``1..rows`` inside the open domain ``(0, rows + 1)``."""
    return Schema.build(
        RELATION,
        [
            Attribute(
                "metric_id",
                AttributeType.INTEGER,
                domain=KeyDomain(0, rows + 1),
                size_hint=8,
            ),
            Attribute("value", AttributeType.INTEGER, size_hint=8),
            Attribute("label", AttributeType.STRING, size_hint=16),
        ],
        key="metric_id",
    )


def genesis_rows(rows: int) -> List[Dict[str, object]]:
    """The published rows, in key order."""
    rng = random.Random(DATA_SEED)
    return [
        {
            "metric_id": key,
            "value": rng.randrange(1_000_000),
            "label": f"m{key:07d}-{rng.randrange(36**4):05x}",
        }
        for key in range(1, rows + 1)
    ]

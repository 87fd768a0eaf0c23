"""The consolidated configuration/client API: configs and QuerySpec.

Two api_redesign contracts live here:

* :class:`~repro.service.ServerConfig` / :class:`~repro.service.StorageConfig`
  are frozen, validate on construction, and are the one way tunables reach
  :class:`~repro.service.PublicationServer` and
  :func:`~repro.storage.open_publication_storage`;
* :class:`~repro.service.QuerySpec` is the single value object behind
  ``query`` / ``query_many`` / ``query_join`` — the legacy methods are thin
  delegates, asserted equivalent down to the verified rows and manifest
  attribution.
"""

import dataclasses

import pytest

from repro.db.query import Conjunction, JoinQuery, Query, RangeCondition
from repro.service import (
    PublicationServer,
    QuerySpec,
    ServerConfig,
    StorageConfig,
    VerifyingClient,
    build_demo_world,
)
from repro.storage import open_publication_storage

SALARY_RANGE = Query(
    "employees", Conjunction((RangeCondition("salary", 20_000, 60_000),))
)
ORDERS_JOIN = JoinQuery("orders", "customers", "customer_id", "customer_id")


@pytest.fixture(scope="module")
def demo_world():
    return build_demo_world(key_bits=512, seed=11)


@pytest.fixture(scope="module")
def live_server(demo_world):
    with PublicationServer(
        demo_world.router, config=ServerConfig(max_workers=4)
    ) as server:
        yield server


@pytest.fixture()
def client(live_server):
    host, port = live_server.address
    with VerifyingClient(host, port) as active:
        yield active


# -- config validation ---------------------------------------------------------


def test_server_config_validates_on_construction():
    with pytest.raises(ValueError):
        ServerConfig(port=70_000)
    with pytest.raises(ValueError):
        ServerConfig(max_workers=0)


def test_storage_config_validates_on_construction():
    with pytest.raises(ValueError):
        StorageConfig(backend="postgres")
    with pytest.raises(ValueError):
        StorageConfig(fsync="sometimes")
    with pytest.raises(ValueError):
        StorageConfig(checkpoint_every=-1)


def test_configs_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        ServerConfig().max_workers = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        StorageConfig().backend = "sqlite"


def test_with_overrides_revalidates():
    base = ServerConfig(max_workers=2)
    assert base.with_overrides(max_workers=5).max_workers == 5
    assert base.max_workers == 2, "with_overrides must not mutate the original"
    with pytest.raises(ValueError):
        base.with_overrides(max_workers=0)
    storage = StorageConfig()
    assert storage.with_overrides(backend="sqlite").backend == "sqlite"
    with pytest.raises(ValueError):
        storage.with_overrides(fsync="maybe")


# -- config-only construction --------------------------------------------------


def test_config_only_construction_is_warning_free(demo_world, recwarn):
    server = PublicationServer(demo_world.router, config=ServerConfig(max_workers=2))
    try:
        assert not [w for w in recwarn if w.category is DeprecationWarning]
    finally:
        server.stop()


# -- StorageConfig consumption -------------------------------------------------


def test_storage_config_drives_open_publication_storage(tmp_path, demo_world):
    config = StorageConfig(
        root=str(tmp_path / "pub"),
        backend="sqlite",
        fsync="off",
        checkpoint_every=3,
    )
    router, storage = open_publication_storage(
        "", lambda: demo_world.router, config=config
    )
    try:
        assert storage.backend == "sqlite"
        assert storage.fsync_policy == "off"
        assert storage.checkpoint_every == 3
        assert storage.root == config.root
        assert "employees" in dict(router.listing())
    finally:
        storage.close()


# -- QuerySpec -----------------------------------------------------------------


def test_query_spec_rejects_non_queries():
    with pytest.raises(TypeError):
        QuerySpec(query="employees")


def test_query_spec_constructors():
    ranged = QuerySpec.range("employees", "salary", 1, 9, role="hr")
    assert not ranged.is_join and ranged.role == "hr"
    point = QuerySpec.point("employees", "salary", 5)
    (condition,) = point.query.where.conditions
    assert (condition.low, condition.high) == (5, 5)
    join = QuerySpec.join(ORDERS_JOIN)
    assert join.is_join


def test_query_delegates_match_execute(client):
    via_method = client.query(SALARY_RANGE)
    via_spec = client.execute(QuerySpec(query=SALARY_RANGE))
    assert via_method.rows == via_spec.rows
    assert via_method.manifest_id == via_spec.manifest_id
    assert via_method.report.result_rows == via_spec.report.result_rows


def test_query_many_delegates_match_execute_many(client):
    queries = [SALARY_RANGE, Query("employees", Conjunction((RangeCondition("salary", 50_000, None),)))]
    via_method = client.query_many(queries)
    via_spec = client.execute_many([QuerySpec(query=query) for query in queries])
    assert [r.rows for r in via_method] == [r.rows for r in via_spec]
    assert [r.manifest_id for r in via_method] == [r.manifest_id for r in via_spec]


def test_query_join_delegates_match_execute(client):
    via_method = client.query_join(ORDERS_JOIN)
    via_spec = client.execute(QuerySpec.join(ORDERS_JOIN))
    assert via_method.rows == via_spec.rows
    assert via_method.left_manifest_id == via_spec.left_manifest_id
    assert via_method.right_manifest_id == via_spec.right_manifest_id


def test_execute_many_rejects_joins_and_mixed_options(client):
    with pytest.raises(ValueError, match="joins"):
        client.execute_many([QuerySpec.join(ORDERS_JOIN)])
    with pytest.raises(ValueError, match="share"):
        client.execute_many(
            [QuerySpec(query=SALARY_RANGE), QuerySpec(query=SALARY_RANGE, verify=False)]
        )
    assert client.execute_many([]) == []

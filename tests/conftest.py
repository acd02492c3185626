"""Shared fixtures: a small hand-built database and scaled-down catalogs.

Everything is session-scoped and deterministic so the suite stays fast.
"""

from __future__ import annotations

import os

import pytest

from repro.catalog.schema import Column, Schema, Table
from repro.engine.database import Database
from repro.obs import EVENT_NAMES
from repro.query.template import QueryTemplate, join, range_predicate


def pytest_collection_modifyitems(config, items):
    """Keep multi-process cluster tests out of the tier-1 run.

    They spawn real worker processes and build catalog databases, so
    they run as their own CI job (``RUN_CLUSTER_TESTS=1``) instead of
    slowing every ``pytest`` invocation.
    """
    if os.environ.get("RUN_CLUSTER_TESTS") == "1":
        return
    skip = pytest.mark.skip(
        reason="cluster test: spawns processes; set RUN_CLUSTER_TESTS=1"
    )
    for item in items:
        if "cluster" in item.keywords:
            item.add_marker(skip)


def event_spans(obs, name: str = "") -> list:
    """The handle's retained event spans (``SpanRecorder.event``) whose
    name is, or starts with, ``name`` — oldest first."""
    return [
        s for s in obs.spans.spans()
        if s.name in EVENT_NAMES and s.name.startswith(name)
    ]


def build_toy_schema() -> Schema:
    """Two-table FK schema with indexes on predicate and join columns."""
    schema = Schema("toy")
    schema.add_table(Table(
        "orders",
        [
            Column("o_id", domain_size=10**6),
            Column("o_date", domain_size=1000),
            Column("o_cust", domain_size=1000),
            Column("o_amount", domain_size=5000, skew=0.7),
        ],
        row_count=20_000,
        primary_key="o_id",
    ))
    schema.add_table(Table(
        "cust",
        [
            Column("c_id", domain_size=10**6),
            Column("c_bal", domain_size=1000, skew=0.5),
        ],
        row_count=2_000,
        primary_key="c_id",
    ))
    schema.add_foreign_key("orders", "o_cust", "cust", "c_id")
    schema.add_index("orders", "o_date")
    schema.add_index("orders", "o_cust")
    schema.add_index("cust", "c_id")
    schema.add_index("cust", "c_bal")
    return schema


@pytest.fixture(scope="session")
def toy_db() -> Database:
    return Database.create(build_toy_schema(), seed=11)


@pytest.fixture(scope="session")
def toy_template() -> QueryTemplate:
    return QueryTemplate(
        name="toy_join",
        database="toy",
        tables=["orders", "cust"],
        joins=[join("orders", "o_cust", "cust", "c_id")],
        parameterized=[
            range_predicate("orders", "o_date", "<="),
            range_predicate("cust", "c_bal", "<="),
        ],
    )


@pytest.fixture(scope="session")
def toy_engine(toy_db, toy_template):
    return toy_db.engine(toy_template)


@pytest.fixture(scope="session")
def toy_single_table_template() -> QueryTemplate:
    return QueryTemplate(
        name="toy_scan",
        database="toy",
        tables=["orders"],
        parameterized=[range_predicate("orders", "o_amount", "<=")],
    )


@pytest.fixture(scope="session")
def tpch_db():
    from repro.catalog.registry import get_database

    return get_database("tpch", scale=0.2, seed=5)


@pytest.fixture(scope="session")
def tpcds_db():
    from repro.catalog.registry import get_database

    return get_database("tpcds", scale=0.2, seed=5)

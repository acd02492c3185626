"""repro — reproduction of "Leveraging Re-costing for Online Optimization
of Parameterized Queries with Guarantees" (Dutt, Narasayya, Chaudhuri;
SIGMOD 2017).

The package implements the paper's SCR online parametric-query-
optimization technique plus every substrate it depends on: a catalog
with synthetic benchmark databases, histogram-based selectivity
estimation, a memo-based cost-based optimizer with a Recost API, a
columnar executor, the prior online PQO techniques it compares
against, and the full evaluation harness.

Quickstart::

    from repro import Database, SCR, tpch_schema
    from repro.query import QueryTemplate, range_predicate, join
    from repro.workload import instances_for_template

    db = Database.create(tpch_schema(scale=0.5), seed=1)
    template = QueryTemplate(
        name="demo", database="tpch",
        tables=["orders", "lineitem"],
        joins=[join("lineitem", "l_orderkey", "orders", "o_orderkey")],
        parameterized=[range_predicate("orders", "o_totalprice", "<="),
                       range_predicate("lineitem", "l_quantity", "<=")],
    )
    scr = SCR(db.engine(template), lam=2.0)
    for instance in instances_for_template(template, 100):
        choice = scr.process(instance)
"""

from .catalog.realworld import rd1_schema, rd2_schema
from .catalog.registry import database_names, get_database
from .catalog.schema import Column, Schema, Table
from .catalog.tpcds import tpcds_schema
from .catalog.tpch import tpch_schema
from .core.scr import SCR
from .core.technique import OnlinePQOTechnique, PlanChoice
from .engine.database import Database
from .obs import Observability
from .serving.manager import ConcurrentPQOManager
from .query.instance import QueryInstance, SelectivityVector
from .query.template import QueryTemplate

__version__ = "1.0.0"

__all__ = [
    "Column",
    "ConcurrentPQOManager",
    "Database",
    "Observability",
    "OnlinePQOTechnique",
    "PlanChoice",
    "QueryInstance",
    "QueryTemplate",
    "SCR",
    "Schema",
    "SelectivityVector",
    "Table",
    "database_names",
    "get_database",
    "rd1_schema",
    "rd2_schema",
    "tpcds_schema",
    "tpch_schema",
]

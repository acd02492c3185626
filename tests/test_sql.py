"""Tests for the SQL front-end."""

import pytest

from repro.query.expressions import ColumnRef, ComparisonOp
from repro.query.sql import SqlParseError, parse_sql
from repro.query.template import AggregationKind


class TestParseBasics:
    def test_single_table_parameterized(self):
        t = parse_sql(
            "SELECT * FROM orders WHERE orders.o_amount <= ?",
            name="q", database="toy",
        )
        assert t.tables == ["orders"]
        assert t.dimensions == 1
        assert t.parameterized[0].op is ComparisonOp.LE
        assert t.aggregation is AggregationKind.NONE

    def test_join_and_mixed_predicates(self):
        t = parse_sql(
            """SELECT * FROM orders, cust
               WHERE orders.o_cust = cust.c_id
                 AND orders.o_date <= ?
                 AND cust.c_bal >= ?
                 AND orders.o_amount <= 100""",
            name="q", database="toy",
        )
        assert len(t.joins) == 1
        assert t.joins[0].left == ColumnRef("orders", "o_cust")
        assert t.dimensions == 2
        assert len(t.fixed) == 1
        assert t.fixed[0].value == 100.0

    def test_count_aggregate(self):
        t = parse_sql(
            "SELECT COUNT(*) FROM orders WHERE orders.o_date <= ?",
            name="q", database="toy",
        )
        assert t.aggregation is AggregationKind.COUNT

    def test_group_by(self):
        t = parse_sql(
            """SELECT * FROM orders, cust
               WHERE orders.o_cust = cust.c_id AND orders.o_date <= ?
               GROUP BY cust.c_bal""",
            name="q", database="toy",
        )
        assert t.aggregation is AggregationKind.GROUP_BY
        assert t.group_by == ColumnRef("cust", "c_bal")

    def test_order_by(self):
        t = parse_sql(
            "SELECT * FROM orders WHERE orders.o_date <= ? "
            "ORDER BY orders.o_amount",
            name="q", database="toy",
        )
        assert t.order_by == ColumnRef("orders", "o_amount")

    def test_strict_operators_folded(self):
        t = parse_sql(
            "SELECT * FROM orders WHERE orders.o_date < ? "
            "AND orders.o_amount > ?",
            name="q", database="toy",
        )
        assert t.parameterized[0].op is ComparisonOp.LE
        assert t.parameterized[1].op is ComparisonOp.GE

    def test_parameter_order_is_textual(self):
        t = parse_sql(
            """SELECT * FROM orders, cust
               WHERE orders.o_cust = cust.c_id
                 AND cust.c_bal <= ? AND orders.o_date >= ?""",
            name="q", database="toy",
        )
        assert t.parameterized[0].column.table == "cust"
        assert t.parameterized[1].column.table == "orders"

    def test_equality_parameter(self):
        t = parse_sql(
            "SELECT * FROM orders WHERE orders.o_cust = ?",
            name="q", database="toy",
        )
        assert t.parameterized[0].op is ComparisonOp.EQ


class TestParseErrors:
    def test_missing_from(self):
        with pytest.raises(SqlParseError, match="shape"):
            parse_sql("SELECT *", name="q", database="d")

    def test_unqualified_column(self):
        with pytest.raises(SqlParseError, match="qualified column"):
            parse_sql(
                "SELECT * FROM orders WHERE amount <= ?",
                name="q", database="d",
            )

    def test_unsupported_conjunct(self):
        with pytest.raises(SqlParseError, match="unsupported WHERE"):
            parse_sql(
                "SELECT * FROM orders WHERE orders.o_a LIKE 'x%'",
                name="q", database="d",
            )

    def test_subquery_in_from_rejected(self):
        with pytest.raises(SqlParseError, match="table list"):
            parse_sql(
                "SELECT * FROM (SELECT * FROM t) WHERE t.x <= ?",
                name="q", database="d",
            )

    def test_disconnected_join_graph_caught_by_template(self):
        with pytest.raises(ValueError, match="not connected"):
            parse_sql(
                "SELECT * FROM orders, cust WHERE orders.o_date <= ?",
                name="q", database="d",
            )


class TestEndToEnd:
    def test_parsed_template_optimizes(self, toy_db):
        t = parse_sql(
            """SELECT * FROM orders, cust
               WHERE orders.o_cust = cust.c_id
                 AND orders.o_date <= ? AND cust.c_bal <= ?""",
            name="sql_demo", database="toy",
        )
        engine = toy_db.engine(t)
        from repro.query.instance import SelectivityVector

        result = engine.optimize(SelectivityVector.of(0.1, 0.2))
        assert result.cost > 0

    def test_parsed_template_runs_under_scr(self, toy_db):
        from repro.core.scr import SCR
        from repro.workload.generator import instances_for_template

        t = parse_sql(
            "SELECT COUNT(*) FROM orders WHERE orders.o_amount <= ?",
            name="sql_scr", database="toy",
        )
        scr = SCR(toy_db.engine(t), lam=2.0)
        for inst in instances_for_template(t, 40, seed=3):
            scr.process(inst)
        assert scr.plans_cached >= 1

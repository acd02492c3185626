"""Tests for plan search, cardinality derivation and the memo."""

import pytest

from repro.optimizer.cardinality import CardinalityModel
from repro.optimizer.memo import Memo, MemoGroup
from repro.optimizer.operators import PhysicalOp
from repro.optimizer.optimizer import QueryOptimizer
from repro.optimizer.plans import PlanNode
from repro.query.instance import SelectivityVector
from repro.query.template import AggregationKind, QueryTemplate, join, range_predicate
from repro.query.expressions import ColumnRef


class TestCardinalityModel:
    @pytest.fixture()
    def model(self, toy_db, toy_template):
        return CardinalityModel(toy_template, toy_db.stats, toy_db.estimator)

    def test_base_cardinality_scales_with_selectivity(self, model, toy_db):
        rows = toy_db.stats.row_count("orders")
        sv = SelectivityVector.of(0.1, 1.0)
        assert model.base_info("orders").cardinality(sv) == pytest.approx(rows * 0.1)

    def test_unfiltered_table_full_cardinality(self, model, toy_db):
        sv = SelectivityVector.of(1.0, 0.01)
        assert model.base_info("orders").cardinality(sv) == pytest.approx(
            toy_db.stats.row_count("orders")
        )

    def test_fk_join_selectivity(self, model, toy_db, toy_template):
        edge = toy_template.joins[0]
        assert model.join_selectivity(edge) == pytest.approx(
            1.0 / toy_db.stats.row_count("cust")
        )

    def test_join_cardinality_fk_containment(self, model, toy_db, toy_template):
        # orders join cust on FK with full selectivities: every order
        # matches exactly one customer -> |orders|.
        sv = SelectivityVector.of(1.0, 1.0)
        left = model.base_info("orders").cardinality(sv)
        right = model.base_info("cust").cardinality(sv)
        card = model.join_cardinality(
            left, right, [model.join_selectivity(toy_template.joins[0])]
        )
        assert card == pytest.approx(toy_db.stats.row_count("orders"), rel=0.01)

    def test_group_count_capped_by_input(self, model):
        assert model.group_count("cust", "c_bal", 3.0) <= 3.0

    def test_cardinality_never_zero(self, model):
        sv = SelectivityVector.of(1e-6, 1e-6)
        assert model.base_info("orders").cardinality(sv) > 0


class TestMemo:
    def test_group_created_once(self):
        memo = Memo()
        g1 = memo.group(frozenset(["a"]))
        g2 = memo.group(frozenset(["a"]))
        assert g1 is g2
        assert memo.group_count == 1

    def test_offer_keeps_cheapest(self):
        group = MemoGroup(tables=frozenset(["a"]))
        cheap = PlanNode(op=PhysicalOp.SEQ_SCAN, table="a", cost=10.0)
        costly = PlanNode(op=PhysicalOp.SEQ_SCAN, table="a", cost=20.0)
        assert group.offer(None, costly)
        assert group.offer(None, cheap)
        assert not group.offer(None, costly)
        assert group.best(None).cost == 10.0

    def test_orders_tracked_separately(self):
        group = MemoGroup(tables=frozenset(["a"]))
        unordered = PlanNode(op=PhysicalOp.SEQ_SCAN, table="a", cost=10.0)
        ordered = PlanNode(op=PhysicalOp.INDEX_SCAN, table="a", cost=30.0)
        group.offer(None, unordered)
        group.offer("a.x", ordered)
        assert group.best("a.x").cost == 30.0
        # best(None) returns the cheapest across all orders.
        assert group.best(None).cost == 10.0

    def test_expression_count(self):
        group = MemoGroup(tables=frozenset(["a"]))
        node = PlanNode(op=PhysicalOp.SEQ_SCAN, table="a", cost=1.0)
        group.offer(None, node)
        group.offer(None, node)
        assert group.expressions_considered == 2


class TestPlanSearch:
    def test_single_table_template(self, toy_db, toy_single_table_template):
        opt = QueryOptimizer(toy_single_table_template, toy_db.stats,
                             toy_db.estimator, toy_db.cost_model)
        result = opt.optimize(SelectivityVector.of(0.5))
        assert result.plan.root.op in (PhysicalOp.SEQ_SCAN, PhysicalOp.INDEX_SCAN)
        assert result.cost > 0

    def test_join_produces_two_scans(self, toy_engine):
        result = toy_engine.optimize(SelectivityVector.of(0.3, 0.3))
        ops = result.plan.operators()
        scans = [op for op in ops if op.is_scan]
        assert len(scans) == 2
        joins = [op for op in ops if op.is_join]
        assert len(joins) == 1

    def test_plan_diversity_across_space(self, toy_engine):
        corners = [
            SelectivityVector.of(0.001, 0.001),
            SelectivityVector.of(0.9, 0.9),
            SelectivityVector.of(0.005, 0.9),
            SelectivityVector.of(0.9, 0.005),
        ]
        signatures = {toy_engine.optimize(sv).plan.signature() for sv in corners}
        assert len(signatures) >= 3

    def test_optimal_cost_monotone_samples(self, toy_engine):
        # Optimal cost should not decrease when all selectivities grow.
        costs = [
            toy_engine.optimize(SelectivityVector.of(s, s)).cost
            for s in (0.01, 0.1, 0.5, 1.0)
        ]
        assert all(a <= b * 1.001 for a, b in zip(costs, costs[1:]))

    def test_optimal_beats_recosted_alternatives(self, toy_engine):
        """DP optimality: the winner costs no more than any other
        instance's optimal plan re-costed here."""
        points = [
            SelectivityVector.of(0.001, 0.01),
            SelectivityVector.of(0.6, 0.8),
            SelectivityVector.of(0.01, 0.9),
        ]
        results = [toy_engine.optimize(sv) for sv in points]
        for i, sv in enumerate(points):
            best = results[i].cost
            for j, other in enumerate(results):
                alt = toy_engine.recost(other.shrunken_memo, sv)
                assert best <= alt * (1 + 1e-9)

    def test_aggregate_on_top(self, toy_db):
        template = QueryTemplate(
            name="toy_agg", database="toy", tables=["orders", "cust"],
            joins=[join("orders", "o_cust", "cust", "c_id")],
            parameterized=[range_predicate("orders", "o_date", "<=")],
            aggregation=AggregationKind.GROUP_BY,
            group_by=ColumnRef("cust", "c_bal"),
        )
        engine = toy_db.engine(template)
        result = engine.optimize(SelectivityVector.of(0.5))
        assert result.plan.root.op in (
            PhysicalOp.HASH_AGGREGATE, PhysicalOp.STREAM_AGGREGATE
        )

    def test_count_aggregate_cardinality_one(self, toy_db):
        template = QueryTemplate(
            name="toy_count", database="toy", tables=["orders"],
            parameterized=[range_predicate("orders", "o_amount", "<=")],
            aggregation=AggregationKind.COUNT,
        )
        engine = toy_db.engine(template)
        result = engine.optimize(SelectivityVector.of(0.3))
        assert result.plan.root.op is PhysicalOp.SCALAR_AGGREGATE
        assert result.plan.cardinality == pytest.approx(1.0)

    def test_order_by_forces_sort_or_order(self, toy_db):
        template = QueryTemplate(
            name="toy_sorted", database="toy", tables=["orders"],
            parameterized=[range_predicate("orders", "o_amount", "<=")],
            order_by=ColumnRef("orders", "o_date"),
        )
        engine = toy_db.engine(template)
        result = engine.optimize(SelectivityVector.of(0.5))
        ops = result.plan.operators()
        # Either an explicit sort or an index scan on o_date delivers order.
        has_sort = PhysicalOp.SORT in ops
        has_ordered_scan = any(
            n.op is PhysicalOp.INDEX_SCAN and n.index_column == "o_date"
            for n in result.plan.root.nodes()
        )
        assert has_sort or has_ordered_scan

    def test_memo_statistics_populated(self, toy_engine):
        result = toy_engine.optimize(SelectivityVector.of(0.2, 0.2))
        assert result.memo_groups >= 3          # 2 base + 1 join group
        assert result.memo_expressions > result.memo_groups
        assert result.shrunken_memo.node_count < result.memo_expressions

    def test_template_mismatch_rejected(self, toy_engine, toy_db,
                                        toy_single_table_template):
        other = QueryOptimizer(toy_single_table_template, toy_db.stats,
                               toy_db.estimator, toy_db.cost_model)
        result = other.optimize(SelectivityVector.of(0.5))
        with pytest.raises(ValueError, match="template"):
            toy_engine.optimizer.recost(
                result.shrunken_memo, SelectivityVector.of(0.5, 0.5)
            )


class TestFiveWayJoin:
    def test_tpch_five_way(self, tpch_db):
        from repro.workload.templates import tpch_templates

        template = next(
            t for t in tpch_templates() if t.name == "tpch_local_supplier"
        )
        engine = tpch_db.engine(template)
        result = engine.optimize(SelectivityVector.of(0.1, 0.2))
        scans = [op for op in result.plan.operators() if op.is_scan]
        # Five relations -> five leaf accesses (INLJ folds its inner leaf,
        # which still appears as an IndexScan child).
        assert len(scans) == 5
        joins = [op for op in result.plan.operators() if op.is_join]
        assert len(joins) == 4

"""Cross-validation of the two executors.

The Volcano-style iterator executor (``tests/reference_executor.py``)
and the vectorized columnar executor the package ships are
independent implementations of the same plan semantics;
for any plan and instance they must agree on the result cardinality,
which must also equal the plan-independent reference evaluation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.executor.engine import PlanExecutor, reference_row_count
from repro.query.instance import QueryInstance, SelectivityVector
from repro.query.template import AggregationKind, QueryTemplate, join, range_predicate
from repro.query.expressions import ColumnRef

from reference_executor import IteratorExecutor

sel = st.floats(min_value=0.01, max_value=1.0)


def make_instance(db, template, sv: SelectivityVector) -> QueryInstance:
    params = db.estimator.parameters_for_selectivities(template, sv)
    return QueryInstance(template.name, parameters=params, sv=sv)


class TestCrossValidation:
    def test_join_counts_agree(self, toy_db, toy_template, toy_engine):
        columnar = PlanExecutor(toy_db.data, toy_template)
        volcano = IteratorExecutor(toy_db.data, toy_template)
        inst = make_instance(toy_db, toy_template, SelectivityVector.of(0.2, 0.3))
        plan = toy_engine.optimize(inst.selectivities).plan
        a = columnar.execute(plan, inst).row_count
        b = volcano.execute_count(plan, inst)
        c = reference_row_count(toy_db.data, toy_template, inst)
        assert a == b == c

    @settings(max_examples=15, deadline=None)
    @given(s1=sel, s2=sel)
    def test_property_executors_agree(self, toy_db, toy_template, toy_engine,
                                      s1, s2):
        inst = make_instance(toy_db, toy_template, SelectivityVector.of(s1, s2))
        plan = toy_engine.optimize(inst.selectivities).plan
        columnar = PlanExecutor(toy_db.data, toy_template)
        volcano = IteratorExecutor(toy_db.data, toy_template)
        assert (columnar.execute(plan, inst).row_count
                == volcano.execute_count(plan, inst))

    def test_every_plan_shape_agrees(self, toy_db, toy_template, toy_engine):
        """Drive all four optimal plans from the corners through both
        executors at a common instance."""
        inst = make_instance(toy_db, toy_template, SelectivityVector.of(0.3, 0.4))
        expected = reference_row_count(toy_db.data, toy_template, inst)
        columnar = PlanExecutor(toy_db.data, toy_template)
        volcano = IteratorExecutor(toy_db.data, toy_template)
        for corner in (
            SelectivityVector.of(0.001, 0.001),
            SelectivityVector.of(0.9, 0.9),
            SelectivityVector.of(0.005, 0.9),
            SelectivityVector.of(0.9, 0.005),
        ):
            plan = toy_engine.optimize(corner).plan
            assert columnar.execute(plan, inst).row_count == expected
            assert volcano.execute_count(plan, inst) == expected


class TestAggregates:
    def test_count_agrees(self, toy_db):
        template = QueryTemplate(
            name="iter_count", database="toy", tables=["orders"],
            parameterized=[range_predicate("orders", "o_amount", "<=")],
            aggregation=AggregationKind.COUNT,
        )
        engine = toy_db.engine(template)
        inst = make_instance(toy_db, template, SelectivityVector.of(0.4))
        plan = engine.optimize(inst.selectivities).plan
        columnar = PlanExecutor(toy_db.data, template)
        volcano = IteratorExecutor(toy_db.data, template)
        assert (columnar.execute(plan, inst).row_count
                == volcano.execute_count(plan, inst))

    def test_group_by_agrees(self, toy_db):
        template = QueryTemplate(
            name="iter_group", database="toy", tables=["orders", "cust"],
            joins=[join("orders", "o_cust", "cust", "c_id")],
            parameterized=[range_predicate("orders", "o_amount", "<=")],
            aggregation=AggregationKind.GROUP_BY,
            group_by=ColumnRef("cust", "c_bal"),
        )
        engine = toy_db.engine(template)
        inst = make_instance(toy_db, template, SelectivityVector.of(0.5))
        plan = engine.optimize(inst.selectivities).plan
        columnar = PlanExecutor(toy_db.data, template)
        volcano = IteratorExecutor(toy_db.data, template)
        assert (columnar.execute(plan, inst).row_count
                == volcano.execute_count(plan, inst))

    def test_sorted_output_agrees(self, toy_db):
        template = QueryTemplate(
            name="iter_sorted", database="toy", tables=["orders"],
            parameterized=[range_predicate("orders", "o_amount", "<=")],
            order_by=ColumnRef("orders", "o_date"),
        )
        engine = toy_db.engine(template)
        inst = make_instance(toy_db, template, SelectivityVector.of(0.3))
        plan = engine.optimize(inst.selectivities).plan
        columnar = PlanExecutor(toy_db.data, template)
        volcano = IteratorExecutor(toy_db.data, template)
        assert (columnar.execute(plan, inst).row_count
                == volcano.execute_count(plan, inst))


class TestIteratorSemantics:
    def test_index_scan_yields_sorted_rows(self, toy_db, toy_template,
                                           toy_engine):
        from reference_executor import ScanIterator
        from repro.optimizer.operators import PhysicalOp
        from repro.optimizer.plans import PlanNode

        inst = make_instance(toy_db, toy_template, SelectivityVector.of(0.3, 1.0))
        node = PlanNode(op=PhysicalOp.INDEX_SCAN, table="orders",
                        index_column="o_date")
        scan = ScanIterator(toy_db.data, toy_template, inst, node)
        dates = [row["orders.o_date"] for row in scan.rows()]
        assert dates == sorted(dates)

    def test_requires_parameters(self, toy_db, toy_template, toy_engine):
        volcano = IteratorExecutor(toy_db.data, toy_template)
        plan = toy_engine.optimize(SelectivityVector.of(0.5, 0.5)).plan
        with pytest.raises(ValueError, match="parameters"):
            volcano.execute_count(
                plan, QueryInstance("t", sv=SelectivityVector.of(0.5, 0.5))
            )

    def test_tpch_template_small_instances(self, tpch_db):
        from repro.workload.templates import tpch_templates

        template = next(
            t for t in tpch_templates() if t.name == "tpch_promotion_effect"
        )
        engine = tpch_db.engine(template)
        columnar = PlanExecutor(tpch_db.data, template)
        volcano = IteratorExecutor(tpch_db.data, template)
        inst = make_instance(
            tpch_db, template, SelectivityVector.of(0.02, 0.05, 0.1)
        )
        plan = engine.optimize(inst.selectivities).plan
        assert (columnar.execute(plan, inst).row_count
                == volcano.execute_count(plan, inst))

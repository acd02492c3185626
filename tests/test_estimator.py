"""Tests for histogram-backed selectivity estimation and inversion."""

import pytest

from repro.optimizer.cardinality import CardinalityModel
from repro.query.expressions import ColumnRef, ComparisonOp, FixedPredicate
from repro.query.instance import QueryInstance, SelectivityVector
from repro.query.template import QueryTemplate, range_predicate


@pytest.fixture()
def estimator(toy_db):
    return toy_db.estimator


@pytest.fixture(scope="module")
def template():
    from repro.query.template import join

    return QueryTemplate(
        name="q", database="toy", tables=["orders", "cust"],
        joins=[join("orders", "o_cust", "cust", "c_id")],
        parameterized=[
            range_predicate("orders", "o_date", "<="),
            range_predicate("cust", "c_bal", ">="),
        ],
    )


class TestPredicateSelectivity:
    def test_le_matches_data(self, toy_db, estimator):
        pred = range_predicate("orders", "o_date", "<=")
        values = toy_db.data.table("orders").column("o_date")
        for v in (100, 500, 900):
            true = (values <= v).mean()
            assert estimator.predicate_selectivity(pred, v) == pytest.approx(
                true, abs=0.03
            )

    def test_ge_matches_data(self, toy_db, estimator):
        pred = range_predicate("cust", "c_bal", ">=")
        values = toy_db.data.table("cust").column("c_bal")
        for v in (50, 300):
            true = (values >= v).mean()
            assert estimator.predicate_selectivity(pred, v) == pytest.approx(
                true, abs=0.05
            )

    def test_fixed_predicate_uses_embedded_value(self, toy_db, estimator):
        fixed = FixedPredicate(ColumnRef("orders", "o_date"), ComparisonOp.LE, 500)
        values = toy_db.data.table("orders").column("o_date")
        true = (values <= 500).mean()
        assert estimator.predicate_selectivity(fixed) == pytest.approx(true, abs=0.03)

    def test_parameterized_requires_value(self, estimator):
        pred = range_predicate("orders", "o_date", "<=")
        with pytest.raises(ValueError, match="bound value"):
            estimator.predicate_selectivity(pred)


class TestSelectivityVectorApi:
    def test_from_parameters(self, estimator, template):
        inst = QueryInstance("q", parameters=(500.0, 100.0))
        sv = estimator.selectivity_vector(template, inst)
        assert len(sv) == 2
        assert all(0 < s <= 1 for s in sv)

    def test_passthrough_when_no_parameters(self, estimator, template):
        sv0 = SelectivityVector.of(0.3, 0.4)
        inst = QueryInstance("q", sv=sv0)
        assert estimator.selectivity_vector(template, inst) == sv0

    def test_neither_rejected(self, estimator, template):
        with pytest.raises(ValueError, match="neither"):
            estimator.selectivity_vector(template, QueryInstance("q"))

    def test_wrong_arity_rejected(self, estimator, template):
        inst = QueryInstance("q", parameters=(1.0,))
        with pytest.raises(ValueError, match="parameters"):
            estimator.selectivity_vector(template, inst)


class TestInversion:
    def test_roundtrip(self, estimator, template):
        targets = SelectivityVector.of(0.2, 0.6)
        params = estimator.parameters_for_selectivities(template, targets)
        inst = QueryInstance("q", parameters=params)
        sv = estimator.selectivity_vector(template, inst)
        assert sv[0] == pytest.approx(0.2, abs=0.05)
        assert sv[1] == pytest.approx(0.6, abs=0.08)

    def test_dimension_mismatch(self, estimator, template):
        with pytest.raises(ValueError, match="dimension"):
            estimator.parameters_for_selectivities(
                template, SelectivityVector.of(0.5)
            )


class TestTableFilterSelectivity:
    """A table's combined filter selectivity, as the optimizer's
    cardinality model folds it from the estimator's predicates."""

    @staticmethod
    def table_filter(toy_db, template, table, sv):
        model = CardinalityModel(template, toy_db.stats, toy_db.estimator)
        info = model.base_info(table)
        return info.cardinality(sv) / info.rows

    def test_multiplies_parameterized(self, toy_db, template):
        sv = SelectivityVector.of(0.25, 0.5)
        # orders has only the first predicate, cust only the second.
        assert self.table_filter(toy_db, template, "orders", sv) == (
            pytest.approx(0.25)
        )
        assert self.table_filter(toy_db, template, "cust", sv) == (
            pytest.approx(0.5)
        )

    def test_table_without_predicates_is_one(self, toy_db):
        template = QueryTemplate(
            name="q1", database="toy", tables=["orders"],
        )
        sv = SelectivityVector.of()
        assert self.table_filter(toy_db, template, "orders", sv) == (
            pytest.approx(1.0)
        )

"""Tests for the oracle, runner and reporting."""

import pytest

from repro.core.scr import SCR
from repro.baselines import OptimizeAlways, OptimizeOnce
from repro.harness.oracle import Oracle
from repro.harness.reporting import format_series, format_table, percent
from repro.harness.runner import SequenceSpec, WorkloadRunner, run_sequence
from repro.query.instance import QueryInstance, SelectivityVector
from repro.workload.generator import instances_for_template
from repro.workload.orderings import Ordering


class TestOracle:
    def test_optimal_is_memoized(self, toy_db, toy_template):
        oracle = Oracle(toy_db, toy_template)
        sv = SelectivityVector.of(0.2, 0.2)
        a = oracle.optimal(sv)
        b = oracle.optimal(sv)
        assert a is b
        assert oracle.optimizer_calls == 1

    def test_annotate(self, toy_db, toy_template):
        oracle = Oracle(toy_db, toy_template)
        instances = instances_for_template(toy_template, 10, seed=1)
        costs, sigs = oracle.annotate(instances)
        assert len(costs) == 10 and len(sigs) == 10
        assert all(c > 0 for c in costs)

    def test_distinct_plans_seen(self, toy_db, toy_template):
        # The plan-aware orderings read each instance's optimal plan off
        # annotate(); opposite corners of the toy space differ.
        oracle = Oracle(toy_db, toy_template)
        _, signatures = oracle.annotate([
            QueryInstance(toy_template.name, sv=SelectivityVector.of(s, s))
            for s in (0.001, 0.9)
        ])
        assert len(set(signatures)) == 2

    def test_plan_cost_uncounted(self, toy_db, toy_template):
        oracle = Oracle(toy_db, toy_template)
        point = oracle.optimal(SelectivityVector.of(0.2, 0.2))
        calls = oracle.optimizer_calls
        oracle.plan_cost(point.shrunken_memo, SelectivityVector.of(0.3, 0.3))
        assert oracle.optimizer_calls == calls


class TestRunSequence:
    def test_optimize_always_is_exactly_optimal(self, toy_db, toy_template):
        instances = instances_for_template(toy_template, 40, seed=2)
        result = run_sequence(toy_db, toy_template, instances, OptimizeAlways)
        assert result.mso == pytest.approx(1.0)
        assert result.total_cost_ratio == pytest.approx(1.0)
        assert result.num_opt == 40

    def test_optimize_once_single_call(self, toy_db, toy_template):
        instances = instances_for_template(toy_template, 40, seed=2)
        result = run_sequence(toy_db, toy_template, instances, OptimizeOnce)
        assert result.num_opt == 1
        assert result.num_plans == 1
        assert result.mso >= 1.0

    def test_scr_records_checks(self, toy_db, toy_template):
        instances = instances_for_template(toy_template, 60, seed=2)
        result = run_sequence(
            toy_db, toy_template, instances, lambda e: SCR(e, lam=2.0), lam=2.0
        )
        checks = {r.check for r in result.records}
        assert "optimizer" in checks
        assert "selectivity" in checks or "cost" in checks
        assert result.lam == 2.0


class TestWorkloadRunner:
    @pytest.fixture(scope="class")
    def runner(self):
        return WorkloadRunner(db_scale=0.2)

    @pytest.fixture(scope="class")
    def template(self):
        from repro.workload.templates import tpch_templates

        return next(t for t in tpch_templates() if t.dimensions == 2)

    def test_instances_cached(self, runner, template):
        a = runner.base_instances(template, 20, seed=0)
        b = runner.base_instances(template, 20, seed=0)
        assert a is b

    def test_oracle_shared(self, runner, template):
        assert runner.oracle(template) is runner.oracle(template)

    def test_orderings_are_permutations(self, runner, template):
        base = runner.base_instances(template, 30, seed=0)
        for ordering in Ordering:
            spec = SequenceSpec(template=template, m=30, ordering=ordering)
            ordered = runner.ordered_instances(spec)
            assert len(ordered) == 30
            assert {i.sv for i in ordered} == {i.sv for i in base}

    def test_decreasing_cost_order_verified(self, runner, template):
        spec = SequenceSpec(
            template=template, m=30, ordering=Ordering.DECREASING_COST
        )
        ordered = runner.ordered_instances(spec)
        oracle = runner.oracle(template)
        costs = [oracle.optimal(i.selectivities).optimal_cost for i in ordered]
        assert all(a >= b - 1e-9 for a, b in zip(costs, costs[1:]))

    def test_run_returns_labelled_result(self, runner, template):
        spec = SequenceSpec(template=template, m=25, ordering=Ordering.RANDOM)
        result = runner.run(spec, lambda e: SCR(e, lam=2.0), lam=2.0)
        assert result.technique == "SCR2"
        assert result.ordering == "random"
        assert result.m == 25


class TestReporting:
    def test_format_table_aligns(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.123}]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="T")

    def test_format_series(self):
        text = format_series("s", [1, 2], [0.5, 0.25])
        assert "1: 0.50" in text

    def test_percent(self):
        assert percent(12.345) == "12.3%"

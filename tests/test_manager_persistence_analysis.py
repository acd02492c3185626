"""Tests for the PQO manager, cache persistence and plan-diagram tools."""

import pytest

from repro.analysis.plan_diagram import anorexic_reduction, compute_plan_diagram
from repro.core.dynamic_lambda import choose_lambda
from repro.core.persistence import CacheSnapshot, dump_cache, load_cache
from repro.core.scr import SCR
from repro.engine.api import EngineAPI
from repro.query.instance import QueryInstance, SelectivityVector
from repro.query.template import QueryTemplate, range_predicate
from repro.serving import ConcurrentPQOManager
from repro.workload.generator import instances_for_template


class TestChooseLambda:
    def test_trivial_optimization_gets_tight_lambda(self):
        assert choose_lambda(0.0001, 1_000_000) == pytest.approx(1.1, abs=0.01)

    def test_dominant_optimization_gets_loose_lambda(self):
        assert choose_lambda(10.0, 100.0) == pytest.approx(2.0)

    def test_zero_cost_defaults_loose(self):
        assert choose_lambda(0.1, 0.0) == 2.0

    def test_monotone_in_ratio(self):
        values = [choose_lambda(t, 50_000.0) for t in (0.0, 0.3, 0.6, 1.0, 5.0)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestPQOManager:
    @pytest.fixture()
    def second_template(self):
        return QueryTemplate(
            name="toy_scan2",
            database="toy",
            tables=["orders"],
            parameterized=[range_predicate("orders", "o_amount", "<=")],
        )

    def test_register_and_route(self, toy_db, toy_template, second_template):
        manager = ConcurrentPQOManager(database=toy_db)
        manager.register(toy_template)
        manager.register(second_template)
        choice = manager.process(QueryInstance(
            toy_template.name, sv=SelectivityVector.of(0.2, 0.2)))
        assert choice.used_optimizer
        choice2 = manager.process(QueryInstance(
            second_template.name, sv=SelectivityVector.of(0.3)))
        assert choice2.used_optimizer
        assert manager.total_optimizer_calls == 2

    def test_register_returns_the_shard(self, toy_db, toy_template):
        manager = ConcurrentPQOManager(database=toy_db)
        shard = manager.register(toy_template, lam=1.5)
        assert manager.shard(toy_template.name) is shard
        assert shard.template is toy_template
        assert shard.scr.lam == 1.5
        assert (shard.budget, shard.instances_seen, shard.quarantined) == (
            None, 0, False
        )

    def test_process_serves_on_the_calling_thread(self, toy_db, toy_template):
        """The serial path: process() never starts a pool thread."""
        manager = ConcurrentPQOManager(database=toy_db)
        manager.register(toy_template)
        for inst in instances_for_template(toy_template, 10, seed=2):
            manager.process(inst)
        assert manager.shard(toy_template.name).instances_seen == 10
        assert manager._executor._threads == set()
        manager.close()

    def test_duplicate_registration_rejected(self, toy_db, toy_template):
        manager = ConcurrentPQOManager(database=toy_db)
        manager.register(toy_template)
        with pytest.raises(ValueError, match="already registered"):
            manager.register(toy_template)

    def test_unknown_template_rejected(self, toy_db):
        manager = ConcurrentPQOManager(database=toy_db)
        with pytest.raises(KeyError, match="not registered"):
            manager.process(QueryInstance("ghost", sv=SelectivityVector.of(0.5)))

    def test_global_budget_enforced(self, toy_db, toy_template, second_template):
        manager = ConcurrentPQOManager(
            database=toy_db, global_plan_budget=4, rebalance_every=20,
        )
        manager.register(toy_template, lambda_r=1.0)
        manager.register(second_template, lambda_r=1.0)
        for inst in instances_for_template(toy_template, 60, seed=3):
            manager.process(QueryInstance(toy_template.name, sv=inst.sv))
        for inst in instances_for_template(second_template, 60, seed=4):
            manager.process(QueryInstance(second_template.name, sv=inst.sv))
        assert manager.total_plans_cached <= 4

    def test_budget_shares_sum_within_global(self, toy_db, toy_template,
                                             second_template):
        manager = ConcurrentPQOManager(
            database=toy_db, global_plan_budget=5, rebalance_every=10,
        )
        manager.register(toy_template)
        manager.register(second_template)
        for inst in instances_for_template(toy_template, 40, seed=5):
            manager.process(QueryInstance(toy_template.name, sv=inst.sv))
        shares = [
            manager.shard(t).budget
            for t in (toy_template.name, second_template.name)
        ]
        assert all(s >= 1 for s in shares)
        assert sum(shares) <= 5

    def test_report_rows(self, toy_db, toy_template):
        manager = ConcurrentPQOManager(database=toy_db)
        manager.register(toy_template, lam=1.5)
        manager.process(QueryInstance(
            toy_template.name, sv=SelectivityVector.of(0.2, 0.2)))
        rows = manager.report()
        assert rows[0]["template"] == toy_template.name
        assert rows[0]["instances"] == 1
        assert rows[0]["lambda"] == 1.5


class TestPersistence:
    def _populated_cache(self, toy_db, toy_template):
        from repro.optimizer.optimizer import QueryOptimizer

        optimizer = QueryOptimizer(
            toy_template, toy_db.stats, toy_db.estimator, toy_db.cost_model
        )
        engine = EngineAPI(toy_template, optimizer, toy_db.estimator)
        scr = SCR(engine, lam=2.0)
        for inst in instances_for_template(toy_template, 80, seed=7):
            scr.process(inst)
        return scr.cache, engine

    def test_round_trip_preserves_structure(self, toy_db, toy_template):
        cache, _ = self._populated_cache(toy_db, toy_template)
        restored = load_cache(dump_cache(cache))
        assert restored.num_plans == cache.num_plans
        assert restored.num_instances == cache.num_instances
        assert {p.signature for p in restored.plans()} == {
            p.signature for p in cache.plans()
        }

    def test_round_trip_preserves_recost_semantics(self, toy_db, toy_template):
        cache, engine = self._populated_cache(toy_db, toy_template)
        restored = load_cache(dump_cache(cache))
        sv = SelectivityVector.of(0.17, 0.23)
        for original in cache.plans():
            twin = restored.find_plan(original.signature)
            assert twin is not None
            a = engine.recost(original.shrunken_memo, sv)
            b = engine.recost(twin.shrunken_memo, sv)
            assert a == pytest.approx(b, rel=1e-12)

    def test_round_trip_preserves_instance_tuples(self, toy_db, toy_template):
        cache, _ = self._populated_cache(toy_db, toy_template)
        restored = load_cache(dump_cache(cache))
        originals = sorted(cache.instances(), key=lambda e: tuple(e.sv))
        restoreds = sorted(restored.instances(), key=lambda e: tuple(e.sv))
        for a, b in zip(originals, restoreds):
            assert a.sv == b.sv
            assert a.optimal_cost == pytest.approx(b.optimal_cost)
            assert a.suboptimality == pytest.approx(b.suboptimality)
            assert a.usage == b.usage

    def test_version_check(self):
        with pytest.raises(ValueError, match="version"):
            load_cache('{"version": 99}')

    def test_file_snapshot(self, toy_db, toy_template, tmp_path):
        cache, _ = self._populated_cache(toy_db, toy_template)
        snapshot = CacheSnapshot(str(tmp_path / "cache.json"))
        size = snapshot.save(cache)
        assert size > 0
        restored = snapshot.load()
        assert restored.num_plans == cache.num_plans

    def test_restored_cache_usable_by_scr(self, toy_db, toy_template):
        """A warm restart: SCR resumes with the restored cache and reuses
        its plans without new optimizer calls for covered instances."""
        from repro.optimizer.optimizer import QueryOptimizer

        cache, _ = self._populated_cache(toy_db, toy_template)
        restored = load_cache(dump_cache(cache))

        optimizer = QueryOptimizer(
            toy_template, toy_db.stats, toy_db.estimator, toy_db.cost_model
        )
        engine = EngineAPI(toy_template, optimizer, toy_db.estimator)
        scr = SCR(engine, lam=2.0)
        scr.cache = restored
        scr.get_plan.cache = restored
        scr.manage_cache.cache = restored
        anchor = next(restored.instances())
        choice = scr.process(QueryInstance(toy_template.name, sv=anchor.sv))
        assert not choice.used_optimizer


class TestPlanDiagram:
    @pytest.fixture(scope="class")
    def engine(self, toy_db, toy_template):
        from repro.optimizer.optimizer import QueryOptimizer

        optimizer = QueryOptimizer(
            toy_template, toy_db.stats, toy_db.estimator, toy_db.cost_model
        )
        return EngineAPI(toy_template, optimizer, toy_db.estimator)

    @pytest.fixture(scope="class")
    def diagram(self, engine):
        return compute_plan_diagram(engine, grid_size=10)

    def test_requires_2d(self, toy_db, toy_single_table_template):
        engine = toy_db.engine(toy_single_table_template)
        with pytest.raises(ValueError, match="2-d"):
            compute_plan_diagram(engine, grid_size=4)

    def test_diagram_has_multiple_plans(self, diagram):
        assert diagram.plan_count >= 3
        assert diagram.cells.shape == (10, 10)
        assert (diagram.costs > 0).all()

    def test_plan_areas_sum_to_grid(self, diagram):
        assert sum(diagram.plan_areas().values()) == 100

    def test_ascii_render_shape(self, diagram):
        text = diagram.render_ascii()
        lines = text.splitlines()
        assert len(lines) == 10
        assert all(len(line) == 10 for line in lines)

    def test_anorexic_reduction_shrinks(self, diagram, engine):
        result = anorexic_reduction(diagram, engine, lam=1.5)
        assert result.plans_after <= result.plans_before
        assert result.max_cost_increase <= 1.5 * (1 + 1e-9)
        # The reduced diagram still covers every cell.
        assert result.diagram.cells.shape == diagram.cells.shape

    def test_reduction_lambda_one_is_lossless(self, diagram, engine):
        """λ = 1 permits only zero-cost-increase merges (exact ties)."""
        result = anorexic_reduction(diagram, engine, lam=1.0)
        assert result.plans_after <= result.plans_before
        assert result.max_cost_increase == pytest.approx(1.0)

    def test_reduction_validates_lambda(self, diagram, engine):
        with pytest.raises(ValueError):
            anorexic_reduction(diagram, engine, lam=0.9)

    def test_larger_lambda_reduces_at_least_as_much(self, diagram, engine):
        tight = anorexic_reduction(diagram, engine, lam=1.2)
        loose = anorexic_reduction(diagram, engine, lam=2.0)
        assert loose.plans_after <= tight.plans_after

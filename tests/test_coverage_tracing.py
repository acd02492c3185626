"""Tests for cache-coverage analysis and the wired-in decision record
(the returned ``PlanChoice`` and the ``engine.*`` spans)."""

import pytest

from repro.core.coverage import sample_coverage
from repro.core.scr import SCR
from repro.engine.api import EngineAPI
from repro.obs import Observability
from repro.query.instance import QueryInstance, SelectivityVector
from repro.workload.generator import instances_for_template


def fresh_engine(db, template) -> EngineAPI:
    from repro.optimizer.optimizer import QueryOptimizer

    optimizer = QueryOptimizer(template, db.stats, db.estimator, db.cost_model)
    return EngineAPI(template, optimizer, db.estimator)


class TestCoverage:
    @pytest.fixture()
    def warmed(self, toy_db, toy_template):
        engine = fresh_engine(toy_db, toy_template)
        scr = SCR(engine, lam=2.0)
        for inst in instances_for_template(toy_template, 150, seed=101):
            scr.process(inst)
        return scr, engine

    def test_empty_cache_zero_coverage(self, toy_db, toy_template):
        from repro.core.plan_cache import PlanCache

        report = sample_coverage(PlanCache(), lam=2.0, dimensions=2,
                                 samples=50, seed=1)
        assert report.selectivity_coverage == 0.0
        assert report.total_coverage == 0.0

    def test_warm_cache_has_positive_coverage(self, warmed):
        scr, engine = warmed
        report = sample_coverage(
            scr.cache, lam=2.0, dimensions=2, samples=200, seed=2,
            recost=engine.recost,
        )
        assert report.selectivity_coverage > 0.0
        assert report.total_coverage >= report.selectivity_coverage
        assert report.total_coverage <= 1.0

    def test_coverage_grows_with_lambda(self, warmed):
        scr, engine = warmed
        tight = sample_coverage(scr.cache, lam=1.1, dimensions=2,
                                samples=200, seed=3)
        loose = sample_coverage(scr.cache, lam=3.0, dimensions=2,
                                samples=200, seed=3)
        assert loose.selectivity_coverage >= tight.selectivity_coverage

    def test_cost_check_extends_coverage(self, warmed):
        """Recost-based coverage strictly contains selectivity coverage
        whenever BCG slack exists (section 5.3's extra opportunities)."""
        scr, engine = warmed
        without = sample_coverage(scr.cache, lam=2.0, dimensions=2,
                                  samples=300, seed=4)
        with_recost = sample_coverage(scr.cache, lam=2.0, dimensions=2,
                                      samples=300, seed=4,
                                      recost=engine.recost)
        assert with_recost.total_coverage >= without.total_coverage
        assert with_recost.cost_check_hits > 0

    def test_dimension_mismatch_rejected(self, warmed):
        scr, _ = warmed
        with pytest.raises(ValueError, match="dimensions"):
            sample_coverage(scr.cache, lam=2.0, dimensions=3, samples=10)

    def test_invalid_lambda(self, warmed):
        scr, _ = warmed
        with pytest.raises(ValueError, match="lambda"):
            sample_coverage(scr.cache, lam=0.5, dimensions=2, samples=10)


class TestWiredTracing:
    def test_scr_records_decisions(self, toy_db, toy_template):
        scr = SCR(fresh_engine(toy_db, toy_template), lam=2.0)
        decisions = [
            scr.process(QueryInstance("t", sv=SelectivityVector.of(0.2, 0.2))),
            scr.process(QueryInstance("t", sv=SelectivityVector.of(0.21, 0.2))),
        ]
        assert decisions[0].check == "optimizer"
        assert decisions[1].check in ("selectivity", "cost")
        # Reuse decisions carry the certified bound.
        assert decisions[1].certified_bound is not None
        assert decisions[1].certified_bound <= 2.0

    def test_engine_records_api_calls(self, toy_db, toy_template):
        obs = Observability()
        engine = fresh_engine(toy_db, toy_template)
        SCR(engine, obs=obs)  # instruments the engine
        result = engine.optimize(SelectivityVector.of(0.3, 0.3))
        engine.recost(result.shrunken_memo, SelectivityVector.of(0.4, 0.4))
        names = [s.name for s in obs.spans.spans()]
        assert names.count("engine.optimize") == 1
        assert names.count("engine.recost") == 1

    def test_summary_over_run(self, toy_db, toy_template):
        scr = SCR(fresh_engine(toy_db, toy_template), lam=2.0)
        counts = {}
        for inst in instances_for_template(toy_template, 50, seed=103):
            check = scr.process(inst).check
            counts[check] = counts.get(check, 0) + 1
        assert counts.get("optimizer", 0) == scr.optimizer_calls
        assert sum(counts.values()) == 50

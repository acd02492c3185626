"""Tests for the Recost API and shrunken memo (Appendix B mechanism)."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimizer.operators import PhysicalOp
from repro.query.instance import SelectivityVector

sel = st.floats(min_value=1e-4, max_value=1.0)


class TestRecostConsistency:
    """Recost of a plan must equal search's cost of that same plan."""

    def test_recost_matches_at_optimized_point(self, toy_engine):
        for sv in (
            SelectivityVector.of(0.01, 0.5),
            SelectivityVector.of(0.9, 0.9),
            SelectivityVector.of(0.001, 0.001),
        ):
            result = toy_engine.optimize(sv)
            assert toy_engine.recost(result.shrunken_memo, sv) == pytest.approx(
                result.cost, rel=1e-9
            )

    @settings(max_examples=30, deadline=None)
    @given(s1=sel, s2=sel)
    def test_property_recost_matches_everywhere(self, toy_engine, s1, s2):
        sv = SelectivityVector.of(s1, s2)
        result = toy_engine.optimize(sv)
        assert toy_engine.recost(result.shrunken_memo, sv) == pytest.approx(
            result.cost, rel=1e-9
        )

    @settings(max_examples=30, deadline=None)
    @given(s1=sel, s2=sel, t1=sel, t2=sel)
    def test_property_recost_upper_bounds_optimal(self, toy_engine, s1, s2, t1, t2):
        """Any plan re-costed at q is >= the optimal cost at q."""
        plan = toy_engine.optimize(SelectivityVector.of(s1, s2)).shrunken_memo
        target = SelectivityVector.of(t1, t2)
        optimal = toy_engine.optimize(target).cost
        assert toy_engine.recost(plan, target) >= optimal * (1 - 1e-9)


class TestShrunkenMemo:
    def test_node_count_matches_plan(self, toy_engine):
        result = toy_engine.optimize(SelectivityVector.of(0.3, 0.3))
        plan_nodes = result.plan.node_count()
        # INLJ folds its inner leaf, so shrunken nodes <= plan nodes.
        assert result.shrunken_memo.node_count <= plan_nodes
        assert result.shrunken_memo.node_count >= 1

    def test_shrinking_reduces_memo_substantially(self, toy_engine):
        result = toy_engine.optimize(SelectivityVector.of(0.3, 0.3))
        # The paper reports ~70% reduction; ours should also drop a lot.
        assert result.shrunken_memo.node_count < 0.5 * result.memo_expressions

    def test_signature_preserved(self, toy_engine):
        result = toy_engine.optimize(SelectivityVector.of(0.3, 0.3))
        assert result.shrunken_memo.signature == result.plan.signature()

    def test_recost_varies_with_selectivity(self, toy_engine):
        result = toy_engine.optimize(SelectivityVector.of(0.2, 0.2))
        low = toy_engine.recost(result.shrunken_memo, SelectivityVector.of(0.01, 0.01))
        high = toy_engine.recost(result.shrunken_memo, SelectivityVector.of(0.9, 0.9))
        assert low < high

    def test_all_operator_kinds_recostable(self, tpch_db):
        """Cover merge joins, aggregates and sorts through real templates."""
        from repro.workload.templates import tpch_templates

        seen_ops: set[PhysicalOp] = set()
        for template in tpch_templates():
            engine = tpch_db.engine(template)
            for point in (0.01, 0.5):
                sv = SelectivityVector.from_sequence(
                    [point] * template.dimensions
                )
                result = engine.optimize(sv)
                seen_ops.update(result.plan.operators())
                other = SelectivityVector.from_sequence(
                    [min(1.0, point * 3)] * template.dimensions
                )
                recosted = engine.recost(result.shrunken_memo, other)
                assert recosted > 0
        assert any(op.is_join for op in seen_ops)
        assert any(op.is_scan for op in seen_ops)


class TestPrebindingIsDerivedState:
    """The compiled function is a cache: compiled on first use, once per
    cost model, never compared, printed, persisted or pickled."""

    def test_one_model_compiles_once(self, toy_engine, monkeypatch):
        from repro.optimizer import recost
        from repro.optimizer.cost_model import CostModel

        compiled = []
        compile_ = recost._compile

        def counting(nodes, cost_model):
            compiled.append(cost_model)
            return compile_(nodes, cost_model)

        monkeypatch.setattr(recost, "_compile", counting)
        memo = toy_engine.optimize(SelectivityVector.of(0.3, 0.3)).shrunken_memo
        model = toy_engine.optimizer.cost_model
        for s in (0.1, 0.2, 0.5, 0.9):
            toy_engine.recost(memo, SelectivityVector.of(s, 1.0 - s))
            memo.recost(SelectivityVector.of(1.0 - s, s), model)
        assert compiled == [model]
        # A new model recompiles, and the replaced function is freed by
        # reference counting: it is not in a cycle with its globals.
        other = CostModel()
        gc.collect()
        gc.disable()
        try:
            memo.recost(SelectivityVector.of(0.4, 0.6), other)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert compiled == [model, other]

    def test_program_stays_out_of_eq_repr_pickle_and_dump(self, toy_engine):
        import pickle

        from repro.core.persistence import dump_cache, load_cache
        from repro.core.plan_cache import PlanCache

        result = toy_engine.optimize(SelectivityVector.of(0.3, 0.3))
        memo = result.shrunken_memo
        assert isinstance(memo.nodes, tuple)
        fresh = pickle.loads(pickle.dumps(memo))
        sv = SelectivityVector.of(0.2, 0.7)
        cost = toy_engine.recost(memo, sv)
        assert callable(memo._bound[1])
        assert memo == fresh and repr(memo) == repr(fresh)
        assert pickle.loads(pickle.dumps(memo))._bound is None
        cache = PlanCache()
        cache.add_plan(result.plan, memo)
        text = dump_cache(cache)
        assert "_bound" not in text
        restored = next(iter(load_cache(text).plans())).shrunken_memo
        assert restored == memo and restored._bound is None
        assert toy_engine.recost(restored, sv) == cost


class TestRecostSpeed:
    def test_recost_much_faster_than_optimize(self, tpch_db):
        """The premise of the paper's cost check: Recost << optimize."""
        from repro.workload.templates import tpch_templates

        template = next(
            t for t in tpch_templates() if t.name == "tpch_local_supplier"
        )
        engine = tpch_db.engine(template)
        sv = SelectivityVector.of(0.1, 0.1)
        result = engine.optimize(sv)  # warm-up: first-call work stays out
        engine.reset_counters()
        for i in range(50):
            # The mean of 10 warm optimizer calls, not one cold sample.
            if i % 5 == 0:
                engine.optimize(SelectivityVector.of(0.1 + i * 0.015, 0.1))
            engine.recost(
                result.shrunken_memo,
                SelectivityVector.of(0.1 + i * 0.015, 0.1),
            )
        counters = engine.counters
        assert counters.optimize.calls == 10
        assert counters.recost.calls == 50
        # At least an order of magnitude on this 5-way join, counted in
        # work: the search prices every memo expression, Recost only the
        # winning plan's nodes.  The wall-clock ratio tracks machine load,
        # so it is reported, not asserted.
        work_ratio = result.memo_expressions / result.shrunken_memo.node_count
        print(f"work ratio {work_ratio:.1f}, "
              f"wall-clock speedup {counters.recost_speedup:.1f}")
        assert work_ratio > 10

"""Tests for the operator cost model (section 5.4 cost shapes)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_recost import operator_cost
from reference_search import PlanSearch as ReferenceSearch
from repro.catalog.registry import get_database
from repro.optimizer.cost_model import CostModel, CostParameters
from repro.optimizer.operators import PhysicalOp
from repro.optimizer.optimizer import QueryOptimizer
from repro.optimizer.recost import _METHODS
from test_failure_injection import NonMonotoneCostModel, SpikyCostModel
from test_search_equivalence import (
    TEMPLATES, _assert_memo_matches, _assert_recost_matches_walk, _vectors,
)


@pytest.fixture(scope="module")
def cm() -> CostModel:
    return CostModel()


class TestScanCosts:
    def test_seq_scan_linear_in_table_rows(self, cm):
        a = cm.seq_scan(1_000, 10)
        b = cm.seq_scan(2_000, 10)
        assert b > a
        assert (b - cm.params.startup) / (a - cm.params.startup) == pytest.approx(
            2.0, rel=0.05
        )

    def test_index_scan_linear_in_output(self, cm):
        a = cm.index_scan(100_000, 100)
        b = cm.index_scan(100_000, 200)
        growth = (b - a)
        assert growth == pytest.approx(
            100 * (cm.params.index_row + cm.params.output_row), rel=1e-6
        )

    def test_index_beats_seq_at_low_selectivity(self, cm):
        rows = 100_000
        assert cm.index_scan(rows, 10) < cm.seq_scan(rows, 10)

    def test_seq_beats_index_at_high_selectivity(self, cm):
        rows = 100_000
        assert cm.seq_scan(rows, 90_000) < cm.index_scan(rows, 90_000)


class TestJoinCosts:
    def test_hash_join_grows_as_sum(self, cm):
        base = cm.hash_join(1_000, 1_000, 100)
        doubled_one = cm.hash_join(2_000, 1_000, 100)
        doubled_both = cm.hash_join(2_000, 2_000, 100)
        assert base < doubled_one < doubled_both
        # s1 + s2 shape: doubling one input far less than doubles cost.
        assert doubled_one < 2 * base

    def test_hash_join_spill_discontinuity(self, cm):
        below = cm.hash_join(cm.params.hash_memory_rows * 0.99, 1_000, 10)
        above = cm.hash_join(cm.params.hash_memory_rows * 1.01, 1_000, 10)
        assert above > below * 1.5  # the memory->disk transition

    def test_inlj_grows_with_outer(self, cm):
        a = cm.index_nested_loops_join(100, 100_000, 100)
        b = cm.index_nested_loops_join(1_000, 100_000, 100)
        assert b > a

    def test_nlj_pays_inner_per_outer_row(self, cm):
        inner_cost = 500.0
        a = cm.nested_loops_join(10, inner_cost, 10)
        b = cm.nested_loops_join(100, inner_cost, 10)
        assert (b - cm.params.startup) / (a - cm.params.startup) > 8

    def test_merge_join_charges_sorts(self, cm):
        sorted_cost = cm.merge_join(1_000, 1_000, 10, True, True)
        unsorted_cost = cm.merge_join(1_000, 1_000, 10, False, False)
        assert unsorted_cost > sorted_cost
        one_sorted = cm.merge_join(1_000, 1_000, 10, True, False)
        assert sorted_cost < one_sorted < unsorted_cost


class TestUnaryCosts:
    def test_sort_superlinear(self, cm):
        a = cm.sort(1_000)
        b = cm.sort(2_000)
        assert (b - cm.params.startup) > 2 * (a - cm.params.startup)

    def test_stream_agg_cheaper_than_hash(self, cm):
        assert cm.stream_aggregate(10_000, 100) < cm.hash_aggregate(10_000, 100)

    def test_scalar_aggregate_linear(self, cm):
        a = cm.scalar_aggregate(1_000)
        b = cm.scalar_aggregate(2_000)
        assert (b - cm.params.startup) == pytest.approx(
            2 * (a - cm.params.startup), rel=1e-6
        )


class TestDispatch:
    """The reference Recost walk's uniform dispatch (``tests/reference_recost.py``)
    reaches the same per-operator method the compiled Recost binds."""

    def test_dispatch_matches_direct_seq_scan(self, cm):
        assert operator_cost(
            cm, PhysicalOp.SEQ_SCAN, out_rows=50, table_rows=1_000
        ) == cm.seq_scan(1_000, 50)

    def test_dispatch_matches_direct_hash_join(self, cm):
        assert operator_cost(
            cm, PhysicalOp.HASH_JOIN, out_rows=10, outer_rows=100, inner_rows=200
        ) == cm.hash_join(100, 200, 10)

    def test_dispatch_matches_merge_join_flags(self, cm):
        assert operator_cost(
            cm,
            PhysicalOp.MERGE_JOIN,
            out_rows=10, outer_rows=100, inner_rows=200,
            left_sorted=True, right_sorted=False,
        ) == cm.merge_join(100, 200, 10, True, False)

    def test_all_operators_dispatchable(self, cm):
        for op in PhysicalOp:
            cost = operator_cost(
                cm, op, out_rows=10, table_rows=100, outer_rows=50,
                inner_rows=50, inner_cost=10.0, groups=5,
            )
            assert cost > 0
            # The compiled Recost binds a method for every operator the
            # walk can dispatch.
            assert callable(getattr(cm, _METHODS[op]))


class TestBcgCompliance:
    """The cost shapes of section 5.4: f(alpha)=alpha bounds per input."""

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 5.0])
    def test_index_scan_growth_bounded_by_alpha(self, cm, alpha):
        rows, out = 100_000, 500.0
        base = cm.index_scan(rows, out)
        grown = cm.index_scan(rows, out * alpha)
        assert grown <= alpha * base * (1 + 1e-9)
        assert grown > base

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 5.0])
    def test_hash_join_growth_bounded_by_alpha(self, cm, alpha):
        # Both inputs and the output scaled by alpha (one dimension's
        # selectivity increase propagates through cardinalities).
        base = cm.hash_join(5_000, 20_000, 1_000)
        grown = cm.hash_join(5_000 * alpha, 20_000, 1_000 * alpha)
        assert grown <= alpha * base * (1 + 1e-9)

    def test_sort_can_violate_linear_bound(self, cm):
        # n log n growth exceeds alpha for large enough alpha: this is
        # the operator class the paper bounds with a polynomial instead.
        alpha = 100.0
        base = cm.sort(100)
        grown = cm.sort(100 * alpha)
        assert grown > alpha * base * 0.9  # close to / beyond the bound

    def test_costs_monotone_in_cardinality(self, cm):
        """PCM: every operator's cost is non-decreasing in its input."""
        for n1, n2 in [(100, 200), (1_000, 5_000)]:
            assert cm.seq_scan(10_000, n1) <= cm.seq_scan(10_000, n2)
            assert cm.index_scan(10_000, n1) <= cm.index_scan(10_000, n2)
            assert cm.hash_join(n1, 1_000, 10) <= cm.hash_join(n2, 1_000, 10)
            assert cm.sort(n1) <= cm.sort(n2)


def test_custom_parameters_respected():
    params = CostParameters(seq_row=10.0)
    cm = CostModel(params)
    default = CostModel()
    assert cm.seq_scan(1_000, 10) > default.seq_scan(1_000, 10)


# -- the index descent term, computed once per table size -----------------

def _descent(p: CostParameters, table_rows: float) -> float:
    """The descent term computed directly: what the stored one must equal."""
    return p.index_lookup * max(1.0, math.log2(max(table_rows, 2.0)))


@settings(max_examples=200, deadline=None)
@given(table_rows=st.one_of(
    st.floats(min_value=0.0, max_value=1e12, allow_subnormal=True),
    st.sampled_from((0.0, 1.0, 2.0, 3.0, 1_000_000.0)),
), outer=st.floats(min_value=0.0, max_value=1e9), out=st.floats(min_value=0.0, max_value=1e9))
def test_stored_descent_is_the_formula_bit_for_bit(table_rows, outer, out):
    cm = CostModel()
    p = cm.params
    for _ in range(2):  # the first call stores the term, the second reads it
        assert cm.index_scan(table_rows, out) == (
            p.startup + _descent(p, table_rows) + out * p.index_row + out * p.output_row
        )
        assert cm.index_nested_loops_join(outer, table_rows, out) == (
            p.startup + outer * _descent(p, table_rows) * 0.1
            + outer * p.nlj_probe_row + out * p.index_row + out * p.output_row
        )


def test_replacing_params_recomputes_the_descent():
    cm = CostModel()
    before = (cm.index_scan(100_000, 10), cm.index_nested_loops_join(5, 100_000, 10))
    cm.params = CostParameters(index_lookup=25.0)
    fresh = CostModel(cm.params)
    after = (cm.index_scan(100_000, 10), cm.index_nested_loops_join(5, 100_000, 10))
    assert after == (
        fresh.index_scan(100_000, 10), fresh.index_nested_loops_join(5, 100_000, 10)
    )
    assert after[0] > before[0] and after[1] > before[1]
    # Models do not share their stored terms.
    assert CostModel().index_scan(100_000, 10) == before[0]


class CheapProbeCostModel(CostModel):
    """Overrides index nested loops, the method :class:`SpikyCostModel`
    leaves alone, with a descent-free probe."""

    def index_nested_loops_join(self, outer_rows, inner_table_rows, out_rows):
        return super().index_nested_loops_join(outer_rows, 2.0, out_rows) * 0.5


@pytest.mark.parametrize("model", [SpikyCostModel, CheapProbeCostModel],
                         ids=lambda m: m.__name__)
@pytest.mark.parametrize("name", ["tpch_shipping_priority", "tpcds_six_dim"])
def test_overriding_models_keep_search_and_recost_bit_identical(name, model):
    """A subclass that overrides either method that reads the stored
    descent: the search still matches the reference enumeration and the
    compiled Recost the interpreted walk, both calling the override."""
    template = next(t for t in TEMPLATES if t.name == name)
    db = get_database(template.database, scale=0.2, seed=5)
    optimizer = QueryOptimizer(template, db.stats, db.estimator, model())
    reference = ReferenceSearch(
        template, optimizer.card_model, optimizer.cost_model, db.stats.schema
    )
    memos = []
    for sv in _vectors(template.dimensions, seed=3)[:40]:
        ref_plan, ref_memo = reference.optimize(sv)
        plan, memo = optimizer._search.optimize(sv)
        _assert_memo_matches(plan, memo, ref_plan, ref_memo, sv)
        memos.append(optimizer.optimize(sv).shrunken_memo)
    _assert_recost_matches_walk(optimizer.cost_model, memos, template.dimensions)


# -- the bounded plan search's contract (DESIGN.md §7) -------------------

#: Row counts over the legal domain: subnormals, the selectivity floor's
#: cardinalities, up to far past any catalog.
rows = st.one_of(
    st.floats(min_value=0.0, max_value=1e12, allow_subnormal=True),
    st.sampled_from((0.0, 5e-324, 1e-300, 1e-6, 2.0, 200_000.0, 200_001.0)),
)
#: Cumulative costs: every operator's cost is at least its startup.
costs = st.floats(min_value=0.0, max_value=1e15, allow_subnormal=True)
CONTRACT_MODELS = [CostModel(), SpikyCostModel(), NonMonotoneCostModel()]


@settings(max_examples=200, deadline=None)
@given(
    model=st.sampled_from(CONTRACT_MODELS), a=rows, b=rows, c=rows,
    inner=costs, sorted_=st.booleans(),
)
def test_every_operator_own_cost_is_non_negative(model, a, b, c, inner, sorted_):
    """Precondition 1: an operator never costs less than its inputs."""
    own = (
        model.seq_scan(a, b), model.index_scan(a, b),
        model.nested_loops_join(a, inner, c),
        model.index_nested_loops_join(a, b, c), model.hash_join(a, b, c),
        model.merge_join(a, b, c, sorted_, not sorted_), model.sort(a),
        model.hash_aggregate(a, b), model.stream_aggregate(a, b),
        model.scalar_aggregate(a),
    )
    assert all(cost >= 0.0 for cost in own), own


@settings(max_examples=200, deadline=None)
@given(model=st.sampled_from(CONTRACT_MODELS), outer=rows, out=rows,
       low=costs, high=costs)
def test_nested_loops_is_monotone_in_its_inner_cost(model, outer, out, low, high):
    """Precondition 2: a dearer inner never makes nested loops cheaper."""
    low, high = sorted((low, high))
    assert model.nested_loops_join(outer, low, out) <= model.nested_loops_join(
        outer, high, out
    )


@settings(max_examples=300, deadline=None)
@given(model=st.sampled_from(CONTRACT_MODELS), outer=rows, more=rows, out=rows,
       budget=costs, excess=st.floats(min_value=1e-12, max_value=1e6))
def test_nested_loops_inner_limit_bounds_every_affordable_inner(
    model, outer, more, out, budget, excess
):
    """An inner dearer than the limit prices nested loops over at least
    ``outer`` rows above the budget, whatever its output."""
    limit = model.nested_loops_inner_limit(outer, budget)
    inner = limit * (1.0 + excess)
    if math.isinf(limit) or not inner > limit:
        return
    assert model.nested_loops_join(outer + more, inner, out) > budget


@pytest.mark.parametrize("model", CONTRACT_MODELS, ids=lambda m: type(m).__name__)
def test_nested_loops_inner_limit_is_unbounded_over_an_empty_outer(model):
    assert model.nested_loops_inner_limit(0.0, 125.76) == math.inf
    assert model.nested_loops_inner_limit(0.003, 125.76) > 159.37

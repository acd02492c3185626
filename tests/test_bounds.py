"""Tests for G/L arithmetic and the BCG bounds (section 5 theory).

Besides unit checks, the Cost Bounding Lemma and sub-optimality theorem
are property-tested against the *real* optimizer: for plans whose
operator set respects the linear bounding functions, the bounds must
hold at arbitrary pairs of instances.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import (
    BoundingFunction,
    LINEAR_BOUND,
    QUADRATIC_BOUND,
    compute_g,
    compute_gl,
    compute_l,
    cost_bounds,
    recost_suboptimality_bound,
    suboptimality_bound,
)
from repro.core.columnar import log_l1_distances
from repro.query.instance import SelectivityVector

sel = st.floats(min_value=1e-4, max_value=1.0)


class TestGL:
    def test_identity_vectors(self):
        a = SelectivityVector.of(0.3, 0.4)
        assert compute_g(a, a) == 1.0
        assert compute_l(a, a) == 1.0

    def test_pure_growth(self):
        a = SelectivityVector.of(0.1, 0.1)
        b = SelectivityVector.of(0.2, 0.3)
        assert compute_g(a, b) == pytest.approx(6.0)
        assert compute_l(a, b) == 1.0

    def test_pure_shrink(self):
        a = SelectivityVector.of(0.2, 0.3)
        b = SelectivityVector.of(0.1, 0.1)
        assert compute_g(a, b) == 1.0
        assert compute_l(a, b) == pytest.approx(6.0)

    def test_mixed_direction(self):
        a = SelectivityVector.of(0.1, 0.4)
        b = SelectivityVector.of(0.2, 0.1)
        g, l = compute_gl(a, b)
        assert g == pytest.approx(2.0)
        assert l == pytest.approx(4.0)

    def test_gl_pair_matches_individuals(self):
        a = SelectivityVector.of(0.1, 0.5, 0.9)
        b = SelectivityVector.of(0.3, 0.2, 0.9)
        g, l = compute_gl(a, b)
        assert g == pytest.approx(compute_g(a, b))
        assert l == pytest.approx(compute_l(a, b))

    def test_log_distance_is_ln_gl(self):
        # The nearest-anchor ranking kernel's distance is ln(G·L).
        a = SelectivityVector.of(0.1, 0.5)
        b = SelectivityVector.of(0.4, 0.1)
        g, l = compute_gl(a, b)
        log_anchors = np.log(np.array(a.values))[:, None]
        (distance,) = log_l1_distances(log_anchors, np.array(b.values))
        assert distance == pytest.approx(math.log(g * l))


@settings(max_examples=150, deadline=None)
@given(st.lists(sel, min_size=1, max_size=8), st.lists(sel, min_size=1, max_size=8))
def test_property_g_and_l_at_least_one(xs, ys):
    if len(xs) != len(ys):
        return
    a, b = SelectivityVector(tuple(xs)), SelectivityVector(tuple(ys))
    g, l = compute_gl(a, b)
    assert g >= 1.0
    assert l >= 1.0


@settings(max_examples=150, deadline=None)
@given(st.lists(sel, min_size=1, max_size=6), st.lists(sel, min_size=1, max_size=6))
def test_property_gl_swaps_under_reversal(xs, ys):
    if len(xs) != len(ys):
        return
    a, b = SelectivityVector(tuple(xs)), SelectivityVector(tuple(ys))
    g_ab, l_ab = compute_gl(a, b)
    g_ba, l_ba = compute_gl(b, a)
    assert g_ab == pytest.approx(l_ba, rel=1e-9)
    assert l_ab == pytest.approx(g_ba, rel=1e-9)


class TestBoundingFunction:
    def test_rejects_sub_linear(self):
        with pytest.raises(ValueError):
            BoundingFunction(degree=0.5)

    def test_linear_bounds(self):
        assert LINEAR_BOUND.selectivity_bound(2.0, 3.0) == pytest.approx(6.0)
        assert LINEAR_BOUND.cost_bound(1.5, 3.0) == pytest.approx(4.5)

    def test_quadratic_bounds(self):
        assert QUADRATIC_BOUND.selectivity_bound(2.0, 3.0) == pytest.approx(36.0)
        assert QUADRATIC_BOUND.cost_bound(1.5, 3.0) == pytest.approx(13.5)

    def test_quadratic_looser_than_linear(self):
        a = SelectivityVector.of(0.1, 0.2)
        b = SelectivityVector.of(0.3, 0.1)
        assert suboptimality_bound(a, b, QUADRATIC_BOUND) >= suboptimality_bound(
            a, b, LINEAR_BOUND
        )


class TestBoundsAgainstRealOptimizer:
    """Lemma 1 and Theorem 1 checked against the actual engine."""

    def _bcg_safe(self, shrunken) -> bool:
        """Plans containing sort-based operators may exceed the linear
        bound (section 5.4); restrict lemma checks to linear operators."""
        from repro.optimizer.operators import PhysicalOp

        unsafe = {PhysicalOp.SORT, PhysicalOp.MERGE_JOIN}
        return not any(node.op in unsafe for node in shrunken.nodes)

    @settings(max_examples=40, deadline=None)
    @given(s1=sel, s2=sel, t1=sel, t2=sel)
    def test_cost_bounding_lemma(self, toy_engine, s1, s2, t1, t2):
        qe = SelectivityVector.of(s1, s2)
        qc = SelectivityVector.of(t1, t2)
        result = toy_engine.optimize(qe)
        if not self._bcg_safe(result.shrunken_memo):
            return
        lower, upper = cost_bounds(result.cost, qe, qc, LINEAR_BOUND)
        actual = toy_engine.recost(result.shrunken_memo, qc)
        # Fixed per-operator startup costs make growth strictly slower
        # than linear, so the upper bound holds exactly; the lower bound
        # holds up to the same constant effects.
        assert actual <= upper * (1 + 1e-6)
        assert actual >= lower * (1 - 1e-6) or actual >= result.cost / max(
            compute_l(qe, qc), 1.0
        ) * (1 - 1e-6)

    @settings(max_examples=40, deadline=None)
    @given(s1=sel, s2=sel, t1=sel, t2=sel)
    def test_suboptimality_theorem(self, toy_engine, s1, s2, t1, t2):
        qe = SelectivityVector.of(s1, s2)
        qc = SelectivityVector.of(t1, t2)
        res_e = toy_engine.optimize(qe)
        res_c = toy_engine.optimize(qc)
        if not (self._bcg_safe(res_e.shrunken_memo)
                and self._bcg_safe(res_c.shrunken_memo)):
            return
        actual_subopt = (
            toy_engine.recost(res_e.shrunken_memo, qc) / res_c.cost
        )
        assert actual_subopt <= suboptimality_bound(qe, qc) * (1 + 1e-6)

    @settings(max_examples=40, deadline=None)
    @given(s1=sel, s2=sel, t1=sel, t2=sel)
    def test_recost_bound_tighter_than_selectivity_bound(
        self, toy_engine, s1, s2, t1, t2
    ):
        qe = SelectivityVector.of(s1, s2)
        qc = SelectivityVector.of(t1, t2)
        result = toy_engine.optimize(qe)
        if not self._bcg_safe(result.shrunken_memo):
            return
        r = toy_engine.recost(result.shrunken_memo, qc) / result.cost
        rl = recost_suboptimality_bound(r, qe, qc)
        gl = suboptimality_bound(qe, qc)
        # R < G under BCG, hence R*L <= G*L (section 5.3).
        assert rl <= gl * (1 + 1e-6)

    @settings(max_examples=40, deadline=None)
    @given(s1=sel, s2=sel, t1=sel, t2=sel)
    def test_recost_bound_sound(self, toy_engine, s1, s2, t1, t2):
        qe = SelectivityVector.of(s1, s2)
        qc = SelectivityVector.of(t1, t2)
        res_e = toy_engine.optimize(qe)
        res_c = toy_engine.optimize(qc)
        if not (self._bcg_safe(res_e.shrunken_memo)
                and self._bcg_safe(res_c.shrunken_memo)):
            return
        cost_at_c = toy_engine.recost(res_e.shrunken_memo, qc)
        r = cost_at_c / res_e.cost
        actual_subopt = cost_at_c / res_c.cost
        assert actual_subopt <= recost_suboptimality_bound(r, qe, qc) * (1 + 1e-6)

"""Tests for selectivity vectors and query instances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import log_l1_distances
from repro.query.instance import QueryInstance, SelectivityVector

sel = st.floats(min_value=1e-6, max_value=1.0, exclude_min=False)
vectors = st.integers(min_value=1, max_value=6).flatmap(
    lambda d: st.tuples(*([sel] * d))
)


def log_distance(a: SelectivityVector, b: SelectivityVector) -> float:
    """``b``'s distance from anchor ``a`` under the nearest-anchor
    ranking kernel."""
    log_anchors = np.log(np.array(a.values))[:, None]
    return float(log_l1_distances(log_anchors, np.array(b.values))[0])


class TestSelectivityVector:
    def test_constructors_agree(self):
        assert SelectivityVector.of(0.1, 0.2) == SelectivityVector.from_sequence(
            [0.1, 0.2]
        )

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            SelectivityVector.of(0.0, 0.5)

    def test_rejects_above_one(self):
        with pytest.raises(ValueError):
            SelectivityVector.of(1.5)

    def test_indexing_and_len(self):
        sv = SelectivityVector.of(0.1, 0.2, 0.3)
        assert len(sv) == 3
        assert sv[1] == 0.2
        assert list(sv) == [0.1, 0.2, 0.3]

    def test_ratios(self):
        a = SelectivityVector.of(0.1, 0.4)
        b = SelectivityVector.of(0.2, 0.1)
        assert a.ratios(b) == pytest.approx((2.0, 0.25))

    def test_ratios_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            SelectivityVector.of(0.1).ratios(SelectivityVector.of(0.1, 0.2))

    def test_log_distance_is_ln_gl(self):
        a = SelectivityVector.of(0.1, 0.4)
        b = SelectivityVector.of(0.2, 0.1)
        # G = 2, L = 4 -> ln(GL) = ln 8
        assert log_distance(a, b) == pytest.approx(math.log(8.0))

    def test_dominates(self):
        a = SelectivityVector.of(0.5, 0.5)
        b = SelectivityVector.of(0.4, 0.5)
        assert a.dominates(b)
        assert not b.dominates(a)
        assert a.dominates(a)


@settings(max_examples=100, deadline=None)
@given(vectors, vectors)
def test_property_log_distance_symmetric(xs, ys):
    if len(xs) != len(ys):
        return
    a = SelectivityVector(xs)
    b = SelectivityVector(ys)
    assert log_distance(a, b) == pytest.approx(log_distance(b, a), rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(vectors)
def test_property_self_distance_zero(xs):
    a = SelectivityVector(xs)
    assert log_distance(a, a) == pytest.approx(0.0, abs=1e-12)
    assert a.dominates(a)


@settings(max_examples=100, deadline=None)
@given(vectors, vectors)
def test_property_mutual_domination_implies_equal(xs, ys):
    if len(xs) != len(ys):
        return
    a = SelectivityVector(xs)
    b = SelectivityVector(ys)
    if a.dominates(b) and b.dominates(a):
        assert xs == ys


class TestQueryInstance:
    def test_selectivities_requires_sv(self):
        inst = QueryInstance("t", parameters=(1.0,))
        with pytest.raises(ValueError, match="selectivity vector"):
            _ = inst.selectivities

    def test_with_sequence_id(self):
        inst = QueryInstance("t")
        assert inst.with_sequence_id(7).sequence_id == 7

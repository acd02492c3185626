"""Tests for λ-optimal region geometry (section 5.3, Figure 4)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import (
    QUADRATIC_BOUND,
    compute_gl,
    recost_suboptimality_bound,
)
from repro.core.regions import SelectivityRegion
from repro.query.instance import SelectivityVector

sel = st.floats(min_value=1e-3, max_value=1.0)


class TestSelectivityRegion:
    def test_anchor_inside(self):
        region = SelectivityRegion(SelectivityVector.of(0.1, 0.2), budget=2.0)
        assert region.contains(SelectivityVector.of(0.1, 0.2))

    def test_budget_below_one_rejected(self):
        with pytest.raises(ValueError):
            SelectivityRegion(SelectivityVector.of(0.1), budget=0.9)

    def test_contains_matches_gl(self):
        anchor = SelectivityVector.of(0.1, 0.3)
        region = SelectivityRegion(anchor, budget=2.0)
        inside = SelectivityVector.of(0.15, 0.3)    # GL = 1.5
        outside = SelectivityVector.of(0.25, 0.3)   # GL = 2.5
        assert region.contains(inside)
        assert not region.contains(outside)

    def test_region_is_scale_free(self):
        """GL depends on ratios only: scaling the anchor scales the region."""
        a = SelectivityRegion(SelectivityVector.of(0.1, 0.1), budget=2.0)
        b = SelectivityRegion(SelectivityVector.of(0.4, 0.4), budget=2.0)
        assert a.contains(SelectivityVector.of(0.15, 0.11))
        assert b.contains(SelectivityVector.of(0.6, 0.44))

    def test_area_formula(self):
        lam = 2.0
        region = SelectivityRegion(SelectivityVector.of(0.2, 0.3), budget=lam)
        expected = (lam - 1 / lam) * math.log(lam) * 0.2 * 0.3
        assert region.area_2d() == pytest.approx(expected)

    def test_area_increases_with_lambda(self):
        anchor = SelectivityVector.of(0.2, 0.3)
        areas = [
            SelectivityRegion(anchor, budget=lam).area_2d()
            for lam in (1.1, 1.5, 2.0, 3.0)
        ]
        assert all(a < b for a, b in zip(areas, areas[1:]))

    def test_area_requires_2d(self):
        with pytest.raises(ValueError):
            SelectivityRegion(SelectivityVector.of(0.5), budget=2.0).area_2d()

    def test_boundary_points_on_gl_contour(self):
        anchor = SelectivityVector.of(0.1, 0.2)
        lam = 2.0
        region = SelectivityRegion(anchor, budget=lam)
        for x, y in region.boundary_2d(points_per_arc=16):
            if not (0 < x <= 1 and 0 < y <= 1):
                continue
            g, l = compute_gl(anchor, SelectivityVector.of(x, y))
            assert g * l == pytest.approx(lam, rel=1e-6)

    def test_quadratic_bound_shrinks_region(self):
        anchor = SelectivityVector.of(0.1, 0.2)
        point = SelectivityVector.of(0.13, 0.2)  # GL = 1.3
        linear = SelectivityRegion(anchor, budget=1.5)
        quadratic = SelectivityRegion(anchor, budget=1.5, bound=QUADRATIC_BOUND)
        assert linear.contains(point)
        assert not quadratic.contains(point)  # 1.3^2 = 1.69 > 1.5


@settings(max_examples=100, deadline=None)
@given(s1=sel, s2=sel, t1=sel, t2=sel,
       lam=st.floats(min_value=1.01, max_value=5.0))
def test_property_region_membership_equals_gl_check(s1, s2, t1, t2, lam):
    anchor = SelectivityVector.of(s1, s2)
    point = SelectivityVector.of(t1, t2)
    region = SelectivityRegion(anchor, budget=lam)
    g, l = compute_gl(anchor, point)
    assert region.contains(point) == (g * l <= lam)


class TestRecostRegion:
    """The recost-based λ-optimal region: ``R·L ≤ budget``. It has no
    closed geometric form — membership needs the Recost ratio ``R``."""

    def test_contains_with_slow_growth(self):
        anchor = SelectivityVector.of(0.1, 0.1)
        point = SelectivityVector.of(0.5, 0.1)  # G = 5, L = 1
        # Selectivity check would fail (GL = 5), but if the actual cost
        # barely moved (R = 1.2) the cost check passes: R*L = 1.2 <= 2.
        assert recost_suboptimality_bound(1.2, anchor, point) <= 2.0
        assert recost_suboptimality_bound(2.5, anchor, point) > 2.0

    def test_recost_region_contains_selectivity_region_under_bcg(self):
        """If R < G (BCG holds), every selectivity-check success is also
        a cost-check success."""
        anchor = SelectivityVector.of(0.2, 0.2)
        sel_region = SelectivityRegion(anchor, budget=2.0)
        point = SelectivityVector.of(0.3, 0.25)
        g, l = compute_gl(anchor, point)
        assert sel_region.contains(point)
        # Any R <= G keeps the point inside the recost region too.
        assert recost_suboptimality_bound(g, anchor, point) <= 2.0

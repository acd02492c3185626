"""Tests for the equi-depth histogram (forward and inverse estimates)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.selectivity.histogram import EquiDepthHistogram


@pytest.fixture(scope="module")
def uniform_hist() -> EquiDepthHistogram:
    rng = np.random.default_rng(0)
    return EquiDepthHistogram.from_values(rng.integers(0, 1000, 20_000), buckets=64)


@pytest.fixture(scope="module")
def skewed_hist() -> EquiDepthHistogram:
    rng = np.random.default_rng(0)
    ranks = np.arange(1, 201, dtype=float)
    w = ranks ** -1.2
    values = rng.choice(200, size=20_000, p=w / w.sum())
    return EquiDepthHistogram.from_values(values, buckets=32)


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EquiDepthHistogram.from_values(np.array([]))

    def test_depths_sum_to_total(self, uniform_hist):
        # Region depths are the increments of the cumulative row counts.
        cum = uniform_hist.cum
        assert cum[0] >= 0 and (np.diff(cum) >= 0).all()
        assert cum[-1] == uniform_hist.total

    def test_boundaries_sorted(self, uniform_hist):
        assert (np.diff(uniform_hist.boundaries) >= 0).all()

    def test_constant_column(self):
        hist = EquiDepthHistogram.from_values(np.full(100, 7))
        assert hist.selectivity_le(7) == pytest.approx(1.0)
        assert hist.selectivity_le(6) < 0.01

    def test_single_value(self):
        hist = EquiDepthHistogram.from_values(np.array([5]))
        assert hist.total == 1

    def test_bucket_cap(self):
        hist = EquiDepthHistogram.from_values(np.arange(10), buckets=100)
        assert len(hist.boundaries) - 1 <= 10


class TestForwardEstimates:
    def test_below_min(self, uniform_hist):
        assert uniform_hist.selectivity_le(-5) < 0.001

    def test_above_max(self, uniform_hist):
        assert uniform_hist.selectivity_le(10_000) == 1.0

    def test_median_near_half(self, uniform_hist):
        assert uniform_hist.selectivity_le(500) == pytest.approx(0.5, abs=0.05)

    def test_monotone_in_value(self, uniform_hist):
        values = np.linspace(-10, 1100, 60)
        sels = [uniform_hist.selectivity_le(v) for v in values]
        assert all(a <= b + 1e-12 for a, b in zip(sels, sels[1:]))

    def test_ge_complements_le(self, uniform_hist):
        for v in (100, 400, 900):
            le = uniform_hist.selectivity_le(v)
            ge = uniform_hist.selectivity_ge(v)
            assert le + ge == pytest.approx(1.0, abs=0.05)

    def test_eq_small_for_wide_domain(self, uniform_hist):
        assert uniform_hist.selectivity_eq(500) < 0.01

    def test_matches_true_selectivity_uniform(self, uniform_hist):
        rng = np.random.default_rng(1)
        values = rng.integers(0, 1000, 20_000)
        hist = EquiDepthHistogram.from_values(values, buckets=64)
        for v in (50, 250, 750):
            true = (values <= v).mean()
            assert hist.selectivity_le(v) == pytest.approx(true, abs=0.02)

    def test_matches_true_selectivity_skewed(self, skewed_hist):
        # Rebuild the same data to compare (fixture uses seed 0).
        rng = np.random.default_rng(0)
        ranks = np.arange(1, 201, dtype=float)
        w = ranks ** -1.2
        values = rng.choice(200, size=20_000, p=w / w.sum())
        for v in (0, 5, 50, 150):
            true = (values <= v).mean()
            assert skewed_hist.selectivity_le(v) == pytest.approx(true, abs=0.05)

    def test_floor_positive(self, uniform_hist):
        assert uniform_hist.selectivity_le(-1e9) > 0.0


class TestInverse:
    def test_roundtrip_uniform(self, uniform_hist):
        for s in (0.01, 0.1, 0.5, 0.9):
            v = uniform_hist.quantile(s)
            assert uniform_hist.selectivity_le(v) == pytest.approx(s, abs=0.03)

    def test_roundtrip_skewed(self, skewed_hist):
        # Discrete skewed data has a large point mass at the minimum
        # value; no parameter can achieve a selectivity below that mass,
        # so the roundtrip target is max(s, mass-at-min).
        floor = skewed_hist.selectivity_le(skewed_hist.min_value)
        for s in (0.05, 0.3, 0.7):
            v = skewed_hist.quantile(s)
            expected = max(s, floor)
            assert skewed_hist.selectivity_le(v) == pytest.approx(
                expected, abs=0.08
            )

    def test_clamps_out_of_range(self, uniform_hist):
        assert uniform_hist.quantile(-0.5) <= uniform_hist.quantile(0.0) + 1e-9
        assert uniform_hist.quantile(1.5) == pytest.approx(
            uniform_hist.max_value, rel=0.01
        )

    def test_monotone(self, uniform_hist):
        qs = [uniform_hist.quantile(s) for s in np.linspace(0, 1, 30)]
        assert all(a <= b + 1e-9 for a, b in zip(qs, qs[1:]))


@settings(max_examples=50, deadline=None)
@given(
    data=st.lists(st.integers(min_value=0, max_value=10_000), min_size=2,
                  max_size=400),
    value=st.integers(min_value=-100, max_value=10_100),
)
def test_property_selectivity_in_unit_interval(data, value):
    hist = EquiDepthHistogram.from_values(np.array(data), buckets=16)
    s = hist.selectivity_le(value)
    assert 0.0 < s <= 1.0


@settings(max_examples=50, deadline=None)
@given(
    data=st.lists(st.integers(min_value=0, max_value=1000), min_size=10,
                  max_size=500),
    s1=st.floats(min_value=0.0, max_value=1.0),
    s2=st.floats(min_value=0.0, max_value=1.0),
)
def test_property_quantile_monotone(data, s1, s2):
    hist = EquiDepthHistogram.from_values(np.array(data), buckets=8)
    lo, hi = sorted((s1, s2))
    assert hist.quantile(lo) <= hist.quantile(hi) + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=500), min_size=5, max_size=300))
def test_property_depths_account_for_all_rows(data):
    hist = EquiDepthHistogram.from_values(np.array(data), buckets=12)
    assert hist.cum[0] >= 0 and (np.diff(hist.cum) >= 0).all()
    assert hist.cum[-1] == len(data)

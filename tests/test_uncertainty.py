"""Unit tests for the selectivity error model (DESIGN.md §11).

Covers the shared clamping helper, the UncertainSelectivityVector
algebra (scaling, coverage, widening, containment), histogram and
estimator confidence intervals, the engine-API surface, the NoisyEngine
fault wrapper's honesty, and the resilience layer's degraded
(interval-widening) reads.
"""

import math

import numpy as np
import pytest

from repro.engine.api import EngineAPI, EngineWrapper
from repro.engine.faults import (
    FaultConfig,
    FaultInjector,
    FaultProfile,
    NoisyEngine,
    TransientEngineError,
)
from repro.engine.resilience import (
    ResiliencePolicy,
    ResilientEngineAPI,
    RetryPolicy,
)
from repro.optimizer.optimizer import QueryOptimizer
from repro.query.instance import (
    SELECTIVITY_FLOOR,
    QueryInstance,
    SelectivityVector,
    UncertainSelectivityVector,
    as_point,
    clamp_selectivity,
)
from repro.selectivity.histogram import EquiDepthHistogram

from test_resilience import (
    OUTER_WRAPPERS,
    assert_outer_effect,
    serve_inner_failure,
    serve_outside_resilient,
)

NO_SLEEP = lambda seconds: None  # noqa: E731

FAST_POLICY = ResiliencePolicy(
    retry=RetryPolicy(max_attempts=2, base_backoff=0.0, max_backoff=0.0),
)


def make_engine(toy_db, toy_template) -> EngineAPI:
    optimizer = QueryOptimizer(
        toy_template, toy_db.stats, toy_db.estimator, toy_db.cost_model
    )
    return EngineAPI(toy_template, optimizer, toy_db.estimator)


# ---------------------------------------------------------------------------
# The shared clamping helper


class TestClampSelectivity:
    def test_in_range_unchanged(self):
        assert clamp_selectivity(0.37) == 0.37

    def test_floor_applied(self):
        assert clamp_selectivity(0.0) == SELECTIVITY_FLOOR
        assert clamp_selectivity(-5.0) == SELECTIVITY_FLOOR

    def test_ceiling_applied(self):
        assert clamp_selectivity(7.3) == 1.0

    def test_custom_floor(self):
        assert clamp_selectivity(0.0, floor=1e-12) == 1e-12


# ---------------------------------------------------------------------------
# UncertainSelectivityVector algebra


def usv(*triples, coverage=1.0) -> UncertainSelectivityVector:
    return UncertainSelectivityVector.from_bounds(list(triples), coverage)


class TestUncertainSelectivityVector:
    def test_exact_is_zero_width(self):
        box = UncertainSelectivityVector.exact(SelectivityVector.of(0.2, 0.4))
        assert box.is_point
        assert box.total_log_width == 0.0
        assert box.coverage == 1.0
        assert as_point(box) == SelectivityVector.of(0.2, 0.4)

    def test_ordering_validated(self):
        with pytest.raises(ValueError, match="lo <= point <= hi"):
            usv((0.3, 0.2, 0.4))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            UncertainSelectivityVector(
                point=SelectivityVector.of(0.2, 0.4),
                lo=SelectivityVector.of(0.1),
                hi=SelectivityVector.of(0.5),
            )

    def test_coverage_validated(self):
        with pytest.raises(ValueError, match="coverage"):
            usv((0.1, 0.2, 0.4), coverage=0.0)
        with pytest.raises(ValueError, match="coverage"):
            usv((0.1, 0.2, 0.4), coverage=1.5)

    def test_log_widths(self):
        box = usv((0.1, 0.2, 0.4), (0.3, 0.3, 0.3))
        assert box.log_widths == pytest.approx((math.log(4.0), 0.0))
        assert box.total_log_width == pytest.approx(math.log(4.0))

    def test_contains(self):
        box = usv((0.1, 0.2, 0.4), (0.2, 0.3, 0.5))
        assert box.contains(SelectivityVector.of(0.25, 0.45))
        assert box.contains(SelectivityVector.of(0.1, 0.2))  # inclusive
        assert not box.contains(SelectivityVector.of(0.05, 0.3))

    def test_scaled_halves_log_width(self):
        box = usv((0.1, 0.2, 0.4))
        half = box.scaled(0.5)
        assert half.point == box.point
        assert half.total_log_width == pytest.approx(
            0.5 * box.total_log_width
        )
        assert half.coverage == pytest.approx(0.5)  # t**d with d=1

    def test_scaled_never_raises_coverage(self):
        box = usv((0.1, 0.2, 0.4), coverage=0.9)
        grown = box.scaled(2.0)
        assert grown.coverage == pytest.approx(0.9)
        assert grown.total_log_width > box.total_log_width

    def test_scaled_negative_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            usv((0.1, 0.2, 0.4)).scaled(-1.0)

    def test_for_coverage_reports_exact_target(self):
        box = usv((0.05, 0.2, 0.5), (0.1, 0.3, 0.6))
        shrunk = box.for_coverage(0.8)
        assert shrunk.coverage == 0.8
        assert shrunk.total_log_width < box.total_log_width
        assert shrunk.point == box.point

    def test_for_coverage_at_or_above_claim_is_identity(self):
        box = usv((0.05, 0.2, 0.5), coverage=0.7)
        assert box.for_coverage(0.7) is box
        assert box.for_coverage(0.9) is box  # cannot promise more

    def test_for_coverage_point_box_is_identity(self):
        box = UncertainSelectivityVector.exact(SelectivityVector.of(0.2))
        assert box.for_coverage(0.5) is box

    def test_for_coverage_validated(self):
        with pytest.raises(ValueError, match="target coverage"):
            usv((0.1, 0.2, 0.4)).for_coverage(0.0)

    def test_widened_grows_both_sides(self):
        box = usv((0.1, 0.2, 0.4))
        wide = box.widened(2.0)
        assert wide.lo[0] == pytest.approx(0.05)
        assert wide.hi[0] == pytest.approx(0.8)
        assert wide.coverage == box.coverage
        assert wide.point == box.point

    def test_widened_respects_clamp_floor_guard(self):
        # A point at the floor: clamping lo cannot push it above point.
        tiny = SelectivityVector.of(SELECTIVITY_FLOOR / 2 + SELECTIVITY_FLOOR / 2)
        box = UncertainSelectivityVector.exact(
            SelectivityVector.of(SELECTIVITY_FLOOR)
        )
        wide = box.widened(10.0)
        assert wide.lo[0] <= wide.point[0] <= wide.hi[0]
        del tiny

    def test_widened_factor_validated(self):
        with pytest.raises(ValueError, match=">= 1"):
            usv((0.1, 0.2, 0.4)).widened(0.5)

    def test_as_point_passthrough_for_plain_vector(self):
        sv = SelectivityVector.of(0.3)
        assert as_point(sv) is sv


# ---------------------------------------------------------------------------
# Histogram confidence intervals


@pytest.fixture(scope="module")
def hist() -> EquiDepthHistogram:
    rng = np.random.default_rng(3)
    return EquiDepthHistogram.from_values(
        rng.integers(0, 1000, 10_000), buckets=32
    )


class TestHistogramIntervals:
    def test_interval_brackets_point(self, hist):
        for v in (50, 300, 500, 900):
            lo, point, hi = hist.interval_le(v)
            assert lo <= point <= hi
            assert point == pytest.approx(hist.selectivity_le(v))

    def test_ge_interval_brackets_point(self, hist):
        lo, point, hi = hist.interval_ge(400)
        assert lo <= point <= hi
        assert point == pytest.approx(hist.selectivity_ge(400))

    def test_eq_interval_brackets_point(self, hist):
        lo, point, hi = hist.interval_eq(123)
        assert lo <= point <= hi

    def test_sample_term_widens_monotonically(self, hist):
        hard = hist.interval_le(500, sample_z=0.0)
        z1 = hist.interval_le(500, sample_z=1.0)
        z3 = hist.interval_le(500, sample_z=3.0)
        assert hard[0] >= z1[0] >= z3[0]
        assert hard[2] <= z1[2] <= z3[2]

    def test_interval_endpoints_floored(self, hist):
        lo, point, hi = hist.interval_le(-100)
        assert lo >= SELECTIVITY_FLOOR and hi <= 1.0


# ---------------------------------------------------------------------------
# Estimator + engine API surface


class TestEstimatorUsv:
    def test_synthetic_instance_gets_exact_box(self, toy_db, toy_template):
        inst = QueryInstance("toy_join", sv=SelectivityVector.of(0.2, 0.3))
        box = toy_db.estimator.selectivity_vector_with_error(
            toy_template, inst
        )
        assert box.is_point
        assert box.point == SelectivityVector.of(0.2, 0.3)

    def test_parameterized_instance_brackets_point(self, toy_db, toy_template):
        inst = QueryInstance("toy_join", parameters=(500.0, 300.0))
        point = toy_db.estimator.selectivity_vector(toy_template, inst)
        box = toy_db.estimator.selectivity_vector_with_error(
            toy_template, inst
        )
        assert box.point == point
        assert box.contains(point)
        assert box.total_log_width > 0.0
        assert box.coverage == 1.0

    def test_engine_api_shares_selectivity_accounting(
        self, toy_db, toy_template
    ):
        engine = make_engine(toy_db, toy_template)
        inst = QueryInstance("toy_join", parameters=(500.0, 300.0))
        before = engine.counters.selectivity.calls
        box = engine.selectivity_vector_with_error(inst)
        assert engine.counters.selectivity.calls == before + 1
        assert box.contains(engine.selectivity_vector(inst))


# ---------------------------------------------------------------------------
# NoisyEngine: seeded multiplicative noise, honest intervals


class TestNoisyEngine:
    def test_negative_noise_rejected(self, toy_db, toy_template):
        with pytest.raises(ValueError, match="noise"):
            NoisyEngine(make_engine(toy_db, toy_template), noise=-0.1)

    def test_zero_noise_is_passthrough(self, toy_db, toy_template):
        engine = NoisyEngine(make_engine(toy_db, toy_template), noise=0.0)
        inst = QueryInstance("toy_join", sv=SelectivityVector.of(0.2, 0.3))
        assert engine.selectivity_vector(inst) == SelectivityVector.of(0.2, 0.3)
        assert engine.selectivity_vector_with_error(inst).is_point

    def test_seeded_determinism(self, toy_db, toy_template):
        inst = QueryInstance("toy_join", sv=SelectivityVector.of(0.2, 0.3))
        a = NoisyEngine(make_engine(toy_db, toy_template), noise=0.3, seed=7)
        b = NoisyEngine(make_engine(toy_db, toy_template), noise=0.3, seed=7)
        assert a.selectivity_vector(inst) == b.selectivity_vector(inst)
        assert a.selectivity_vector_with_error(inst) == (
            b.selectivity_vector_with_error(inst)
        )

    def test_interval_contains_true_vector(self, toy_db, toy_template):
        """Honesty: the noisy box always contains the inner estimate."""
        engine = NoisyEngine(make_engine(toy_db, toy_template), noise=0.4, seed=1)
        for i in range(50):
            s = 0.001 * (i + 1) * 17 % 1.0 or 0.5
            truth = SelectivityVector.of(
                clamp_selectivity(s), clamp_selectivity(1.0 - s / 2)
            )
            inst = QueryInstance("toy_join", sv=truth)
            box = engine.selectivity_vector_with_error(inst)
            assert box.contains(truth), (truth.values, box)
            assert box.coverage == 1.0  # uniform noise: hard band

    def test_optimize_and_recost_pass_through(self, toy_db, toy_template):
        inner = make_engine(toy_db, toy_template)
        engine = NoisyEngine(inner, noise=0.3, seed=2)
        result = engine.optimize(SelectivityVector.of(0.2, 0.3))
        assert result.cost == inner.optimize(SelectivityVector.of(0.2, 0.3)).cost
        assert engine.counters is inner.counters


# ---------------------------------------------------------------------------
# FaultInjector's uncertain-sVector corruption path


class TestFaultInjectorUsv:
    def test_clean_calls_pass_through(self, toy_db, toy_template):
        inj = FaultInjector(make_engine(toy_db, toy_template), FaultConfig())
        inst = QueryInstance("toy_join", sv=SelectivityVector.of(0.2, 0.3))
        assert inj.selectivity_vector_with_error(inst).is_point

    def test_nan_corruption_raises_validation_error(self, toy_db, toy_template):
        config = FaultConfig(selectivity=FaultProfile(corrupt_rate=1.0))
        inj = FaultInjector(make_engine(toy_db, toy_template), config, seed=3)
        inst = QueryInstance("toy_join", sv=SelectivityVector.of(0.2, 0.3))
        # No previous usv to serve stale: the corruption degenerates to
        # a NaN vector, surfaced as the validation ValueError the
        # resilience layer treats as a retryable failure.
        with pytest.raises(ValueError):
            inj.selectivity_vector_with_error(inst)

    def test_stale_corruption_replays_previous_box(self, toy_db, toy_template):
        config = FaultConfig(selectivity=FaultProfile(corrupt_rate=1.0))
        inj = FaultInjector(make_engine(toy_db, toy_template), config, seed=3)
        first = UncertainSelectivityVector.exact(SelectivityVector.of(0.2, 0.3))
        inj._last_usv = first
        inst = QueryInstance("toy_join", sv=SelectivityVector.of(0.6, 0.7))
        assert inj.selectivity_vector_with_error(inst) is first


# ---------------------------------------------------------------------------
# Resilience: degraded reads widen the interval instead of guessing


class FailAfterFirst(EngineWrapper):
    """Engine wrapper: the first usv call succeeds, later ones fail."""

    def __init__(self, engine):
        super().__init__(engine)
        self.calls = 0

    def selectivity_vector_with_error_ex(self, instance):
        self.calls += 1
        if self.calls > 1:
            raise TransientEngineError("injected")
        return self.inner.selectivity_vector_with_error_ex(instance)


class TestResilienceDegradedUsv:
    def _resilient(self, toy_db, toy_template):
        failing = FailAfterFirst(make_engine(toy_db, toy_template))
        return ResilientEngineAPI(failing, policy=FAST_POLICY, sleep=NO_SLEEP)

    def test_degraded_read_widens_last_good_box(self, toy_db, toy_template):
        engine = self._resilient(toy_db, toy_template)
        inst = QueryInstance("toy_join", parameters=(500.0, 300.0))
        good, degraded = engine.selectivity_vector_with_error_ex(inst)
        assert not degraded
        stale, degraded = engine.selectivity_vector_with_error_ex(inst)
        assert degraded
        assert stale.point == good.point
        # Strictly more pessimistic, same probability claim.
        assert stale.lo[0] <= good.lo[0] and stale.hi[0] >= good.hi[0]
        assert stale.total_log_width > good.total_log_width
        assert stale.coverage == good.coverage
        assert engine.counters.resilience.selectivity_fallbacks == 1

    def test_degraded_without_history_raises(self, toy_db, toy_template):
        from repro.engine.resilience import SelectivityUnavailableError

        failing = FailAfterFirst(make_engine(toy_db, toy_template))
        failing.calls = 10  # every call fails, nothing ever succeeded
        engine = ResilientEngineAPI(failing, policy=FAST_POLICY, sleep=NO_SLEEP)
        inst = QueryInstance("toy_join", parameters=(500.0, 300.0))
        with pytest.raises(SelectivityUnavailableError):
            engine.selectivity_vector_with_error(inst)

    def test_point_history_seeds_zero_width_stale_box(
        self, toy_db, toy_template
    ):
        """A point-vector history degrades to its widened exact box."""
        failing = FailAfterFirst(make_engine(toy_db, toy_template))
        failing.calls = 10
        engine = ResilientEngineAPI(failing, policy=FAST_POLICY, sleep=NO_SLEEP)
        engine._last_good_sv = SelectivityVector.of(0.2, 0.3)
        inst = QueryInstance("toy_join", parameters=(500.0, 300.0))
        stale, degraded = engine.selectivity_vector_with_error_ex(inst)
        assert degraded
        assert stale.point == SelectivityVector.of(0.2, 0.3)
        assert stale.total_log_width > 0.0  # widened, not a blind point


@pytest.mark.parametrize("via_manager", [False, True], ids=["scr", "manager"])
@pytest.mark.parametrize("kind", sorted(OUTER_WRAPPERS))
class TestRobustWrapperOutsideResilience:
    """Robust checks fetch the uncertain sVector: a wrapper stacked
    outside the resilient layer acts on the served box, and a degraded
    (widened stale) box still serves uncertified through it."""

    def test_outer_effect_reaches_served_box(
        self, kind, via_manager, toy_db, toy_template
    ):
        rows = serve_outside_resilient(
            kind, toy_db, toy_template, via_manager, check_mode="robust"
        )
        assert_outer_effect(kind, rows, toy_db, toy_template)

    def test_inner_failure_serves_uncertified(
        self, kind, via_manager, toy_db, toy_template
    ):
        good, degraded = serve_inner_failure(
            kind, toy_db, toy_template, via_manager, check_mode="robust"
        )
        assert good.certified
        assert not degraded.certified

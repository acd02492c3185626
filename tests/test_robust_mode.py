"""Property and integration tests for the robust check modes (§11).

The hypothesis properties pin the load-bearing claims of the
uncertainty design: the adversarial corner really is the box maximum of
the G·L objective (so a corner check certifies the whole box), widening
a box can only weaken certification (never flip reject → certify), a
zero-width box reproduces point-mode decisions bit-for-bit, and a
robust certification implies the point check would also have certified.
The integration half covers CheckMode plumbing through GetPlan, SCR,
and the concurrent serving layer's brownout coverage-relaxation step.
"""

import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import (
    adversarial_corner,
    compute_gl,
    suboptimality_bound,
)
from repro.core.dynamic_lambda import PressureRelaxedLambda
from repro.core.get_plan import CheckKind, CheckMode, GetPlan, certificate_kind
from repro.core.plan_cache import InstanceEntry, PlanCache
from repro.core.scr import SCR
from repro.engine.api import EngineAPI
from repro.engine.faults import NoisyEngine
from repro.obs import Observability
from repro.optimizer.optimizer import QueryOptimizer
from repro.query.instance import (
    QueryInstance,
    SelectivityVector,
    UncertainSelectivityVector,
)
from repro.serving.manager import ConcurrentPQOManager
from repro.serving.overload import BrownoutLevel, OverloadPolicy

from reference_get_plan import compute_cost_gl, cost_corner

RELTOL = 1e-9


def make_engine(toy_db, toy_template) -> EngineAPI:
    optimizer = QueryOptimizer(
        toy_template, toy_db.stats, toy_db.estimator, toy_db.cost_model
    )
    return EngineAPI(toy_template, optimizer, toy_db.estimator)


# ---------------------------------------------------------------------------
# Strategies: log-space boxes and anchors


def sel():
    return st.floats(min_value=1e-4, max_value=1.0)


def widths():
    return st.floats(min_value=1.0, max_value=50.0)


@st.composite
def boxes(draw, dims: int) -> UncertainSelectivityVector:
    triples = []
    for _ in range(dims):
        point = draw(sel())
        lo = max(point / draw(widths()), 1e-7)
        hi = min(point * draw(widths()), 1.0)
        triples.append((lo, point, hi))
    return UncertainSelectivityVector.from_bounds(triples)


@st.composite
def box_and_anchor(draw):
    dims = draw(st.integers(min_value=1, max_value=3))
    box = draw(boxes(dims))
    anchor = SelectivityVector.from_sequence(
        [draw(sel()) for _ in range(dims)]
    )
    return box, anchor


def box_corners(box: UncertainSelectivityVector):
    """Every corner of the box, plus its point and geometric midpoint."""
    corners = [
        SelectivityVector.from_sequence(combo)
        for combo in product(*zip(box.lo, box.hi))
    ]
    corners.append(box.point)
    corners.append(
        SelectivityVector.from_sequence(
            [math.sqrt(lo * hi) for lo, hi in zip(box.lo, box.hi)]
        )
    )
    return corners


# ---------------------------------------------------------------------------
# The corner lemmas (the soundness core of the robust checks)


class TestAdversarialCorner:
    @given(box_and_anchor())
    def test_corner_is_box_maximum_of_gl(self, pair):
        box, anchor = pair
        best = suboptimality_bound(anchor, adversarial_corner(anchor, box))
        for candidate in box_corners(box):
            other = suboptimality_bound(anchor, candidate)
            assert best >= other * (1.0 - RELTOL), (anchor, box, candidate)

    @given(box_and_anchor())
    def test_zero_width_corner_is_the_point(self, pair):
        box, anchor = pair
        exact = UncertainSelectivityVector.exact(box.point)
        assert adversarial_corner(anchor, exact) == box.point

    @given(box_and_anchor())
    def test_widening_never_shrinks_the_corner_bound(self, pair):
        box, anchor = pair
        narrow = suboptimality_bound(anchor, adversarial_corner(anchor, box))
        wide_box = box.widened(3.0)
        wide = suboptimality_bound(
            anchor, adversarial_corner(anchor, wide_box)
        )
        assert wide >= narrow * (1.0 - RELTOL)


class TestCostCorner:
    @given(box_and_anchor())
    def test_corner_is_box_maximum_of_cost_objective(self, pair):
        box, anchor = pair
        point = box.point
        g, l = compute_cost_gl(
            point, anchor, cost_corner(point, anchor, box)
        )
        best = g * l
        for candidate in box_corners(box):
            gg, ll = compute_cost_gl(point, anchor, candidate)
            assert best >= gg * ll * (1.0 - RELTOL), (anchor, box, candidate)

    @given(box_and_anchor())
    def test_zero_width_reproduces_point_cost_factors(self, pair):
        """At a zero-width box the transport factor G(point→corner) is 1
        and L(anchor→corner) is bit-identical to the point check's L."""
        box, anchor = pair
        exact = UncertainSelectivityVector.exact(box.point)
        corner = cost_corner(box.point, anchor, exact)
        assert corner == box.point
        g, l = compute_cost_gl(box.point, anchor, corner)
        assert g == 1.0
        _, point_l = compute_gl(anchor, box.point)
        assert l == point_l  # exact, not approx


# ---------------------------------------------------------------------------
# GetPlan: mode resolution and decision equivalences


@pytest.fixture(scope="module")
def anchor_cache(toy_engine):
    """Cache with one anchor instance at (0.1, 0.1), S = 1."""
    cache = PlanCache()
    anchor_sv = SelectivityVector.of(0.1, 0.1)
    result = toy_engine.optimize(anchor_sv)
    plan = cache.add_plan(result.plan, result.shrunken_memo)
    cache.add_instance(InstanceEntry(
        sv=anchor_sv, plan_id=plan.plan_id,
        optimal_cost=result.cost, suboptimality=1.0,
    ))
    return cache


class TestResolveBox:
    def test_point_mode_has_no_box(self, anchor_cache):
        get_plan = GetPlan(cache=anchor_cache, lam=2.0)
        sv = SelectivityVector.of(0.2, 0.3)
        point, box = get_plan._resolve_box(sv, None)
        assert point == sv and box is None
        usv = UncertainSelectivityVector.from_bounds(
            [(0.1, 0.2, 0.4), (0.2, 0.3, 0.5)]
        )
        point, box = get_plan._resolve_box(usv, None)
        assert point == usv.point and box is None

    def test_robust_mode_promotes_plain_vector_to_exact_box(
        self, anchor_cache
    ):
        get_plan = GetPlan(cache=anchor_cache, lam=2.0, check_mode="robust")
        sv = SelectivityVector.of(0.2, 0.3)
        point, box = get_plan._resolve_box(sv, None)
        assert point == sv
        assert box.is_point and box.coverage == 1.0

    def test_probabilistic_mode_shrinks_to_target(self, anchor_cache):
        get_plan = GetPlan(
            cache=anchor_cache, lam=2.0,
            check_mode="probabilistic", target_coverage=0.9,
        )
        usv = UncertainSelectivityVector.from_bounds(
            [(0.1, 0.2, 0.4), (0.2, 0.3, 0.5)]
        )
        _, box = get_plan._resolve_box(usv, None)
        assert box.coverage == 0.9
        assert box.total_log_width < usv.total_log_width

    def test_per_call_coverage_only_ever_shrinks(self, anchor_cache):
        get_plan = GetPlan(
            cache=anchor_cache, lam=2.0,
            check_mode="probabilistic", target_coverage=0.9,
        )
        usv = UncertainSelectivityVector.from_bounds(
            [(0.1, 0.2, 0.4), (0.2, 0.3, 0.5)]
        )
        _, box = get_plan._resolve_box(usv, 0.7)
        assert box.coverage == 0.7
        # A per-call coverage above the mode's claim cannot widen it.
        _, box = get_plan._resolve_box(usv, 0.95)
        assert box.coverage == 0.9

    def test_target_coverage_validated(self, anchor_cache):
        with pytest.raises(ValueError, match="target_coverage"):
            GetPlan(cache=anchor_cache, lam=2.0, target_coverage=0.0)


class TestCertificateKind:
    def test_mapping(self):
        point_box = UncertainSelectivityVector.exact(
            SelectivityVector.of(0.2)
        )
        hard_box = UncertainSelectivityVector.from_bounds([(0.1, 0.2, 0.4)])
        soft_box = hard_box.for_coverage(0.9)
        assert certificate_kind(None) == "exact"
        assert certificate_kind(point_box) == "exact"
        assert certificate_kind(hard_box) == "robust"
        assert certificate_kind(soft_box) == "probabilistic"


class TestPointEquivalence:
    """A zero-width box reproduces point-mode decisions bit-for-bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_zero_width_probe_is_bitwise_point_probe(
        self, anchor_cache, toy_engine, s1, s2
    ):
        sv = SelectivityVector.of(s1, s2)
        point_gp = GetPlan(cache=anchor_cache, lam=2.0)
        robust_gp = GetPlan(cache=anchor_cache, lam=2.0, check_mode="robust")
        dp = point_gp.probe(sv, toy_engine.recost)
        dr = robust_gp.probe(
            UncertainSelectivityVector.exact(sv), toy_engine.recost
        )
        assert dr.plan_id == dp.plan_id
        assert dr.check is dp.check
        assert dr.g == dp.g and dr.l == dp.l
        assert dr.recost_ratio == dp.recost_ratio
        assert dr.recost_calls == dp.recost_calls
        if dp.hit:
            assert dr.certificate == "exact"
            # S = 1 here, so the corner bound is the same product.
            assert dr.bound_value == dp.inferred_suboptimality

    @settings(max_examples=60, deadline=None)
    @given(boxes(2))
    def test_robust_certification_implies_point_certification(
        self, anchor_cache, toy_engine, box
    ):
        robust_gp = GetPlan(cache=anchor_cache, lam=2.0, check_mode="robust")
        dr = robust_gp.probe(box, toy_engine.recost)
        if not dr.hit:
            return
        point_gp = GetPlan(cache=anchor_cache, lam=2.0)
        dp = point_gp.probe(box.point, toy_engine.recost)
        assert dp.hit
        assert dp.inferred_suboptimality <= dr.bound_value * (1.0 + RELTOL)

    @settings(max_examples=60, deadline=None)
    @given(boxes(2), st.floats(min_value=1.0, max_value=10.0))
    def test_widening_never_flips_reject_to_certify(
        self, anchor_cache, toy_engine, box, factor
    ):
        robust_gp = GetPlan(cache=anchor_cache, lam=2.0, check_mode="robust")
        narrow = robust_gp.probe(box, toy_engine.recost)
        if narrow.hit:
            return
        wide = robust_gp.probe(box.widened(factor), toy_engine.recost)
        assert not wide.hit
        assert wide.check is CheckKind.OPTIMIZER


# ---------------------------------------------------------------------------
# SCR integration


class TestSCRRobust:
    def test_check_mode_string_coerced(self, toy_db, toy_template):
        scr = SCR(make_engine(toy_db, toy_template), check_mode="robust")
        assert scr.check_mode is CheckMode.ROBUST
        assert scr.get_plan.check_mode is CheckMode.ROBUST

    def test_synthetic_workload_matches_point_mode(self, toy_db, toy_template):
        """Synthetic instances carry exact boxes: robust mode must make
        the same decisions as point mode and claim exact certificates."""
        point_scr = SCR(make_engine(toy_db, toy_template), lam=2.0)
        robust_scr = SCR(
            make_engine(toy_db, toy_template), lam=2.0, check_mode="robust"
        )
        grid = [0.05, 0.08, 0.1, 0.15, 0.3, 0.5, 0.7, 0.9]
        for s1 in grid:
            for s2 in grid:
                inst = QueryInstance(
                    "toy_join", sv=SelectivityVector.of(s1, s2)
                )
                cp = point_scr.process(inst)
                cr = robust_scr.process(inst)
                assert cr.plan_signature == cp.plan_signature
                assert cr.check == cp.check
                assert cr.used_optimizer == cp.used_optimizer
                assert cr.certificate == "exact"
                assert cr.coverage == 1.0
                assert cr.certified_bound == pytest.approx(cp.certified_bound)
        assert robust_scr.optimizer_calls == point_scr.optimizer_calls

    def test_noisy_engine_yields_robust_certificates(self, toy_db, toy_template):
        obs = Observability()
        engine = NoisyEngine(
            make_engine(toy_db, toy_template), noise=0.3, seed=11
        )
        scr = SCR(engine, lam=2.0, check_mode="robust", obs=obs)
        choices = []
        for i in range(12):
            sv = SelectivityVector.of(0.2 + 0.001 * i, 0.3)
            choices.append(scr.process(QueryInstance("toy_join", sv=sv)))
        assert all(c.certificate == "robust" for c in choices)
        assert all(c.coverage == 1.0 for c in choices)
        hits = [c for c in choices if not c.used_optimizer]
        assert hits, "repeat near-identical instances must hit the cache"
        # A hit's corner-valid bound passed the check, so it is within λ;
        # none of the live audits may have flagged a violation.
        assert all(c.certified_bound <= 2.0 + RELTOL for c in hits)
        assert obs.audit.zero_violations
        # Certificate *counters* are serving-layer accounting (one per
        # served response); the serial technique only stamps choices.
        assert sum(obs.audit.certificate_totals().values()) == 0


# ---------------------------------------------------------------------------
# Serving layer: robust shards, pressure-λ ladder, coverage brownout


class TestPressureRelaxedLambda:
    def test_relaxes_only_at_configured_level(self):
        level = {"value": int(BrownoutLevel.NORMAL)}
        lam = PressureRelaxedLambda(
            2.0,
            level_provider=lambda: level["value"],
            relax_factor=1.5,
            relax_at_level=int(BrownoutLevel.LAMBDA_RELAXED),
        )
        assert lam(100.0) == 2.0
        # COVERAGE_RELAXED sits below the λ step: λ must stay put there.
        level["value"] = int(BrownoutLevel.COVERAGE_RELAXED)
        assert lam(100.0) == 2.0
        level["value"] = int(BrownoutLevel.LAMBDA_RELAXED)
        assert lam(100.0) == 3.0

    def test_relax_at_level_validated(self):
        with pytest.raises(ValueError, match="relax_at_level"):
            PressureRelaxedLambda(
                2.0, level_provider=lambda: 0, relax_at_level=0
            )


class TestServingRobust:
    def test_certificates_counted_exactly_once_per_response(
        self, toy_db, toy_template
    ):
        obs = Observability()
        params = [
            (500.0, 300.0), (520.0, 310.0), (500.0, 300.0),
            (800.0, 900.0), (510.0, 305.0),
        ]
        with ConcurrentPQOManager(
            database=toy_db, check_mode="robust", obs=obs
        ) as manager:
            manager.register(toy_template)
            assert manager.shard("toy_join").robust
            for p in params:
                choice = manager.process(
                    QueryInstance("toy_join", parameters=p)
                )
                assert choice.certificate == "robust"
            stats = manager.shard("toy_join").stats
        totals = obs.audit.certificate_totals()
        assert sum(totals.values()) == len(params)
        # Histogram intervals always have positive width, so every
        # certificate here is box-valid.
        assert totals["robust"] == len(params)
        # The shard's report row reads the same registry children.
        assert stats.row()["processed"] == len(params)
        assert sum(
            stats.audit.certificate_totals("toy_join").values()
        ) == len(params)
        report = obs.report()
        assert report["certificates"] == totals

    def test_brownout_coverage_relaxation_downgrades_certificate(
        self, toy_db, toy_template
    ):
        obs = Observability()
        with ConcurrentPQOManager(
            database=toy_db,
            check_mode="robust",
            overload=OverloadPolicy(),
            obs=obs,
        ) as manager:
            manager.register(toy_template)
            inst = QueryInstance("toy_join", parameters=(500.0, 300.0))
            first = manager.process(inst)
            assert first.used_optimizer
            assert first.certificate == "robust"
            # Force the ladder onto its interval-relaxation step: hits
            # now probe the box shrunk to the brownout coverage and the
            # certificate is honestly downgraded — λ stays untouched.
            manager._overload_coordinator.controller.level = (
                BrownoutLevel.COVERAGE_RELAXED
            )
            second = manager.process(inst)
            assert not second.used_optimizer
            assert second.certified
            assert second.certificate == "probabilistic"
            assert second.coverage == pytest.approx(
                OverloadPolicy().brownout_coverage
            )
        totals = obs.audit.certificate_totals()
        assert totals["robust"] == 1
        assert totals["probabilistic"] == 1

"""Property-based tests of the Theorem 1 guarantee invariants.

Hypothesis strategies draw selectivity vectors (and anchor states) and
assert the algebraic facts the λ-guarantee rests on:

* ``G·L ≥ 1`` for every pair of instances (so the selectivity check can
  never certify a bound better than 1);
* ``G·L`` is invariant to dimension order (the bound is a product over
  per-dimension ratios — no ordering may leak in);
* under the linear BCG bound, the Cost Bounding Lemma confines the
  recost ratio ``R`` to ``[1/L, G]``, so an instance the selectivity
  check certifies can never be rejected by the cost check — the cost
  check is a strict refinement;
* the Appendix E redundancy threshold ``λ_r = √λ`` keeps *transitive*
  sub-optimality within λ: an anchor stored with ``S ≤ √λ`` still has
  enough budget ``λ/S ≥ √λ`` for its own region, so every certificate
  issued through it stays ≤ λ — verified both algebraically and through
  the real :class:`GetPlan` machinery.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import LINEAR_BOUND, compute_gl
from repro.core.get_plan import GetPlan
from repro.core.manage_cache import default_lambda_r
from repro.core.plan_cache import InstanceEntry, PlanCache
from repro.query.instance import SelectivityVector

sel = st.floats(min_value=1e-4, max_value=1.0)


def sv_pairs(min_dim: int = 1, max_dim: int = 6):
    """Strategy: two selectivity vectors of one shared dimensionality."""
    return st.integers(min_value=min_dim, max_value=max_dim).flatmap(
        lambda d: st.tuples(
            st.lists(sel, min_size=d, max_size=d),
            st.lists(sel, min_size=d, max_size=d),
        )
    )


def split_log_distance(t, weights, signs):
    """Split a total log-distance ``t`` across dimensions: one signed
    offset per weight, with absolute values summing to ``t``.

    Normalise each weight *before* scaling by ``t``: ``t * w`` rounds a
    subnormal weight up (``ln 2 · 5e-324`` is ``5e-324``), and dividing
    that by the total would give an offset of 1 instead of ``t``.
    """
    total = sum(weights) or 1.0
    return [sign * t * (w / total) for w, sign in zip(weights, signs)]


def test_split_keeps_subnormal_weights_within_the_distance():
    t = math.log(2.0)
    offsets = split_log_distance(t, [5e-324], [1.0])
    assert abs(sum(offsets)) <= t


@st.composite
def certifiable_scenarios(draw):
    """Strategy: ``(stored, new, λ, S)`` where the selectivity check
    passes *by construction* — no post-hoc filtering.

    Since ``ln(G·L) = Σ_i |ln(new_i/stored_i)|``, drawing a total
    log-distance ``t ≤ ln(λ/S)`` and splitting it across dimensions
    (arbitrary weights and signs) yields a pair with ``G·L ≤ λ/S``.
    Clamping back into the selectivity domain only shrinks per-dimension
    distances, so the bound survives it.
    """
    d = draw(st.integers(min_value=1, max_value=6))
    stored = [draw(sel) for _ in range(d)]
    lam = draw(st.floats(min_value=1.0, max_value=4.0))
    s = min(draw(st.floats(min_value=1.0, max_value=2.0)), lam)
    t = draw(st.floats(min_value=0.0, max_value=1.0)) * math.log(lam / s)
    weights = [draw(st.floats(min_value=0.0, max_value=1.0)) for _ in range(d)]
    signs = [1.0 if draw(st.booleans()) else -1.0 for _ in range(d)]
    new = [
        min(1.0, max(1e-4, sv * math.exp(offset)))
        for sv, offset in zip(stored, split_log_distance(t, weights, signs))
    ]
    return stored, new, lam, s


class TestGLProduct:
    @given(sv_pairs())
    def test_gl_at_least_one(self, pair):
        stored, new = map(SelectivityVector.from_sequence, pair)
        g, l = compute_gl(stored, new)
        assert g >= 1.0
        assert l >= 1.0
        assert g * l >= 1.0

    @given(
        st.integers(min_value=2, max_value=6).flatmap(
            lambda d: st.tuples(
                st.lists(sel, min_size=d, max_size=d),
                st.lists(sel, min_size=d, max_size=d),
                st.permutations(range(d)),
            )
        )
    )
    def test_gl_invariant_to_dimension_order(self, triple):
        stored, new, perm = triple
        g1, l1 = compute_gl(
            SelectivityVector.from_sequence(stored),
            SelectivityVector.from_sequence(new),
        )
        g2, l2 = compute_gl(
            SelectivityVector.from_sequence([stored[i] for i in perm]),
            SelectivityVector.from_sequence([new[i] for i in perm]),
        )
        assert g1 * l1 == pytest.approx(g2 * l2, rel=1e-9)

    @given(sv_pairs())
    def test_gl_symmetric_under_swap(self, pair):
        """Swapping stored/new swaps G and L but preserves the product."""
        a, b = map(SelectivityVector.from_sequence, pair)
        g_ab, l_ab = compute_gl(a, b)
        g_ba, l_ba = compute_gl(b, a)
        assert g_ab * l_ab == pytest.approx(g_ba * l_ba, rel=1e-9)


class TestCostCheckRefinesSelectivityCheck:
    """If the selectivity check certifies, the cost check must agree.

    Under the linear BCG assumption the Cost Bounding Lemma bounds the
    observed recost ratio by ``1/L ≤ R ≤ G``; the cost-check bound
    ``R·L`` is then at most ``G·L``, so any anchor passing
    ``G·L ≤ λ/S`` also passes ``R·L ≤ λ/S``.
    """

    @given(
        certifiable_scenarios(),
        st.floats(min_value=0.0, max_value=1.0),   # R's position in [1/L, G]
    )
    def test_never_certifies_what_cost_check_rejects(self, scenario, frac):
        stored_v, new_v, lam, s = scenario
        stored, new = map(SelectivityVector.from_sequence, (stored_v, new_v))
        g, l = compute_gl(stored, new)
        budget = lam / s
        # By construction of the strategy the selectivity check certifies
        # this pair (an assert, not an assume: if the construction drifts
        # the test fails loudly instead of silently filtering).
        assert LINEAR_BOUND.selectivity_bound(g, l) <= budget * (1 + 1e-9)
        # Any recost ratio the BCG assumption allows:
        r = (1.0 / l) + frac * (g - 1.0 / l)
        assert LINEAR_BOUND.cost_bound(r, l) <= budget * (1 + 1e-9)

    @given(sv_pairs())
    def test_cost_bound_never_looser_than_selectivity_bound(self, pair):
        stored, new = map(SelectivityVector.from_sequence, pair)
        g, l = compute_gl(stored, new)
        for frac in (0.0, 0.5, 1.0):
            r = (1.0 / l) + frac * (g - 1.0 / l)
            assert (
                LINEAR_BOUND.cost_bound(r, l)
                <= LINEAR_BOUND.selectivity_bound(g, l) * (1 + 1e-9)
            )


class TestRedundancyTransitivity:
    @given(st.floats(min_value=1.0, max_value=16.0))
    def test_default_lambda_r_is_sqrt(self, lam):
        assert default_lambda_r(lam) == pytest.approx(math.sqrt(lam))

    @given(
        st.floats(min_value=1.0, max_value=16.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_transitive_suboptimality_bounded(self, lam, s_frac, gl_frac):
        """S ≤ √λ and G·L within the anchor's budget ⇒ S·G·L ≤ λ."""
        lambda_r = default_lambda_r(lam)
        s = 1.0 + s_frac * (lambda_r - 1.0)          # anchor stored with S ≤ λ_r
        gl = 1.0 + gl_frac * (lam / s - 1.0)          # passes G·L ≤ λ/S
        assert s * gl <= lam * (1 + 1e-9)

    @given(
        st.lists(
            st.tuples(
                st.lists(sel, min_size=2, max_size=2),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=1,
            max_size=8,
        ),
        st.lists(sel, min_size=2, max_size=2),
        st.floats(min_value=1.0, max_value=4.0),
    )
    @settings(deadline=None)
    def test_getplan_certificates_never_exceed_lambda(
        self, anchors, query, lam
    ):
        """End-to-end: every hit the real GetPlan machinery certifies —
        selectivity or cost check, through anchors stored with any
        S ≤ λ_r — carries an inferred bound ≤ λ."""
        lambda_r = default_lambda_r(lam)
        cache = PlanCache()
        for sv_values, s_frac in anchors:
            plan = _FakePlan()
            cached = cache.add_plan(plan, _FakeMemo(plan.signature()))
            cache.add_instance(InstanceEntry(
                sv=SelectivityVector.from_sequence(sv_values),
                plan_id=cached.plan_id,
                optimal_cost=100.0,
                suboptimality=1.0 + s_frac * (lambda_r - 1.0),
            ))
        get_plan = GetPlan(cache=cache, lam=lam)
        sv = SelectivityVector.from_sequence(query)

        def bcg_consistent_recost(memo, new_sv):
            # Worst BCG-allowed growth: R = G relative to the candidate
            # anchor currently being cost-checked.  Conservative for all.
            best = min(
                (compute_gl(e.sv, new_sv) for e in cache.instances()),
                key=lambda gl: gl[0] * gl[1],
            )
            return 100.0 * best[0]

        decision = get_plan.probe(sv, bcg_consistent_recost)
        get_plan.commit(decision)
        if decision.hit:
            assert decision.inferred_suboptimality <= lam * (1 + 1e-9)


class _FakePlan:
    _counter = 0

    def __init__(self):
        _FakePlan._counter += 1
        self._sig = f"fake-plan-{_FakePlan._counter}"

    def signature(self) -> str:
        return self._sig


class _FakeMemo:
    node_count = 1

    def __init__(self, signature: str):
        self.signature = signature

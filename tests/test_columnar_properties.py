"""Property tests for the columnar instance store and its kernels.

Four invariant families, driven by Hypothesis plus explicit edge cases:

* **kernel parity** — the vectorized G·L (and corner G·L, and the
  cost check's row kernel) of every (point, anchor) pair is
  bit-identical to the scalar reference, so the vectorized row minimum
  equals the scalar per-instance minimum — including α == 1 exactly,
  the selectivity floor against 1.0, denormals, zero-width boxes, d = 1
  and 16, an N = 1 view and the empty view;
* **plan heads** — per plan, the first row attaining the plan's
  smallest order key, ties and keyless plans included;
* **view consistency** — after an arbitrary sequence of cache
  operations (add plan / add instance / drop plan / retire / adopt /
  recalibrate), the columnar view's arrays always mirror the snapshot's
  entry tuple field for field and are byte-equal to a from-scratch
  build, copy-on-write hands out the same view object between
  mutations, appends *extend* the previous view without touching it,
  and every non-append mutation forces a rebuild — including when a
  racing reader publishes a view built from a pre-drop snapshot;
* **batch ≡ sequential** — ``probe_batch`` returns exactly the
  decisions of a sequential ``probe`` loop over the same snapshot.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import adversarial_corner, compute_gl
from repro.core.columnar import (
    ColumnarInstances,
    corner_gl_matrix,
    cost_corner_gl,
    gl_matrix,
)
from repro.core.get_plan import GetPlan
from repro.core.plan_cache import CachedPlan, InstanceEntry, PlanCache
from repro.obs.calibration import recost_sweep
from repro.query.instance import (
    SELECTIVITY_FLOOR,
    SelectivityVector,
    UncertainSelectivityVector,
)

from reference_get_plan import compute_cost_gl, cost_corner, sv_product

selectivities = st.floats(
    min_value=1e-6, max_value=1.0,
    allow_nan=False, allow_infinity=False,
)


def sv_lists(dims: int):
    return st.lists(selectivities, min_size=dims, max_size=dims)


class _StubMemo:
    node_count = 1


def _cache_with(svs: list[list[float]]) -> PlanCache:
    cache = PlanCache()
    plan = CachedPlan(
        plan_id=0, signature="p0", plan=None, shrunken_memo=_StubMemo()
    )
    cache._plans[0] = plan
    cache._by_signature["p0"] = 0
    cache._next_plan_id = 1
    cache._mutated()
    for i, values in enumerate(svs):
        cache.add_instance(
            InstanceEntry(
                sv=SelectivityVector.from_sequence(values),
                plan_id=0,
                optimal_cost=100.0 + i,
                suboptimality=1.0 + (i % 5) / 10.0,
            )
        )
    return cache


# -- kernel parity ------------------------------------------------------------


def _anchor_matrix(anchors: list[list[float]]) -> np.ndarray:
    """The view's layout: dimension-major, C-contiguous ``(d, N)``."""
    return np.ascontiguousarray(np.array(anchors, dtype=np.float64).T)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    dims=st.integers(min_value=1, max_value=8),
)
def test_gl_matrix_is_bit_identical_to_scalar(data, dims):
    anchors = data.draw(st.lists(sv_lists(dims), min_size=1, max_size=12))
    point_vals = data.draw(sv_lists(dims))
    point = SelectivityVector.from_sequence(point_vals)
    sv_mat = _anchor_matrix(anchors)
    g_m, l_m = gl_matrix(sv_mat, np.array([point_vals], dtype=np.float64))
    for row, anchor_vals in enumerate(anchors):
        anchor = SelectivityVector.from_sequence(anchor_vals)
        g, l = compute_gl(anchor, point)
        assert g_m[0, row] == g
        assert l_m[0, row] == l


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    dims=st.integers(min_value=1, max_value=6),
)
def test_corner_gl_matrix_matches_adversarial_corner(data, dims):
    anchors = data.draw(st.lists(sv_lists(dims), min_size=1, max_size=10))
    point_vals = data.draw(sv_lists(dims))
    widen = data.draw(
        st.lists(
            st.tuples(
                st.floats(min_value=0.2, max_value=1.0, allow_nan=False),
                st.floats(min_value=1.0, max_value=5.0, allow_nan=False),
            ),
            min_size=dims, max_size=dims,
        )
    )
    lo_vals = [max(1e-6, p * w[0]) for p, w in zip(point_vals, widen)]
    hi_vals = [min(1.0, max(p, p * w[1])) for p, w in zip(point_vals, widen)]
    lo_vals = [min(lo, p) for lo, p in zip(lo_vals, point_vals)]
    box = UncertainSelectivityVector(
        point=SelectivityVector.from_sequence(point_vals),
        lo=SelectivityVector.from_sequence(lo_vals),
        hi=SelectivityVector.from_sequence(hi_vals),
    )
    sv_mat = _anchor_matrix(anchors)
    gc_m, lc_m = corner_gl_matrix(
        sv_mat,
        np.array([lo_vals], dtype=np.float64),
        np.array([hi_vals], dtype=np.float64),
    )
    for row, anchor_vals in enumerate(anchors):
        anchor = SelectivityVector.from_sequence(anchor_vals)
        corner = adversarial_corner(anchor, box)
        gc, lc = compute_gl(anchor, corner)
        assert gc_m[0, row] == gc
        assert lc_m[0, row] == lc


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    dims=st.integers(min_value=1, max_value=6),
    zero_width=st.booleans(),
)
def test_cost_corner_gl_matches_scalar_cost_corner(data, dims, zero_width):
    """The cost check's row kernel against ``cost_corner`` +
    ``compute_cost_gl`` per anchor; a zero-width box reproduces the
    point check's ``(1.0, L)`` bit for bit."""
    anchors = data.draw(st.lists(sv_lists(dims), min_size=1, max_size=10))
    point_vals = data.draw(sv_lists(dims))
    if zero_width:
        lo_vals = hi_vals = point_vals
    else:
        shrink = data.draw(st.lists(
            st.floats(min_value=0.2, max_value=1.0, allow_nan=False),
            min_size=dims, max_size=dims,
        ))
        grow = data.draw(st.lists(
            st.floats(min_value=1.0, max_value=5.0, allow_nan=False),
            min_size=dims, max_size=dims,
        ))
        lo_vals = [max(1e-6, p * w) for p, w in zip(point_vals, shrink)]
        lo_vals = [min(lo, p) for lo, p in zip(lo_vals, point_vals)]
        hi_vals = [min(1.0, max(p, p * w)) for p, w in zip(point_vals, grow)]
    point = SelectivityVector.from_sequence(point_vals)
    box = UncertainSelectivityVector(
        point=point,
        lo=SelectivityVector.from_sequence(lo_vals),
        hi=SelectivityVector.from_sequence(hi_vals),
    )
    g_v, l_v = cost_corner_gl(
        _anchor_matrix(anchors),
        np.array(point_vals, dtype=np.float64),
        np.array(lo_vals, dtype=np.float64),
        np.array(hi_vals, dtype=np.float64),
    )
    for row, anchor_vals in enumerate(anchors):
        anchor = SelectivityVector.from_sequence(anchor_vals)
        g, l = compute_cost_gl(point, anchor, cost_corner(point, anchor, box))
        assert (g_v[row], l_v[row]) == (g, l)
        if zero_width:
            assert (g, l) == (1.0, compute_gl(anchor, point)[1])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dims=st.integers(min_value=1, max_value=6))
def test_vectorized_row_min_equals_scalar_min(data, dims):
    anchors = data.draw(st.lists(sv_lists(dims), min_size=1, max_size=15))
    point_vals = data.draw(sv_lists(dims))
    point = SelectivityVector.from_sequence(point_vals)
    sv_mat = _anchor_matrix(anchors)
    g_m, l_m = gl_matrix(sv_mat, np.array([point_vals], dtype=np.float64))
    vec_min = float((g_m[0] * l_m[0]).min())
    scalar_products = []
    for anchor_vals in anchors:
        g, l = compute_gl(SelectivityVector.from_sequence(anchor_vals), point)
        scalar_products.append(g * l)
    assert vec_min == min(scalar_products)


def _random_rows(seed: int, n: int, dims: int) -> list[list[float]]:
    import random

    rng = random.Random(seed)
    return [[10 ** rng.uniform(-6, 0) for _ in range(dims)] for _ in range(n)]


FLOOR = SELECTIVITY_FLOOR
DENORMAL = 5e-324

#: (anchors, points) at the boundaries of the kernels' arithmetic.
EDGE_CASES = {
    # α == 1.0 exactly: the scalar loop skips the dimension, the fold
    # multiplies/divides by exactly 1.0.
    "alpha_one_in_some_dims": (
        [[0.1, 0.2, 0.3], [0.1, 0.25, 0.3]], [[0.1, 0.5, 0.3], [0.4, 0.2, 0.3]],
    ),
    "alpha_one_in_all_dims": ([[0.1, 0.2, 0.3]], [[0.1, 0.2, 0.3]]),
    # The floor against 1.0: G or L reaches 1e6^d.
    "floor_vs_one_d6": (
        [[FLOOR] * 6, [1.0] * 6], [[1.0] * 6, [FLOOR] * 6, [FLOOR, 1.0] * 3],
    ),
    "floor_vs_one_d16": ([[FLOOR] * 16, [1.0] * 16], [[1.0] * 16, [FLOOR] * 16]),
    # Denormals: ratios overflow to inf in the scalar loop and the
    # kernel alike.
    "denormals": (
        [[DENORMAL, 1e-310], [1.0, 2.2e-308], [1e-310, DENORMAL]],
        [[1.0, DENORMAL], [DENORMAL, DENORMAL], [3e-310, 1.0]],
    ),
    "d1": ([[0.3], [1.0], [FLOOR]], [[0.3], [0.9], [FLOOR], [1.0]]),
    "d16": (_random_rows(1, 9, 16), _random_rows(2, 4, 16)),
    # An N = 1 view, probed with B = 1 and B > 1.
    "one_anchor": (_random_rows(3, 1, 4), _random_rows(4, 5, 4)),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_kernels_are_bit_identical_at_the_edges(case):
    """Point, corner and cost-corner kernels against the scalar loops at
    explicit boundary inputs, once as a whole batch and once per point
    (B = 1)."""
    anchors, points = EDGE_CASES[case]
    sv_mat = _anchor_matrix(anchors)
    anchor_svs = [SelectivityVector.from_sequence(a) for a in anchors]
    # Zero-width, one-sided and full-range boxes around each point.
    boxes = []
    for i, p in enumerate(points):
        lo = [p, [min(v, FLOOR) for v in p], [DENORMAL] * len(p)][i % 3]
        hi = [p, [1.0] * len(p), p][i % 3]
        boxes.append((lo, hi))
    expected = []
    for p, (lo, hi) in zip(points, boxes):
        point = SelectivityVector.from_sequence(p)
        box = UncertainSelectivityVector(
            point=point,
            lo=SelectivityVector.from_sequence(lo),
            hi=SelectivityVector.from_sequence(hi),
        )
        expected.append([
            compute_gl(a, point) + compute_gl(a, adversarial_corner(a, box))
            + compute_cost_gl(point, a, cost_corner(point, a, box))
            for a in anchor_svs
        ])
    batches = [list(range(len(points)))] + [[i] for i in range(len(points))]
    with np.errstate(over="ignore"):
        for rows in batches:
            pts = np.array([points[i] for i in rows], dtype=np.float64)
            lo = np.array([boxes[i][0] for i in rows], dtype=np.float64)
            hi = np.array([boxes[i][1] for i in rows], dtype=np.float64)
            g_m, l_m = gl_matrix(sv_mat, pts)
            gc_m, lc_m = corner_gl_matrix(sv_mat, lo, hi)
            assert g_m.shape == l_m.shape == gc_m.shape == (len(rows), len(anchors))
            for b, i in enumerate(rows):
                gg, ll = cost_corner_gl(sv_mat, pts[b], lo[b], hi[b])
                for n in range(len(anchors)):
                    got = (
                        g_m[b, n], l_m[b, n], gc_m[b, n], lc_m[b, n],
                        gg[n], ll[n],
                    )
                    assert got == expected[i][n], (case, i, n)


def test_kernels_and_probes_on_an_empty_view():
    view = PlanCache().columnar()
    assert len(view) == 0 and view.dimensions == 0
    assert view.sv.shape == view.log_sv.shape == (0, 0)
    # Zero anchors of a known dimensionality: (B, 0) factor matrices.
    pts = np.array(_random_rows(5, 3, 4), dtype=np.float64)
    for m in (
        gl_matrix(np.empty((4, 0)), pts)
        + corner_gl_matrix(np.empty((4, 0)), pts, pts)
    ):
        assert m.shape == (3, 0)
    get_plan = GetPlan(cache=PlanCache(), lam=2.0)
    svs = [SelectivityVector.from_sequence(p) for p in pts.tolist()]
    decisions = [get_plan.probe(svs[0], _recost)] + get_plan.probe_batch(
        svs, _recost
    )
    assert not any(d.hit for d in decisions)
    assert get_plan.entries_scanned == 0


# -- plan heads: each plan's first minimum-key row -----------------------------


#: Few distinct values, so ties are the rule; ``inf`` marks a row the
#: cost phase masked out (a retired anchor).
tied_keys = st.lists(
    st.sampled_from([1.0, 1.5, 2.0, 2.0000000000000004, 7.0, 1e300, np.inf]),
    min_size=0, max_size=40,
)


def _view_over_plans(plan_ids: list[int]) -> ColumnarInstances:
    return ColumnarInstances.build(-1, [
        InstanceEntry(
            sv=SelectivityVector.of(0.5), plan_id=p,
            optimal_cost=1.0, suboptimality=1.0,
        )
        for p in plan_ids
    ])


def _assert_plan_heads(keys, plan_ids, key):
    view = _view_over_plans(plan_ids)
    plans, slot = view.plan_slots
    assert plans.tolist() == sorted(set(plan_ids))
    assert plans[slot].tolist() == plan_ids
    low, head = view.plan_heads(key)
    for s, plan in enumerate(plans.tolist()):
        # A plan whose rows are all masked out reads (+inf, its first row).
        assert (low[s], head[s]) == min(
            (keys[i], i) for i, p in enumerate(plan_ids) if p == plan
        )


@settings(max_examples=300, deadline=None)
@given(keys=tied_keys, data=st.data(), as_rank=st.booleans())
def test_plan_heads_are_each_plans_first_minimum(keys, data, as_rank):
    plan_ids = data.draw(st.lists(
        st.sampled_from([0, 3, 4, 90_000]),
        min_size=len(keys), max_size=len(keys),
    ))
    key = np.array(keys, dtype=np.float64)
    if as_rank:
        # The USAGE key: unique int64 ranks.
        key = np.argsort(np.argsort(key, kind="stable"), kind="stable")
        keys = key.tolist()
    _assert_plan_heads(keys, plan_ids, key)


@pytest.mark.parametrize(
    "keys, plan_ids",
    [
        ([3.0, 1.0, 2.0, 2.0, 2.0, 0.5], [7, 7, 8, 8, 9, 9]),  # ties inside a plan
        ([2.0, 2.0, 2.0, 2.0], [5, 4, 5, 4]),           # equal minima across plans
        ([4.0] * 7, [1] * 7),                           # one plan, all equal
        ([np.inf, np.inf, 1.0], [0, 0, 1]),             # a plan with no live row
        ([np.inf] * 3, [2, 1, 0]),                      # nothing live at all
        ([1e308, 1e-308, 1e308, 0.0], [0, 1, 0, 1]),    # very large keys
    ],
)
def test_plan_heads_explicit_tie_cases(keys, plan_ids):
    _assert_plan_heads(keys, plan_ids, np.array(keys, dtype=np.float64))


# -- view consistency over arbitrary op sequences -----------------------------


cache_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add_plan"), st.integers(0, 1_000_000)),
        st.tuples(st.just("add_instance"), st.integers(0, 1_000_000)),
        st.tuples(st.just("drop_plan"), st.integers(0, 30)),
        st.tuples(st.just("retire"), st.integers(0, 200)),
        st.tuples(st.just("adopt"), st.integers(0, 4)),
        st.tuples(st.just("recalibrate"), st.integers(1, 50)),
        st.tuples(st.just("probe_view"), st.just(0)),
    ),
    min_size=1, max_size=40,
)


COLUMNS = tuple(
    f.name for f in dataclasses.fields(ColumnarInstances)
    if f.name not in ("epoch", "entries", "lineage")
)


def _column_bytes(view: ColumnarInstances) -> dict[str, bytes]:
    return {name: getattr(view, name).tobytes() for name in COLUMNS}


@contextmanager
def _extension_tails():
    """Record the tail length of every ``ColumnarInstances.extended``."""
    tails: list[int] = []
    original = ColumnarInstances.extended

    def spy(self, epoch, entries):
        tails.append(len(entries) - len(self))
        return original(self, epoch, entries)

    ColumnarInstances.extended = spy
    try:
        yield tails
    finally:
        ColumnarInstances.extended = original


def _sweep(cache: PlanCache, scale: float):
    """``SCR.recalibrate`` against a stand-in engine: every anchor's
    pointed plan re-measures at a cost that depends on ``scale``."""
    scr = SimpleNamespace(
        cache=cache,
        engine=SimpleNamespace(
            recost=lambda memo, sv: scale * (50.0 + 1000.0 * sv[0]),
            template=SimpleNamespace(name="t"),
        ),
        obs=None,
    )
    return recost_sweep(scr)


def _assert_view_consistent(cache: PlanCache) -> None:
    entries = tuple(cache.instances())
    view = cache.columnar()
    assert view.epoch == cache.epoch
    assert len(view.entries) == len(entries)
    assert all(a is b for a, b in zip(view.entries, entries))
    assert len(view) == len(entries)
    if len(view):
        # Dimension-major and contiguous, extended or rebuilt.
        assert view.sv.shape == view.log_sv.shape == (
            len(entries[0].sv), len(view)
        )
        assert view.sv.flags.c_contiguous and view.log_sv.flags.c_contiguous
    for i, entry in enumerate(entries):
        assert tuple(view.sv[:, i]) == entry.sv.values
        assert view.sub[i] == entry.suboptimality
        assert view.cost[i] == entry.optimal_cost
        assert int(view.plan_ids[i]) == entry.plan_id
        assert view.area[i] == sv_product(entry)
    # Extended or rebuilt, the view is byte-for-byte a from-scratch build.
    fresh = ColumnarInstances.build(cache.epoch, tuple(cache.instances()))
    assert _column_bytes(view) == _column_bytes(fresh)
    for name in COLUMNS:
        assert getattr(view, name).shape == getattr(fresh, name).shape
        assert getattr(view, name).dtype == getattr(fresh, name).dtype
    # So is its plan layout, carried across appends or built afresh.
    _assert_same_arrays(view.plan_slots, fresh.plan_slots)
    assert len(view.plan_groups) == len(fresh.plan_groups)
    for carried, built in zip(view.plan_groups, fresh.plan_groups):
        _assert_same_arrays(carried, built)


def _assert_same_arrays(a, b) -> None:
    for x, y in zip(a, b, strict=True):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


@settings(max_examples=100, deadline=None)
@given(ops=cache_ops, seed=st.integers(0, 2**16))
def test_columnar_view_tracks_cache_through_op_sequences(ops, seed):
    import random

    rng = random.Random(seed)
    cache = PlanCache()
    next_sig = [0]

    def ensure_plan() -> int:
        if not cache._plans:
            plan = CachedPlan(
                plan_id=cache._next_plan_id,
                signature=f"s{next_sig[0]}",
                plan=None,
                shrunken_memo=_StubMemo(),
            )
            next_sig[0] += 1
            cache._plans[plan.plan_id] = plan
            cache._by_signature[plan.signature] = plan.plan_id
            cache._next_plan_id += 1
            cache._mutated()
        return rng.choice(list(cache._plans))

    def random_entry(plan_id: int, arg: int) -> InstanceEntry:
        return InstanceEntry(
            sv=SelectivityVector.from_sequence(
                [10 ** rng.uniform(-4, 0) for _ in range(3)]
            ),
            plan_id=plan_id,
            optimal_cost=float(arg % 997 + 1),
            suboptimality=1.0 + (arg % 7) / 10.0,
        )

    # Every view ever handed out, with its bytes at that moment: later
    # appends extend *copies*, so none of them may change.
    held: list[tuple[ColumnarInstances, dict[str, bytes]]] = []

    for op, arg in ops:
        before = cache.columnar()
        held.append((before, _column_bytes(before)))
        rewritten = False  # did the op do anything other than append?
        if op == "add_plan":
            plan = CachedPlan(
                plan_id=cache._next_plan_id,
                signature=f"s{next_sig[0]}",
                plan=None,
                shrunken_memo=_StubMemo(),
            )
            next_sig[0] += 1
            cache._plans[plan.plan_id] = plan
            cache._by_signature[plan.signature] = plan.plan_id
            cache._next_plan_id += 1
            cache._mutated()
        elif op == "adopt":
            other = PlanCache()
            other._next_plan_id = cache._next_plan_id
            plan = CachedPlan(
                plan_id=other._next_plan_id,
                signature=f"s{next_sig[0]}",
                plan=None,
                shrunken_memo=_StubMemo(),
            )
            next_sig[0] += 1
            other._plans[plan.plan_id] = plan
            other._by_signature[plan.signature] = plan.plan_id
            other._next_plan_id += 1
            for i in range(arg):
                other.add_instance(random_entry(plan.plan_id, i))
            cache.adopt(other)
            rewritten = True
        elif op == "recalibrate":
            rewritten = _sweep(cache, scale=float(arg)).refreshed > 0
        elif op == "add_instance":
            cache.add_instance(random_entry(ensure_plan(), arg))
        elif op == "drop_plan":
            if cache._plans:
                victim = sorted(cache._plans)[arg % len(cache._plans)]
                cache.drop_plan(victim)
                rewritten = True
        elif op == "retire":
            entries = list(cache.instances())
            if entries:
                entries[arg % len(entries)].retired = True
        else:  # probe_view: exercise COW identity between mutations
            assert cache.columnar() is before
        with _extension_tails() as tails:
            after = cache.columnar()
        if rewritten:
            # Not an append: the next view is rebuilt, never extended.
            assert tails == [] and after is not before
        _assert_view_consistent(cache)
    _assert_view_consistent(cache)
    for view, frozen in held:
        assert _column_bytes(view) == frozen


def test_columnar_view_identity_is_stable_between_mutations():
    cache = _cache_with([[0.1, 0.2], [0.3, 0.4]])
    view = cache.columnar()
    assert cache.columnar() is view
    # Retiring flips a flag without an epoch bump: view object unchanged
    # (the flag is read live off the entries, never from the arrays).
    next(iter(cache.instances())).retired = True
    assert cache.columnar() is view
    # A structural mutation invalidates it.
    cache.add_instance(
        InstanceEntry(
            sv=SelectivityVector.of(0.5, 0.5), plan_id=0,
            optimal_cost=1.0, suboptimality=1.0,
        )
    )
    assert cache.columnar() is not view
    _ = cache.columnar()


def _entry(values, plan_id: int = 0) -> InstanceEntry:
    return InstanceEntry(
        sv=SelectivityVector.from_sequence(values), plan_id=plan_id,
        optimal_cost=10.0, suboptimality=1.0,
    )


def test_appends_extend_the_view_and_leave_the_old_one_alone():
    cache = _cache_with([[0.1, 0.2], [0.3, 0.4]])
    old = cache.columnar()
    frozen = _column_bytes(old)
    with _extension_tails() as tails:
        cache.add_instance(_entry([0.5, 0.5]))
        mid = cache.columnar()
        cache.add_instance(_entry([0.6, 0.1]))
        cache.add_instance(_entry([0.7, 0.2]))
        new = cache.columnar()
    assert tails == [1, 2]
    assert len(old) == 2 and len(mid) == 3 and len(new) == 5
    assert _column_bytes(old) == frozen
    assert not np.shares_memory(old.sv, new.sv)
    _assert_view_consistent(cache)


def test_extension_inserts_an_older_plans_first_row_mid_layout():
    """Two plans added, then a row of the older one: its slot lands
    between the plans the view already had and the shifted newer ones,
    and every group still matches a fresh build's."""
    cache = _cache_with([[0.1, 0.2], [0.3, 0.4]])  # plan 0
    for plan_id in (1, 2):
        cache._plans[plan_id] = CachedPlan(
            plan_id=plan_id, signature=f"p{plan_id}", plan=None,
            shrunken_memo=_StubMemo(),
        )
        cache._next_plan_id = plan_id + 1
        cache._mutated()
    cache.add_instance(_entry([0.5, 0.5], plan_id=2))
    before = cache.columnar()
    assert before.plan_slots[0].tolist() == [0, 2]
    cache.add_instance(_entry([0.6, 0.1], plan_id=1))
    cache.add_instance(_entry([0.7, 0.2], plan_id=0))
    with _extension_tails() as tails:
        view = cache.columnar()
    assert tails == [2]
    plans, slot = view.plan_slots
    assert plans.tolist() == [0, 1, 2] and slot.tolist() == [0, 0, 2, 1, 0]
    assert [g.rows.tolist() for g in view.plan_groups] == [[0, 1, 4], [3], [2]]
    assert before.plan_slots[1].tolist() == [0, 0, 1]  # the old view's own
    _assert_view_consistent(cache)


def test_extension_builds_rows_linear_in_misses(monkeypatch):
    """500 misses columnarise ~500 rows in total, not ~500²/2."""
    built: list[int] = []
    original = ColumnarInstances.build.__func__

    def counting_build(cls, epoch, entries, lineage=-1):
        entries = tuple(entries)
        built.append(len(entries))
        return original(cls, epoch, entries, lineage)

    monkeypatch.setattr(ColumnarInstances, "build", classmethod(counting_build))
    cache = _cache_with([])
    get_plan = GetPlan(cache=cache, lam=1.2)
    misses = 500
    for i in range(misses):
        # A 25 x 20 grid with neighbours a factor 1.7 apart: no anchor
        # is ever within λ of a later point.
        point = SelectivityVector.of(1e-6 * 1.7 ** (i % 25), 1e-6 * 1.7 ** (i // 25))
        assert not get_plan.probe(point, lambda memo, sv: 1e12).hit
        cache.add_instance(_entry(point.values))
    assert len(cache.columnar()) == misses
    assert sum(built) <= 2 * misses


def test_stale_view_published_by_a_racing_reader_is_rebuilt_not_extended():
    """Epoch inequality is not evidence of append-only history.

    A lock-free reader reads the lineage, snapshots, and is descheduled;
    a writer drops a plan (removing a middle row); the reader then
    finishes and publishes the view it built from the pre-drop snapshot.
    The next ``columnar()`` must not extend that view.
    """
    cache = _cache_with([[0.1, 0.2]])
    doomed = CachedPlan(plan_id=1, signature="p1", plan=None, shrunken_memo=_StubMemo())
    cache._plans[1] = doomed
    cache._by_signature["p1"] = 1
    cache._next_plan_id = 2
    cache._mutated()
    cache.add_instance(_entry([0.2, 0.2], plan_id=1))
    cache.add_instance(_entry([0.3, 0.4]))

    reader_lineage = cache.lineage          # reader: lineage first ...
    reader_epoch, reader_rows = cache.epoch, tuple(cache.instances())
    cache.drop_plan(1)                      # writer: middle row gone
    cache._columnar = ColumnarInstances.build(   # reader publishes late
        reader_epoch, reader_rows, reader_lineage
    )
    cache.add_instance(_entry([0.9, 0.9]))  # same length as the stale view

    with _extension_tails() as tails:
        view = cache.columnar()
    assert tails == []
    assert [e.plan_id for e in view.entries] == [0, 0, 0]
    _assert_view_consistent(cache)

    # The boundary check alone also catches it: forge the current
    # lineage onto an equally stale view and the last-row identity test
    # (entries[2] is now the new row, not the stale view's) still fails.
    cache._columnar = ColumnarInstances.build(
        reader_epoch, reader_rows, cache.lineage
    )
    cache.add_instance(_entry([0.8, 0.8]))
    with _extension_tails() as tails:
        cache.columnar()
    assert tails == []
    _assert_view_consistent(cache)


def test_stale_view_published_across_a_recost_sweep_is_rebuilt():
    """The case only the lineage rule catches: a sweep rewrites costs in
    place, so every row of the late-published view is still the same
    entry object at the same index — and its cost column is stale."""
    cache = _cache_with([[0.1, 0.2], [0.3, 0.4]])
    reader_lineage = cache.lineage
    stale = ColumnarInstances.build(
        cache.epoch, tuple(cache.instances()), reader_lineage
    )
    assert _sweep(cache, scale=3.0).refreshed == 2
    cache._columnar = stale                 # reader publishes late
    cache.add_instance(_entry([0.9, 0.9]))
    with _extension_tails() as tails:
        view = cache.columnar()
    assert tails == []
    assert view.cost[0] != stale.cost[0]
    _assert_view_consistent(cache)


def test_reader_stalled_inside_columnar_across_a_sweep_rebuilds(monkeypatch):
    """Reader B reads the lineage inside ``columnar()`` and stalls before
    its (epoch, rows) read.  Meanwhile a sweep rewrites costs, reader A
    publishes its pre-sweep view (tagged with the lineage both readers
    saw) and a miss appends.  B's first lineage read matches A's view
    and every row is the same object at the same index; only the
    lineage re-read after the rows shows the view is stale."""
    cache = _cache_with([[0.1, 0.2], [0.3, 0.4]])
    stale = ColumnarInstances.build(
        cache.epoch, tuple(cache.instances()), cache.lineage
    )
    rows = cache._rows

    def stalled_rows():
        # Runs after B's first lineage read, before B's (epoch, rows).
        monkeypatch.setattr(cache, "_rows", rows)
        assert _sweep(cache, scale=3.0).refreshed == 2
        cache._columnar = stale             # reader A publishes late
        cache.add_instance(_entry([0.9, 0.9]))
        return rows()

    monkeypatch.setattr(cache, "_rows", stalled_rows)
    with _extension_tails() as tails:
        view = cache.columnar()             # reader B
    assert tails == []
    assert len(view) == 3 and view.cost[0] != stale.cost[0]
    # B's view carries the lineage it read first, so it is not extended
    # later either; the cache rebuilds once more and is then current.
    assert view.lineage < cache.lineage
    cache.add_instance(_entry([0.8, 0.8]))
    with _extension_tails() as tails:
        cache.columnar()
    assert tails == []
    _assert_view_consistent(cache)


def test_recalibrate_rebuilds_the_view(toy_engine, toy_template):
    from repro.core.scr import SCR
    from repro.workload.generator import instances_for_template

    scr = SCR(toy_engine, lam=1.2)
    for instance in instances_for_template(toy_template, 60, seed=3):
        scr.process(instance)
    before = scr.cache.columnar()
    assert len(before) > 1
    with _extension_tails() as tails:
        result = scr.recalibrate()
        after = scr.cache.columnar()
    assert result.refreshed > 0
    assert tails == [] and after is not before
    assert after.lineage == scr.cache.lineage > before.lineage
    _assert_view_consistent(scr.cache)


def test_empty_cache_columnar_view():
    cache = PlanCache()
    view = cache.columnar()
    assert len(view) == 0
    assert view.sv.shape[0] == 0


# -- probe_batch ≡ sequential probe loop --------------------------------------


def _recost(memo, point: SelectivityVector) -> float:
    return 75.0 + hash(point.values) % 500


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    dims=st.integers(min_value=1, max_value=5),
)
def test_probe_batch_equals_sequential_probes(data, dims):
    anchors = data.draw(st.lists(sv_lists(dims), min_size=0, max_size=20))
    points = data.draw(st.lists(sv_lists(dims), min_size=0, max_size=30))
    cache = _cache_with(anchors)
    batch_gp = GetPlan(cache=cache, lam=1.7)
    seq_gp = GetPlan(cache=cache, lam=1.7)
    svs = [SelectivityVector.from_sequence(p) for p in points]
    batch = batch_gp.probe_batch(svs, _recost)
    sequential = [seq_gp.probe(sv, _recost) for sv in svs]
    assert len(batch) == len(sequential)
    for db, ds in zip(batch, sequential):
        assert db.check == ds.check
        assert db.plan_id == ds.plan_id
        assert db.anchor is ds.anchor
        assert db.recost_calls == ds.recost_calls
        assert db.g == ds.g and db.l == ds.l
        assert db.bound_value == ds.bound_value
    assert batch_gp.entries_scanned == seq_gp.entries_scanned


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    dims=st.integers(min_value=1, max_value=4),
)
def test_probe_rows_taken_partway_spends_only_the_taken_rows(data, dims):
    """``probe_rows`` decides row by row: the rows taken equal the
    sequential probes, and the rows never taken cost no Recost call and
    no scan."""
    anchors = data.draw(st.lists(sv_lists(dims), min_size=0, max_size=20))
    points = data.draw(st.lists(sv_lists(dims), min_size=1, max_size=20))
    taken = data.draw(st.integers(min_value=0, max_value=len(points)))
    cache = _cache_with(anchors)
    rows_gp = GetPlan(cache=cache, lam=1.7)
    seq_gp = GetPlan(cache=cache, lam=1.7)
    svs = [SelectivityVector.from_sequence(p) for p in points]
    calls = []

    def counted(memo, point):
        calls.append(point)
        return _recost(memo, point)

    rows = rows_gp.probe_rows(svs, counted)
    partial = [next(rows) for _ in range(taken)]
    sequential = [seq_gp.probe(sv, _recost) for sv in svs[:taken]]
    for dr, ds in zip(partial, sequential):
        assert dr.check == ds.check
        assert dr.anchor is ds.anchor
        assert dr.recost_calls == ds.recost_calls
    assert len(calls) == sum(d.recost_calls for d in partial)
    assert rows_gp.entries_scanned == seq_gp.entries_scanned


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_probe_batch_equals_sequential_probes_robust(data):
    dims = 3
    anchors = data.draw(st.lists(sv_lists(dims), min_size=1, max_size=12))
    points = data.draw(st.lists(sv_lists(dims), min_size=1, max_size=15))
    cache = _cache_with(anchors)
    batch_gp = GetPlan(cache=cache, lam=1.7, check_mode="robust")
    seq_gp = GetPlan(cache=cache, lam=1.7, check_mode="robust")
    svs = []
    for p in points:
        lo = [max(1e-6, v * 0.5) for v in p]
        hi = [min(1.0, v * 1.5) for v in p]
        svs.append(
            UncertainSelectivityVector(
                point=SelectivityVector.from_sequence(p),
                lo=SelectivityVector.from_sequence(lo),
                hi=SelectivityVector.from_sequence(hi),
            )
        )
    batch = batch_gp.probe_batch(svs, _recost)
    sequential = [seq_gp.probe(sv, _recost) for sv in svs]
    for db, ds in zip(batch, sequential):
        assert db.check == ds.check
        assert db.plan_id == ds.plan_id
        assert db.anchor is ds.anchor
        assert db.bound_value == ds.bound_value
        assert db.certificate == ds.certificate

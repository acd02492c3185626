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
* **the store** — after an arbitrary sequence of cache operations (add
  plan / add instance / drop plan / retire / commit a hit / coalesce /
  adopt / recost sweep), at initial capacities that make the buffers
  double, every column of the current view, mutable ones included,
  equals an independent per-row model and a fresh store replaying the
  model's records, plan layout included; every view taken earlier has
  write-once columns byte-equal to the copy made when it was taken, and
  reads the mutable ones live from its store; and an append writes one
  row, reading only its own record;
* **batch ≡ sequential** — ``probe_batch`` returns exactly the
  decisions of a sequential ``probe`` loop over the same snapshot.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import adversarial_corner, compute_gl
from repro.core import columnar
from repro.core.columnar import (
    MUTABLE_COLUMNS,
    ColumnarInstances,
    ColumnStore,
    corner_gl_matrix,
    cost_corner_gl,
    gl_matrix,
)
from repro.core.get_plan import CheckKind, GetPlan, GetPlanDecision
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
    dims=st.integers(min_value=1, max_value=8),
)
def test_one_point_kernel_equals_its_row_of_a_chunk(data, dims):
    """A chunk of one runs the kernel on its ``(d,)`` point: ``(N,)``
    vectors, bit for bit that point's row of a larger chunk."""
    anchors = data.draw(st.lists(sv_lists(dims), min_size=1, max_size=12))
    points = data.draw(st.lists(sv_lists(dims), min_size=2, max_size=6))
    sv_mat = _anchor_matrix(anchors)
    g_m, l_m = gl_matrix(sv_mat, np.array(points, dtype=np.float64))
    for b, point_vals in enumerate(points):
        g, l = gl_matrix(sv_mat, np.array(point_vals, dtype=np.float64))
        assert g.shape == l.shape == (len(anchors),)
        assert g.tobytes() == g_m[b].tobytes()
        assert l.tobytes() == l_m[b].tobytes()


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
            if len(rows) == 1:  # the (d,) form of a chunk of one
                g_1, l_1 = gl_matrix(sv_mat, pts[0])
                assert (g_1.tobytes(), l_1.tobytes()) == (
                    g_m[0].tobytes(), l_m[0].tobytes()
                ), case
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
    return ColumnStore([
        InstanceEntry(
            sv=SelectivityVector.of(0.5), plan_id=p,
            optimal_cost=1.0, suboptimality=1.0,
        )
        for p in plan_ids
    ]).view(-1)


def _assert_plan_heads(keys, plan_ids, key):
    view = _view_over_plans(plan_ids)
    plans, slot = view.plan_slots
    assert plans.tolist() == list(dict.fromkeys(plan_ids))
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


# -- the store: views over arbitrary op sequences ------------------------------


cache_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add_plan"), st.integers(0, 1_000_000)),
        st.tuples(st.just("add_instance"), st.integers(0, 1_000_000)),
        st.tuples(st.just("drop_plan"), st.integers(0, 30)),
        st.tuples(st.just("retire"), st.integers(0, 200)),
        st.tuples(st.just("hit"), st.integers(0, 200)),
        st.tuples(st.just("use"), st.integers(0, 200)),
        st.tuples(st.just("adopt"), st.integers(0, 9)),
        st.tuples(st.just("recalibrate"), st.integers(1, 50)),
        st.tuples(st.just("probe_view"), st.just(0)),
    ),
    min_size=1, max_size=40,
)


def _frozen(view: ColumnarInstances, mutable: bool = False) -> tuple:
    """A copy of the write-once part of a view: its epoch and the dtype,
    shape and bytes of every write-once array, plan layout included
    (with ``mutable``, of the mutable columns as well)."""
    arrays = [
        view.stored_sv, view.sv, view.log_sv, view.sub, view.cost,
        view.plan_ids, view.area, *view.plan_slots,
    ]
    for group in view.plan_groups:
        arrays.extend(group)
    if mutable:
        arrays.extend(getattr(view, name) for name in MUTABLE_COLUMNS)
    return (
        view.epoch,
        [(a.dtype.str, a.shape, a.tobytes()) for a in arrays],
    )


def _assert_unchanged(view: ColumnarInstances, frozen: tuple) -> None:
    assert _frozen(view) == frozen


@contextmanager
def _initial_capacity(rows: int):
    """Stores made inside the block start with room for ``rows`` rows."""
    saved = columnar.INITIAL_CAPACITY
    columnar.INITIAL_CAPACITY = rows
    try:
        yield
    finally:
        columnar.INITIAL_CAPACITY = saved


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


def _assert_view_is_a_replay(cache: PlanCache) -> None:
    """The current view mirrors the cache's records field for field, and
    is byte-equal to a fresh store replaying them, plan layout and
    mutable columns included."""
    entries = list(cache.instances())
    view = cache.columnar()
    assert view.epoch == cache.epoch
    assert len(view) == len(entries)
    if len(view):
        # Dimension-major; the kernels' copy is contiguous.
        assert view.sv.shape == view.log_sv.shape == (
            len(entries[0].sv), len(view)
        )
        assert view.sv.flags.c_contiguous
    for i, entry in enumerate(entries):
        assert tuple(view.sv[:, i]) == entry.sv.values
        assert view.sub[i] == entry.suboptimality
        assert view.cost[i] == entry.optimal_cost
        assert int(view.plan_ids[i]) == entry.plan_id
        assert view.area[i] == sv_product(entry)
        for name in MUTABLE_COLUMNS:
            assert getattr(view, name)[i] == getattr(entry, name)
    # Plan slots in order of each plan's first row; each group is its
    # plan's rows, ascending, with their C and S.
    plans, slot = view.plan_slots
    plan_ids = [e.plan_id for e in entries]
    assert plans.tolist() == list(dict.fromkeys(plan_ids))
    assert plans[slot].tolist() == plan_ids
    assert len(view.plan_groups) == len(plans)
    for plan, (rows, cost, sub) in zip(plans.tolist(), view.plan_groups):
        assert rows.tolist() == [i for i, p in enumerate(plan_ids) if p == plan]
        assert cost.tolist() == [entries[i].optimal_cost for i in rows]
        assert sub.tolist() == [entries[i].suboptimality for i in rows]
    replay = ColumnStore(entries).view(cache.epoch)
    assert _frozen(view, mutable=True) == _frozen(replay, mutable=True)


def _add_stub_plan(cache: PlanCache, signature: str) -> int:
    plan = CachedPlan(
        plan_id=cache._next_plan_id, signature=signature, plan=None,
        shrunken_memo=_StubMemo(),
    )
    cache._plans[plan.plan_id] = plan
    cache._by_signature[signature] = plan.plan_id
    cache._next_plan_id += 1
    cache._mutated()
    return plan.plan_id


@settings(max_examples=100, deadline=None)
@given(
    ops=cache_ops, seed=st.integers(0, 2**16),
    capacity=st.sampled_from([1, 2, 64]),
)
def test_columnar_view_tracks_cache_through_op_sequences(ops, seed, capacity):
    import random

    rng = random.Random(seed)
    next_sig = [0]

    def new_plan(cache: PlanCache) -> int:
        next_sig[0] += 1
        return _add_stub_plan(cache, f"s{next_sig[0]}")

    def random_entry(plan_id: int, arg: int) -> InstanceEntry:
        return InstanceEntry(
            sv=SelectivityVector.from_sequence(
                [10 ** rng.uniform(-4, 0) for _ in range(3)]
            ),
            plan_id=plan_id,
            optimal_cost=float(arg % 997 + 1),
            suboptimality=1.0 + (arg % 7) / 10.0,
            usage=rng.randint(1, 9),
            retired=rng.random() < 0.2,
            hits_selectivity=rng.randint(0, 5),
            hits_cost=rng.randint(0, 5),
            recost_spend=rng.randint(0, 9),
            last_hit_tick=rng.randint(-1, 50),
        )

    def edit(row: int, **changes) -> None:
        model[row] = replace(model[row], **changes)

    with _initial_capacity(capacity):
        cache = PlanCache()
        get_plan = GetPlan(cache=cache, lam=2.0)
        # The instance list as a plain list of records, each field
        # written by this test alone: what the cache must hold.
        model: list[InstanceEntry] = []
        # Every view ever handed out, copied when it was taken, with
        # its ``cells`` taken then too: nothing any later op does may
        # change its write-once columns.
        held: list[tuple[ColumnarInstances, tuple, dict]] = []
        for op, arg in ops:
            before = cache.columnar()
            held.append((before, _frozen(before), before.cells))
            if op == "add_plan":
                new_plan(cache)
            elif op == "adopt":
                other = PlanCache()
                other._next_plan_id = cache._next_plan_id
                plan_id = new_plan(other)
                model = [random_entry(plan_id, i) for i in range(arg)]
                for entry in model:
                    other.add_instance(entry)
                cache.adopt(other)
            elif op == "recalibrate":
                _sweep(cache, scale=float(arg))
                # The stand-in engine's fresh pointed cost over the kept
                # S, for every anchor not hit "after" the cache's tick.
                model = [
                    e if cache.tick < e.last_hit_tick else replace(
                        e, optimal_cost=float(arg) * (50.0 + 1000.0 * e.sv[0])
                        / e.suboptimality,
                    )
                    for e in model
                ]
            elif op == "add_instance":
                plan_id = rng.choice(list(cache._plans) or [new_plan(cache)])
                model.append(random_entry(plan_id, arg))
                cache.add_instance(model[-1])
            elif op == "drop_plan":
                if cache._plans:
                    victim = sorted(cache._plans)[arg % len(cache._plans)]
                    cache.drop_plan(victim)
                    model = [e for e in model if e.plan_id != victim]
            elif model and op == "retire":
                # The Appendix G detector's write.
                row = arg % len(model)
                assert before.store.retire(row) == (not model[row].retired)
                edit(row, retired=True)
            elif model and op == "hit":
                # A getPlan commit into the probed view's store.
                row, cost = arg % len(model), bool(arg % 2)
                calls = arg % 3 if cost else 0
                get_plan.commit(GetPlanDecision(
                    plan_id=model[row].plan_id,
                    check=CheckKind.COST if cost else CheckKind.SELECTIVITY,
                    row=row, view=before, recost_calls=calls,
                ))
                e = model[row]
                edit(
                    row, usage=e.usage + 1, last_hit_tick=cache.tick,
                    hits_cost=e.hits_cost + cost,
                    hits_selectivity=e.hits_selectivity + (not cost),
                    recost_spend=e.recost_spend + calls,
                )
            elif model and op == "use":
                # Coalescing's write.
                row = arg % len(model)
                before.usage[row] += 1
                cache.usage_version += 1
                edit(row, usage=model[row].usage + 1)
            after = cache.columnar()
            # A view is handed out unchanged until the epoch moves.
            assert (after is before) == (after.epoch == before.epoch)
            if op in ("retire", "hit", "use", "probe_view"):
                assert after is before
            for name in MUTABLE_COLUMNS:
                assert getattr(after, name).tolist() == [
                    getattr(e, name) for e in model
                ], name
            assert list(cache.instances()) == model
            _assert_view_is_a_replay(cache)
        for view, frozen, cells in held:
            _assert_unchanged(view, frozen)
            # Single rows read through ``cells`` what the arrays hold,
            # across every doubling since the view was taken.
            n = len(view)
            for name in ("sub", "cost", "plan_ids", "slot"):
                column = view.plan_slots[1] if name == "slot" else getattr(view, name)
                assert cells[name][:n].tolist() == column.tolist(), name
            if cache.holds(view):
                # Appends only since: the mutable columns read live.
                for name in MUTABLE_COLUMNS:
                    expected = [getattr(e, name) for e in model[:n]]
                    assert getattr(view, name).tolist() == expected, name
                    assert cells[name][:n].tolist() == expected, name


def test_columnar_view_identity_is_stable_between_mutations():
    cache = _cache_with([[0.1, 0.2], [0.3, 0.4]])
    view = cache.columnar()
    assert cache.columnar() is view
    # Retiring flips a flag without an epoch bump: view object unchanged
    # (the flag is read live through the view's store).
    assert view.store.retire(0)
    assert cache.columnar() is view and view.retired.tolist() == [True, False]
    # A structural mutation publishes a new one.
    cache.add_instance(
        InstanceEntry(
            sv=SelectivityVector.of(0.5, 0.5), plan_id=0,
            optimal_cost=1.0, suboptimality=1.0,
        )
    )
    assert cache.columnar() is not view


def _entry(values, plan_id: int = 0) -> InstanceEntry:
    return InstanceEntry(
        sv=SelectivityVector.from_sequence(values), plan_id=plan_id,
        optimal_cost=10.0, suboptimality=1.0,
    )


def test_appends_extend_the_view_and_leave_the_old_one_alone():
    cache = _cache_with([[0.1, 0.2], [0.3, 0.4]])
    old = cache.columnar()
    frozen = _frozen(old)
    cache.add_instance(_entry([0.5, 0.5]))
    mid = cache.columnar()
    cache.add_instance(_entry([0.6, 0.1]))
    cache.add_instance(_entry([0.7, 0.2]))
    new = cache.columnar()
    assert len(old) == 2 and len(mid) == 3 and len(new) == 5
    _assert_unchanged(old, frozen)
    # The new rows were written past the old views' rows, into the same
    # buffers: no row was copied.
    for name in ("stored_sv", "cost", "plan_ids", "usage", "retired"):
        assert np.shares_memory(getattr(old, name), getattr(new, name))
    _assert_view_is_a_replay(cache)


def test_an_older_plans_first_row_takes_the_next_slot():
    """Two plans added, then a row of the older one: it takes the next
    slot, so no slot handed out earlier moves."""
    cache = _cache_with([[0.1, 0.2], [0.3, 0.4]])  # plan 0
    for plan_id in (1, 2):
        assert _add_stub_plan(cache, f"p{plan_id}") == plan_id
    cache.add_instance(_entry([0.5, 0.5], plan_id=2))
    before = cache.columnar()
    frozen = _frozen(before)
    assert before.plan_slots[0].tolist() == [0, 2]
    cache.add_instance(_entry([0.6, 0.1], plan_id=1))
    cache.add_instance(_entry([0.7, 0.2], plan_id=0))
    view = cache.columnar()
    plans, slot = view.plan_slots
    assert plans.tolist() == [0, 2, 1] and slot.tolist() == [0, 0, 1, 2, 0]
    assert [g.rows.tolist() for g in view.plan_groups] == [[0, 1, 4], [2], [3]]
    _assert_unchanged(before, frozen)
    _assert_view_is_a_replay(cache)


def test_extension_builds_rows_linear_in_misses():
    """500 misses write 500 rows.  Each append reads only its own record
    and publishes slices of the store's buffers; rows are copied only
    when a buffer doubles."""
    reads: list[InstanceEntry] = []

    class Watched(InstanceEntry):
        def __getattribute__(self, name):
            if name in ("sv", "plan_id", "optimal_cost", "suboptimality"):
                reads.append(self)
            return super().__getattribute__(name)

    cache = _cache_with([])
    get_plan = GetPlan(cache=cache, lam=1.2)
    misses, copies = 500, 0
    previous = cache.columnar()
    for i in range(misses):
        # A 25 x 20 grid with neighbours a factor 1.7 apart: no anchor
        # is ever within λ of a later point.
        point = SelectivityVector.of(1e-6 * 1.7 ** (i % 25), 1e-6 * 1.7 ** (i // 25))
        assert not get_plan.probe(point, lambda memo, sv: 1e12).hit
        entry = Watched(
            sv=point, plan_id=0, optimal_cost=10.0, suboptimality=1.0
        )
        reads.clear()
        cache.add_instance(entry)
        assert reads and all(r is entry for r in reads)
        view = cache.columnar()
        copies += not np.shares_memory(view.cost, previous.cost)
        previous = view
    assert len(cache.columnar()) == misses
    # The first row sizes the buffers to d; then 64 -> 128 -> 256 -> 512.
    assert columnar.INITIAL_CAPACITY == 64 and copies == 4


def test_a_view_held_across_a_drop_keeps_its_rows():
    """A drop removes a middle row and replays the survivors into a
    fresh store; an append then brings the list back to the held view's
    length, in the fresh store's buffers."""
    cache = _cache_with([[0.1, 0.2]])
    _add_stub_plan(cache, "p1")
    cache.add_instance(_entry([0.2, 0.2], plan_id=1))
    cache.add_instance(_entry([0.3, 0.4]))
    held = cache.columnar()
    frozen = _frozen(held)
    cache.drop_plan(1)
    cache.add_instance(_entry([0.9, 0.9]))
    view = cache.columnar()
    assert view.plan_ids.tolist() == [0, 0, 0]
    assert held.plan_ids.tolist() == [0, 1, 0]
    assert not np.shares_memory(held.cost, view.cost)
    _assert_unchanged(held, frozen)
    _assert_view_is_a_replay(cache)


def test_a_view_held_across_a_sweep_keeps_its_costs():
    """A recost sweep rebuilds the store with the new costs: every row
    is still the same anchor at the same index, the rebuilt view carries
    the new costs and the held view its own."""
    cache = _cache_with([[0.1, 0.2], [0.3, 0.4]])
    held = cache.columnar()
    frozen = _frozen(held)
    assert _sweep(cache, scale=3.0).refreshed == 2
    cache.add_instance(_entry([0.9, 0.9]))
    view = cache.columnar()
    assert view.cost[0] != held.cost[0]
    assert (view.stored_sv[:, :2] == held.stored_sv).all()
    _assert_unchanged(held, frozen)
    _assert_view_is_a_replay(cache)


def test_recalibrate_rebuilds_the_view(toy_engine, toy_template):
    from repro.core.scr import SCR
    from repro.workload.generator import instances_for_template

    scr = SCR(toy_engine, lam=1.2)
    for instance in instances_for_template(toy_template, 60, seed=3):
        scr.process(instance)
    before = scr.cache.columnar()
    frozen = _frozen(before)
    assert len(before) > 1
    result = scr.recalibrate()
    after = scr.cache.columnar()
    assert result.refreshed > 0
    assert after is not before and after.epoch > before.epoch
    assert not np.shares_memory(after.cost, before.cost)
    _assert_unchanged(before, frozen)
    _assert_view_is_a_replay(scr.cache)


def test_persistence_and_adopt_round_trips_keep_every_column(
    toy_engine, toy_template
):
    """A served cache — hit counters, usage and a retirement written in
    place — comes back from ``dump_cache``/``load_cache`` and from
    ``adopt`` with every column byte-equal, mutable ones included."""
    from repro.core.persistence import dump_cache, load_cache
    from repro.core.scr import SCR
    from repro.workload.generator import instances_for_template

    scr = SCR(toy_engine, lam=1.2)
    for instance in instances_for_template(toy_template, 120, seed=3):
        scr.process(instance)
    view = scr.cache.columnar()
    assert view.store.retire(1)
    assert view.hits_selectivity.sum() and view.hits_cost.sum()
    adopted = PlanCache()
    adopted.adopt(scr.cache)
    for other in (load_cache(dump_cache(scr.cache)), adopted):
        assert _frozen(other.columnar(), mutable=True)[1] == (
            _frozen(view, mutable=True)[1]
        )


def test_empty_cache_columnar_view():
    cache = PlanCache()
    view = cache.columnar()
    assert len(view) == 0
    assert view.sv.shape[0] == 0


def test_views_taken_beside_a_writer_are_whole_and_never_change():
    """Lock-free readers take views while a writer appends, adds and
    drops plans and sweeps costs under its lock.  Every view a reader
    gets is at least as new as the epoch it read first, its columns
    agree with each other, and it is unchanged after the reader yields
    the interpreter."""
    import random
    import sys
    import threading
    import time

    cache = _cache_with([])  # plan 0
    lock, stop, errors = threading.Lock(), threading.Event(), []
    appended = [0]

    def writer():
        rng = random.Random(5)
        while not stop.is_set():
            with lock:
                if appended[0] % 40 == 39:
                    _add_stub_plan(cache, f"w{appended[0]}")
                    cache.drop_plan(min(cache._plans))
                elif appended[0] % 97 == 96:
                    _sweep(cache, scale=rng.uniform(1.0, 3.0))
                cache.add_instance(InstanceEntry(
                    sv=SelectivityVector.from_sequence(
                        [10 ** rng.uniform(-4, 0) for _ in range(3)]
                    ),
                    plan_id=rng.choice(list(cache._plans)),
                    optimal_cost=rng.uniform(1.0, 1e4), suboptimality=1.0,
                ))
                appended[0] += 1

    def reader():
        try:
            while not stop.is_set():
                epoch = cache.epoch
                view = cache.columnar()
                assert view.epoch >= epoch
                frozen = _frozen(view)
                n = len(view)
                assert view.stored_sv.shape[1] == view.cost.shape[0] == n
                plans, slot = view.plan_slots
                assert (plans[slot] == view.plan_ids).all()
                assert (view.area == np.prod(view.stored_sv, axis=0)).all()
                for rows, cost, _ in view.plan_groups:
                    assert (view.cost[rows] == cost).all()
                time.sleep(0)
                _assert_unchanged(view, frozen)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader) for _ in range(4)
    ]
    try:
        for t in threads:
            t.start()
        time.sleep(1.0)
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=10.0)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]
    assert appended[0] > 100


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
        assert db.row == ds.row
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
        assert dr.row == ds.row
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
        assert db.row == ds.row
        assert db.bound_value == ds.bound_value
        assert db.certificate == ds.certificate

"""A miss builds what the cache keeps, and nothing it drops (DESIGN.md §7).

An optimizer call's ``ShrunkenMemo`` is built on its first read, which
on the serving paths is ``PlanCache.add_plan`` of a new plan: a miss
that re-finds a cached plan, or whose plan the redundancy check
rejects, never builds one.  The search builds ``PlanNode`` objects only
for the plan it returns.  These tests count both, over ``SCR.process``,
``ConcurrentPQOManager.process_many`` and a fault-injected engine, and
hold the lazily built memo equal to an eager ``shrink`` over every
template of every catalog.
"""

from __future__ import annotations

import pytest

import repro.optimizer.optimizer as optimizer_module
import repro.optimizer.search as search_module
from repro.catalog.registry import get_database
from repro.core.scr import SCR
from repro.engine.faults import FaultConfig, FaultInjector, FaultProfile
from repro.engine.resilience import OptimizeUnavailableError, ResilientEngineAPI
from repro.optimizer.optimizer import INCUMBENT_MARGIN, QueryOptimizer
from repro.optimizer.plans import PlanNode
from repro.optimizer.recost import shrink
from repro.serving import ConcurrentPQOManager
from repro.workload.generator import instances_for_template
from repro.workload.templates import tpcds_templates, tpch_templates
from test_resilience import FAST_POLICY, NO_SLEEP
from test_search_equivalence import TEMPLATES, _vectors

#: Seeded vectors per template for the memo and node checks.
VECTORS = 12


@pytest.fixture
def shrinks(monkeypatch) -> list:
    """The plan of every memo built from an optimizer result."""
    built: list = []

    def counting(plan, *args):
        built.append(plan)
        return shrink(plan, *args)

    monkeypatch.setattr(optimizer_module, "shrink", counting)
    return built


def _six_dim(db):
    template = next(t for t in tpcds_templates() if t.name == "tpcds_six_dim")
    return template, instances_for_template(template, 300, seed=1)


def _assert_one_memo_per_new_plan(scr: SCR, stream, shrinks: list) -> None:
    """Per request: as many memos built as plans added, and the run saw
    both a new plan and a miss that re-found a cached one."""
    stats = scr.manage_cache.stats
    for instance in stream:
        built, added = len(shrinks), stats.plans_added
        try:
            scr.process(instance)
        except OptimizeUnavailableError:
            pass
        assert len(shrinks) - built == stats.plans_added - added
    assert stats.plans_added >= 2
    assert stats.existing_plan_hits > 0


def test_scr_builds_one_memo_per_new_plan(tpcds_db, shrinks):
    template, stream = _six_dim(tpcds_db)
    scr = SCR(tpcds_db.engine(template), lam=1.5)
    _assert_one_memo_per_new_plan(scr, stream, shrinks)
    assert [p.signature() for p in shrinks] == [p.signature for p in scr.cache.plans()]


def test_fault_injected_engine_builds_one_memo_per_new_plan(tpcds_db, shrinks):
    template, stream = _six_dim(tpcds_db)
    injector = FaultInjector(
        tpcds_db.engine(template),
        FaultConfig(
            recost=FaultProfile(error_rate=0.1, corrupt_rate=0.1),
            optimize=FaultProfile(timeout_rate=0.05),
        ),
        seed=3,
    )
    scr = SCR(ResilientEngineAPI(injector, policy=FAST_POLICY, sleep=NO_SLEEP), lam=1.5)
    _assert_one_memo_per_new_plan(scr, stream, shrinks)
    assert injector.injected_count() > 0


def test_process_many_builds_one_memo_per_new_plan(tpch_db, shrinks):
    templates = tpch_templates()[:4]
    stream = [
        q for i, t in enumerate(templates)
        for q in instances_for_template(t, 120, seed=i)
    ]
    with ConcurrentPQOManager(
        database=tpch_db, default_lambda=1.5, max_workers=2
    ) as manager:
        shards = [manager.register(t) for t in templates]
        for lo in range(0, len(stream), 16):
            manager.process_many(stream[lo:lo + 16])
        optimizer_calls = manager.total_optimizer_calls
    stats = [shard.scr.manage_cache.stats for shard in shards]
    assert len(shrinks) == sum(s.plans_added for s in stats) > len(templates)
    assert sum(s.existing_plan_hits for s in stats) > 0
    assert optimizer_calls > len(shrinks)


@pytest.mark.parametrize("template", TEMPLATES, ids=lambda t: t.name)
def test_lazy_memo_equals_an_eager_shrink(template):
    db = get_database(template.database, scale=0.2, seed=5)
    optimizer = QueryOptimizer(template, db.stats, db.estimator)
    for sv in _vectors(template.dimensions, seed=len(template.name))[:VECTORS]:
        result = optimizer.optimize(sv)
        eager = shrink(result.plan, result.memo_groups, result.memo_expressions)
        lazy = result.shrunken_memo
        assert result.signature == eager.signature == lazy.signature
        assert lazy.nodes == eager.nodes
        assert lazy.template_name == eager.template_name
        assert (lazy.full_memo_groups, lazy.full_memo_expressions) == (
            eager.full_memo_groups, eager.full_memo_expressions,
        )
        assert result.shrunken_memo is lazy  # built once


def _size(node: PlanNode) -> int:
    return 1 + sum(_size(child) for child in node.children)


@pytest.mark.parametrize("template", TEMPLATES, ids=lambda t: t.name)
def test_search_builds_only_the_returned_plan(template, monkeypatch):
    """Unbounded and bounded: one ``PlanNode`` per node of the plan the
    search returns, none for a losing alternative or root candidate."""
    built = [0]

    class CountingNode(PlanNode):
        def __init__(self, *args, **kwargs):
            built[0] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(search_module, "PlanNode", CountingNode)
    db = get_database(template.database, scale=0.2, seed=5)
    search = QueryOptimizer(template, db.stats, db.estimator)._search
    for sv in _vectors(template.dimensions, seed=len(template.name))[:VECTORS]:
        for bounded in (False, True):
            bound = plan.cost * INCUMBENT_MARGIN if bounded else float("inf")
            built[0] = 0
            plan, _ = search.optimize(sv, bound)
            assert built[0] == _size(plan.root), (sv, bounded)

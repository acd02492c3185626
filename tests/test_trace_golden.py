"""Golden-trace regression test for serial SCR semantics.

Serializes the full event sequence of a small canonical workload under
the *serial* technique stack — every ``engine.optimize`` /
``engine.recost`` call (seen through a recording shim placed around the
engine here) and the :class:`PlanChoice` each ``scr.process`` returns —
and compares it byte-for-byte against a checked-in JSON fixture.  Concurrency-motivated
refactors of ``get_plan.py`` / ``manage_cache.py`` / ``scr.py`` (probe/
commit splits, epoch bookkeeping, choice-builder extraction) must not
change what the serial path decides, traces, or certifies — any drift
fails here before it can hide behind interleaving.

Regenerate after an *intentional* semantic change with::

    PYTHONPATH=src:tests python tests/test_trace_golden.py --regen
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.scr import SCR
from repro.engine.database import Database
from repro.query.instance import QueryInstance
from repro.query.template import QueryTemplate, join, range_predicate
from repro.workload.generator import generate_selectivity_vectors

from reference_get_plan import use_reference

FIXTURE = Path(__file__).parent / "fixtures" / "golden_trace.json"


def canonical_template() -> QueryTemplate:
    return QueryTemplate(
        name="golden_join",
        database="toy",
        tables=["orders", "cust"],
        joins=[join("orders", "o_cust", "cust", "c_id")],
        parameterized=[
            range_predicate("orders", "o_date", "<="),
            range_predicate("cust", "c_bal", "<="),
        ],
    )


def build_golden_trace(reference: bool = False) -> list[dict]:
    """The canonical run: one template, 40 seeded instances, budget 3.

    ``reference`` runs it on ``tests/reference_get_plan.py``'s scalar
    oracle instead of the production getPlan.  Rows, in order: one
    ``optimize`` (with the plan-signature prefix) / ``recost`` row per
    engine call as it happens, then the request's ``decision`` row —
    the certified bound only on reuse decisions, rounded to 9 places to
    absorb printing differences without hiding semantic drift."""
    from conftest import build_toy_schema

    db = Database.create(build_toy_schema(), seed=11)
    template = canonical_template()
    engine = db.engine(template)
    rows: list[dict] = []
    seq = 0
    optimize, recost = engine.optimize, engine.recost

    def recording_optimize(sv):
        result = optimize(sv)
        rows.append({
            "kind": "optimize", "seq": seq,
            "detail": result.shrunken_memo.signature[:80],
        })
        return result

    def recording_recost(shrunken, sv):
        rows.append({"kind": "recost", "seq": seq})
        return recost(shrunken, sv)

    engine.optimize, engine.recost = recording_optimize, recording_recost
    try:
        scr = SCR(engine, lam=2.0, plan_budget=3)
        if reference:
            use_reference(scr)
        for seq, sv in enumerate(generate_selectivity_vectors(2, 40, seed=21)):
            choice = scr.process(QueryInstance(template.name, sv=sv))
            row = {
                "kind": "decision", "seq": seq, "check": choice.check,
                "plan": choice.plan_signature,
            }
            if not choice.used_optimizer:
                row["bound"] = round(choice.certified_bound, 9)
            rows.append(row)
    finally:
        # The engine object is cached per database: drop the shims.
        del engine.optimize, engine.recost
    return rows


def serialize(rows: list[dict]) -> str:
    return json.dumps(rows, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("impl", ["scalar", "vectorized"])
def test_serial_trace_matches_golden_fixture(impl):
    """The production getPlan (``vectorized``) and the scalar reference
    oracle (``scalar``) must reproduce the SAME fixture.

    The columnar kernel is a pure re-implementation of the scalar
    check, so one golden trace pins both: drift under the production
    path is a semantic bug, drift under the reference means the oracle
    itself moved.
    """
    assert FIXTURE.exists(), (
        f"missing fixture {FIXTURE}; regenerate with "
        "`PYTHONPATH=src:tests python tests/test_trace_golden.py --regen`"
    )
    expected = FIXTURE.read_text()
    actual = serialize(build_golden_trace(reference=impl == "scalar"))
    assert actual == expected, (
        f"serial SCR trace ({impl} getPlan) drifted from the "
        "golden fixture — if the change is intentional, regenerate the "
        "fixture (see module docstring); if not, a refactor just changed "
        "serial semantics"
    )


def test_golden_trace_is_deterministic():
    """The canonical run itself must be reproducible in-process."""
    assert serialize(build_golden_trace()) == serialize(build_golden_trace())


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        FIXTURE.write_text(serialize(build_golden_trace()))
        print(f"wrote {FIXTURE}")
    else:
        print(__doc__)

"""Golden pins for the views derived from registry snapshots.

Three derived views are byte-compared against checked-in fixtures:

* the local doctor report of a seeded single-template manager run;
* the cluster doctor view rebuilt by ``doctor_from_sources`` from two
  such managers' registry snapshots and anchor summaries;
* the supervisor's merged Prometheus exposition after three worker
  restarts (one dead incarnation retained, the older ones folded into a
  tombstone), compared as a sorted set of ``(name, labels, value)``
  samples — label order inside the braces carries no meaning in the
  text format.

Regenerate after an *intentional* change with::

    PYTHONPATH=src:tests python tests/test_snapshot_golden.py --regen
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from test_calibration import make_db, make_template, workload
from test_cluster_supervisor import FakeLauncher, FakeTemplate, mark_live

from repro.cluster import ClusterSupervisor, SupervisorPolicy
from repro.cluster.transport import Heartbeat
from repro.obs import Observability
from repro.obs.clock import FakeClock
from repro.obs.doctor import doctor_from_sources
from repro.serving import ConcurrentPQOManager

FIXTURES = Path(__file__).parent / "fixtures"
DOCTOR_LOCAL = FIXTURES / "golden_doctor_local.json"
DOCTOR_CLUSTER = FIXTURES / "golden_doctor_cluster.json"
CLUSTER_SAMPLES = FIXTURES / "golden_cluster_exposition.json"
REGEN = "`PYTHONPATH=src:tests python tests/test_snapshot_golden.py --regen`"


def _dump(document) -> str:
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def _served_manager(m: int):
    """The ``TestDoctorReports._manager`` run: one template, one
    ``process_many`` batch."""
    template = make_template()
    manager = ConcurrentPQOManager(
        database=make_db(), max_workers=2, obs=Observability()
    )
    manager.register(template, lam=2.0)
    manager.process_many(workload(template, m), dedupe=False)
    return manager


def render_doctor_local() -> str:
    manager = _served_manager(60)
    try:
        return _dump(manager.doctor_report())
    finally:
        manager.close()


def render_doctor_cluster() -> str:
    snapshots, summaries = {}, {}
    for label, m in (("w0", 60), ("w1", 40)):
        manager = _served_manager(m)
        snapshots[label] = manager.obs.registry.snapshot()
        summaries[label] = manager.anchor_summaries()
        manager.close()
    return _dump(doctor_from_sources(snapshots, summaries))


def _worker_snapshot(n: int, violations: int) -> dict:
    return {
        "repro_serving_latency_seconds": {
            "kind": "histogram", "help": "Latency", "series": [{
                "labels": {"template": "t0"},
                "count": n, "sum": 0.01 * n,
                "buckets": [[0.1, n - 1], [0.5, n], ["+Inf", n]],
            }],
        },
        "repro_responses_total": {
            "kind": "counter", "help": "Responses", "series": [
                {"labels": {"template": "t0", "outcome": "certified"},
                 "value": float(n)},
            ],
        },
        "repro_lambda_violations_total": {
            "kind": "counter", "help": "Violations", "series": [
                {"labels": {"template": "t0", "kind": "exact"},
                 "value": float(violations)},
            ],
        },
        "repro_queue_depth": {
            "kind": "gauge", "help": "Depth", "series": [
                {"labels": {"template": "t0"}, "value": float(n % 3)},
            ],
        },
    }


def _restarted_cluster() -> ClusterSupervisor:
    """Three incarnations of w0 heartbeat and die; retention 1 keeps the
    newest dead one verbatim and folds the older two into a tombstone."""
    clock = FakeClock()
    sup = ClusterSupervisor(
        [FakeTemplate(f"t{i}") for i in range(4)],
        num_workers=2, snapshot_dir="x",
        policy=SupervisorPolicy(
            registry_retention=1, restart_backoff_base=0.01,
        ),
        launcher=FakeLauncher(), clock=clock.clock,
    )
    sup.start(monitor=False)
    mark_live(sup, "w0", "w1")
    for incarnation, n in enumerate((10, 20, 40)):
        sup.launcher.deliver("w0", Heartbeat(
            worker_id="w0", incarnation=incarnation, seq=1,
            requests_served=n, optimizer_calls=0,
            registry=_worker_snapshot(n, violations=incarnation),
        ))
        sup.pump()
        sup.workers["w0"].process.alive = False
        clock.advance(0.05)
        sup.tick()
        clock.advance(10.0)
        sup.tick()
        mark_live(sup, "w0")
    return sup


_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})? (\S+)$")
_LABEL = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')


def exposition_samples(text: str) -> list:
    """Sorted ``[name, [[label, value], ...], value]`` per sample line."""
    samples = []
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        name, labels, value = _SAMPLE.match(line).groups()
        samples.append([name, sorted(_LABEL.findall(labels or "")), value])
    return sorted(samples)


def render_cluster_samples() -> str:
    sup = _restarted_cluster()
    try:
        return _dump(exposition_samples(sup.prometheus()))
    finally:
        sup.close(timeout=0)


def test_local_doctor_matches_golden_fixture():
    assert render_doctor_local() == DOCTOR_LOCAL.read_text(), (
        f"local doctor report drifted; regenerate with {REGEN}"
    )


def test_cluster_doctor_matches_golden_fixture():
    assert render_doctor_cluster() == DOCTOR_CLUSTER.read_text(), (
        f"cluster doctor view drifted; regenerate with {REGEN}"
    )


def test_merged_exposition_sample_set_matches_golden_fixture():
    assert render_cluster_samples() == CLUSTER_SAMPLES.read_text(), (
        f"merged exposition samples drifted; regenerate with {REGEN}"
    )


def _regen() -> None:
    for path, render in (
        (DOCTOR_LOCAL, render_doctor_local),
        (DOCTOR_CLUSTER, render_doctor_cluster),
        (CLUSTER_SAMPLES, render_cluster_samples),
    ):
        path.write_text(render(), encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)

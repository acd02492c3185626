"""The trajectory gate compares like hosts (``benchmarks/check_trajectory.py``).

A kernel ratio moves by more than the 20 % budget between host types
with no code change, so the newest run is gated against the newest
earlier run on its own ``meta.platform`` and only reported when there is
none.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "check_trajectory.py"
_SPEC = importlib.util.spec_from_file_location("check_trajectory", _PATH)
check_trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_trajectory)


def _run(platform, speedup, hour):
    return {
        "timestamp": f"2026-10-19T{hour:02d}:00:00Z",
        "meta": {"platform": platform},
        "results": [{"m": 1024, "d": 10, "speedup": speedup}],
    }


def _doc(*runs):
    return {"schema_version": 2, "benchmark": "getplan_hotpath", "runs": list(runs)}


def test_a_same_host_drop_over_the_budget_fails():
    doc = _doc(_run("host-a", 70.0, 1), _run("host-a", 52.5, 2))
    assert check_trajectory.validate_document(doc, "f") == []
    errors = check_trajectory.check_regressions(doc, "f")
    assert len(errors) == 1 and "dropped 25%" in errors[0]


def test_the_newest_earlier_run_on_the_host_is_the_baseline():
    """Another host's run in between neither hides nor causes a drop."""
    doc = _doc(
        _run("host-a", 70.0, 1), _run("host-b", 200.0, 2), _run("host-a", 52.5, 3)
    )
    assert len(check_trajectory.check_regressions(doc, "f")) == 1
    doc = _doc(
        _run("host-a", 70.0, 1), _run("host-b", 20.0, 2), _run("host-a", 69.0, 3)
    )
    assert check_trajectory.check_regressions(doc, "f") == []


def test_a_cross_host_difference_alone_is_reported_not_failed():
    doc = _doc(_run("host-a", 70.35, 1), _run("host-b", 52.81, 2))
    notes = []
    assert check_trajectory.check_regressions(doc, "f", notes) == []
    assert len(notes) == 1 and "'host-b' has no earlier run" in notes[0]


def test_a_run_without_a_recorded_host_is_never_compared():
    doc = _doc(
        {"timestamp": "2026-10-19T01:00:00Z", "meta": {},
         "results": [{"m": 1024, "d": 10, "speedup": 70.0}]},
        {"timestamp": "2026-10-19T02:00:00Z", "meta": {},
         "results": [{"m": 1024, "d": 10, "speedup": 10.0}]},
    )
    notes = []
    assert check_trajectory.check_regressions(doc, "f", notes) == []
    assert len(notes) == 1


def _obs_gap_doc(*ratios):
    return {
        "schema_version": 2,
        "benchmark": "obs_gap",
        "runs": [
            {
                "timestamp": f"2026-10-19T{hour:02d}:00:00Z",
                "meta": {"platform": "host-a"},
                "results": [
                    {"workload": "serve_batch_obs", "off_over_on": ratio}
                ],
            }
            for hour, ratio in enumerate(ratios, 1)
        ],
    }


def test_obs_gap_watches_off_over_on_on_the_same_host():
    """The observability gap's trajectory is gated on ``off_over_on``
    (higher is better): a gain passes, a same-host drop over the budget
    fails."""
    gained = _obs_gap_doc(0.71, 0.86)
    assert check_trajectory.validate_document(gained, "f") == []
    assert check_trajectory.check_regressions(gained, "f") == []
    errors = check_trajectory.check_regressions(_obs_gap_doc(0.86, 0.6), "f")
    assert len(errors) == 1
    assert "off_over_on at (workload=serve_batch_obs) dropped 30%" in errors[0]


def _serving_overhead_doc(*ratios):
    return {
        "schema_version": 2,
        "benchmark": "serving_overhead",
        "runs": [
            {
                "timestamp": f"2026-10-20T{hour:02d}:00:00Z",
                "meta": {"platform": "host-a"},
                "results": [
                    {"workload": "serve_batch_obs", "obs": side,
                     "scr_over_one": ratio}
                    for side in ("off", "on")
                ],
            }
            for hour, ratio in enumerate(ratios, 1)
        ],
    }


def test_serving_overhead_watches_scr_over_one_per_observability_side():
    """The serving-overhead trajectory is gated on ``scr_over_one`` (the
    ``SCR.process`` loop's cost over a group of one's; higher is
    better), one series per observability side."""
    gained = _serving_overhead_doc(0.70, 0.79)
    assert check_trajectory.validate_document(gained, "f") == []
    assert check_trajectory.check_regressions(gained, "f") == []
    errors = check_trajectory.check_regressions(
        _serving_overhead_doc(0.80, 0.60), "f"
    )
    assert len(errors) == 2
    assert "scr_over_one at (workload=serve_batch_obs, obs=off) dropped 25%" in (
        errors[0]
    )


def _cluster_frames_doc(*rates):
    return {
        "schema_version": 2,
        "benchmark": "cluster_frames",
        "runs": [
            {
                "timestamp": f"2026-10-21T{hour:02d}:00:00Z",
                "meta": {"platform": "host-a"},
                "results": [{"workers": 2, "round_trips_per_s": rate}],
            }
            for hour, rate in enumerate(rates, 1)
        ],
    }


def test_cluster_frames_watches_round_trips_per_second():
    """The supervisor frame path's trajectory is gated on
    ``round_trips_per_s`` (higher is better)."""
    gained = _cluster_frames_doc(10_000.0, 17_500.0)
    assert check_trajectory.validate_document(gained, "f") == []
    assert check_trajectory.check_regressions(gained, "f") == []
    errors = check_trajectory.check_regressions(
        _cluster_frames_doc(17_500.0, 12_250.0), "f"
    )
    assert len(errors) == 1
    assert "round_trips_per_s at (workers=2) dropped 30%" in errors[0]

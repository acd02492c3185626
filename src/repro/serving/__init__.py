"""repro.serving — the concurrent serving layer.

A thread-safe front-end over the core SCR machinery: per-template
shards with a fine-grained lock discipline (lock-free probes against
immutable columnar views, optimistic epoch validation, write-locked
manageCache), single-flight optimizer collapsing, batched admission
with selectivity-vector dedup, per-shard serving statistics, and
overload protection (bounded ingress, deadlines, optimizer gate and
brownout degradation along the guarantee axis).

Quickstart::

    from repro.serving import ConcurrentPQOManager, OverloadPolicy

    manager = ConcurrentPQOManager(
        database=db,
        max_workers=8,
        overload=OverloadPolicy(default_deadline_seconds=0.100),
    )
    for template in templates:
        manager.register(template, lam=2.0)
    choices = manager.process_many(instances)   # batched, deduped
    print(manager.serving_report())
    print(manager.overload_report())
    manager.close()
"""

from .latency import SimulatedLatencyEngine, simulated_latency_wrapper
from .manager import ConcurrentPQOManager
from .overload import (
    BrownoutController,
    BrownoutLevel,
    BrownoutTransition,
    Deadline,
    OptimizerGate,
    OverloadCoordinator,
    OverloadPolicy,
    OverloadSignals,
    ShedError,
    ShutdownError,
)
from .shard import TemplateShard
from .stats import ConcurrencyGauge, ServingStats, merge_rows

__all__ = [
    "BrownoutController",
    "BrownoutLevel",
    "BrownoutTransition",
    "ConcurrencyGauge",
    "ConcurrentPQOManager",
    "Deadline",
    "OptimizerGate",
    "OverloadCoordinator",
    "OverloadPolicy",
    "OverloadSignals",
    "ServingStats",
    "ShedError",
    "ShutdownError",
    "SimulatedLatencyEngine",
    "TemplateShard",
    "merge_rows",
    "simulated_latency_wrapper",
]

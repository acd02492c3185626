"""Offline cache seeding — the paper's section 9 future-work direction.

"It is an interesting area of future work to ... combine some of the
benefits of offline exploration (e.g., similar to [8]) with those of
the online technique."

This module implements that hybrid in the spirit of anorexic plan
diagrams [Harish et al., VLDB 2007]: before any online instance
arrives, sample the selectivity space on a log-spaced grid (or
log-uniform randomly), optimize each sample, and feed the results
through SCR's own manageCache — so the λ_r redundancy check "anorexes"
the seeded plan set down to a small cover.  The online phase then
starts with warm inference regions instead of paying the cold-start
optimizer calls the paper observes for every online technique.

Seeding cost is an *offline* budget and is therefore accounted
separately from the technique's online optimizer calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from ..engine.api import EngineAPI
from ..query.instance import SelectivityVector
from .scr import SCR


@dataclass(frozen=True)
class SeedingReport:
    """What offline seeding did."""

    points_optimized: int
    plans_seeded: int
    plans_rejected_redundant: int
    offline_optimize_seconds: float


def grid_points(
    dimensions: int,
    points_per_dim: int,
    low: float = 0.005,
    high: float = 1.0,
) -> list[SelectivityVector]:
    """Log-spaced full-factorial grid over the selectivity space.

    The grid has ``points_per_dim ** dimensions`` points; callers should
    keep that small for high-d templates (use :func:`random_points`).
    """
    if points_per_dim < 1:
        raise ValueError("points_per_dim must be >= 1")
    axis = np.exp(np.linspace(math.log(low), math.log(high), points_per_dim))
    return [
        SelectivityVector.from_sequence(combo)
        for combo in product(axis, repeat=dimensions)
    ]


def random_points(
    dimensions: int,
    count: int,
    seed: int = 0,
    low: float = 0.005,
    high: float = 1.0,
) -> list[SelectivityVector]:
    """Log-uniform random sample of the selectivity space."""
    rng = np.random.default_rng(seed)
    matrix = np.exp(
        rng.uniform(math.log(low), math.log(high), size=(count, dimensions))
    )
    return [SelectivityVector.from_sequence(row) for row in matrix]


def seed_cache(
    scr: SCR,
    engine: EngineAPI,
    points: list[SelectivityVector],
) -> SeedingReport:
    """Optimize ``points`` offline and register them in the SCR cache.

    Uses the technique's own manageCache, so the λ_r redundancy check
    keeps the seeded plan set anorexic, and every seeded instance
    becomes a 5-tuple anchor usable by the online checks.  The engine's
    counters record the offline work; the caller may snapshot/reset
    them to separate offline from online accounting.
    """
    before_opt = engine.counters.optimize.calls
    before_seconds = engine.counters.optimize.total_seconds
    before_rejects = scr.manage_cache.stats.plans_rejected_redundant

    for sv in points:
        # Skip points already λ-covered by earlier seeds: this is what
        # keeps a dense grid from flooding the instance list.
        decision = scr.get_plan.probe(sv, engine.recost)
        scr.get_plan.commit(decision)
        if decision.hit:
            continue
        result = engine.optimize(sv)
        scr.manage_cache.register(sv, result, engine.recost)

    return SeedingReport(
        points_optimized=engine.counters.optimize.calls - before_opt,
        plans_seeded=scr.cache.num_plans,
        plans_rejected_redundant=(
            scr.manage_cache.stats.plans_rejected_redundant - before_rejects
        ),
        offline_optimize_seconds=(
            engine.counters.optimize.total_seconds - before_seconds
        ),
    )

"""Shared configuration for the per-figure benchmarks.

Each benchmark regenerates one table or figure of the paper at a
scaled-down (laptop) configuration and asserts the *shape* of the
result — who wins, by roughly what factor — matching EXPERIMENTS.md.
The session-scoped :class:`Experiments` instance caches the expensive
suite runs so related figures share one evaluation pass.

Run with ``pytest benchmarks/ --benchmark-only``; add ``-s`` to see the
paper-style tables printed by each benchmark.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.harness.experiments import ExperimentConfig, Experiments
from repro.workload.orderings import Ordering
from repro.workload.suite import SuiteConfig

# tests/ holds the reference implementations (reference_get_plan.py) the
# hot-path benchmark takes its scalar baseline from.
sys.path.append(str(Path(__file__).parents[1] / "tests"))

BENCH_SUITE = SuiteConfig(
    num_templates=10,
    instances_per_sequence=150,
    instances_high_d=200,
    seed=7,
)

BENCH_ORDERINGS = [
    Ordering.RANDOM,
    Ordering.DECREASING_COST,
    Ordering.INSIDE_OUT,
]


def pytest_collection_modifyitems(items):
    """Everything under benchmarks/ is a paper-figure benchmark: tag it
    ``bench`` and ``slow`` so ``-m "not slow"`` skips the directory."""
    for item in items:
        item.add_marker(pytest.mark.bench)
        item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def experiments() -> Experiments:
    config = ExperimentConfig(
        suite=BENCH_SUITE,
        db_scale=0.4,
        orderings=BENCH_ORDERINGS,
        lam=2.0,
    )
    return Experiments(config)


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)

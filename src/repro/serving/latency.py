"""Simulated engine-call latency for serving benchmarks and tests.

The in-process optimizer answers in microseconds, which hides exactly
the effect the concurrent serving layer exists to exploit: against a
real engine, optimize / recost / sVector are RPCs that block the caller
while releasing the CPU.  :class:`SimulatedLatencyEngine` injects a
configurable ``time.sleep`` per API call so a workload behaves like
remote engine traffic — serial serving pays every sleep back-to-back,
the thread pool overlaps them.
"""

from __future__ import annotations

import time

from ..engine.api import EngineAPI
from ..optimizer.recost import ShrunkenMemo
from ..query.instance import (
    QueryInstance,
    SelectivityVector,
    UncertainSelectivityVector,
)


class SimulatedLatencyEngine:
    """Delegating :class:`EngineAPI` wrapper adding per-call latency."""

    def __init__(
        self,
        inner: EngineAPI,
        optimize_seconds: float = 0.010,
        recost_seconds: float = 0.001,
        selectivity_seconds: float = 0.0001,
    ) -> None:
        self._inner = inner
        self.optimize_seconds = optimize_seconds
        self.recost_seconds = recost_seconds
        self.selectivity_seconds = selectivity_seconds

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def selectivity_vector(self, instance: QueryInstance) -> SelectivityVector:
        if self.selectivity_seconds:
            time.sleep(self.selectivity_seconds)
        return self._inner.selectivity_vector(instance)

    def selectivity_vector_with_error(
        self, instance: QueryInstance
    ) -> UncertainSelectivityVector:
        if self.selectivity_seconds:
            time.sleep(self.selectivity_seconds)
        return self._inner.selectivity_vector_with_error(instance)

    def optimize(self, sv: SelectivityVector):
        if self.optimize_seconds:
            time.sleep(self.optimize_seconds)
        return self._inner.optimize(sv)

    def recost(self, shrunken: ShrunkenMemo, sv: SelectivityVector) -> float:
        if self.recost_seconds:
            time.sleep(self.recost_seconds)
        return self._inner.recost(shrunken, sv)


def simulated_latency_wrapper(
    optimize_seconds: float = 0.010,
    recost_seconds: float = 0.001,
    selectivity_seconds: float = 0.0001,
):
    """An ``engine_wrapper`` for
    :class:`~repro.serving.manager.ConcurrentPQOManager`."""

    def wrap(engine: EngineAPI) -> SimulatedLatencyEngine:
        return SimulatedLatencyEngine(
            engine,
            optimize_seconds=optimize_seconds,
            recost_seconds=recost_seconds,
            selectivity_seconds=selectivity_seconds,
        )

    return wrap

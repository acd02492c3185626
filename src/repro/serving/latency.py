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
from typing import Optional

from ..engine.api import EngineAPI, EngineWrapper
from ..optimizer.recost import ShrunkenMemo
from ..query.instance import (
    QueryInstance,
    SelectivityVector,
    UncertainSelectivityVector,
)


class SimulatedLatencyEngine(EngineWrapper):
    """Engine wrapper adding a fixed sleep before each API call."""

    def __init__(
        self,
        inner: EngineAPI,
        optimize_seconds: float = 0.010,
        recost_seconds: float = 0.001,
        selectivity_seconds: float = 0.0001,
    ) -> None:
        super().__init__(inner)
        self.optimize_seconds = optimize_seconds
        self.recost_seconds = recost_seconds
        self.selectivity_seconds = selectivity_seconds

    def selectivity_vector_ex(
        self, instance: QueryInstance
    ) -> tuple[SelectivityVector, bool]:
        if self.selectivity_seconds:
            time.sleep(self.selectivity_seconds)
        return self.inner.selectivity_vector_ex(instance)

    def selectivity_vector_with_error_ex(
        self, instance: QueryInstance
    ) -> tuple[UncertainSelectivityVector, bool]:
        if self.selectivity_seconds:
            time.sleep(self.selectivity_seconds)
        return self.inner.selectivity_vector_with_error_ex(instance)

    def optimize(
        self, sv: SelectivityVector, incumbent: Optional[ShrunkenMemo] = None
    ):
        if self.optimize_seconds:
            time.sleep(self.optimize_seconds)
        return self.inner.optimize(sv, incumbent)

    def recost(self, shrunken: ShrunkenMemo, sv: SelectivityVector) -> float:
        if self.recost_seconds:
            time.sleep(self.recost_seconds)
        return self.inner.recost(shrunken, sv)


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

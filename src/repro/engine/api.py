"""The three engine APIs online PQO needs, with call accounting.

Section 4.2 of the paper lists the database-engine requirements:
a traditional optimizer call, a *compute selectivity vector* call, and
a *recost plan* call.  :class:`EngineAPI` wraps them for one query
template and records call counts and wall-clock time per API, which is
what the optimization-overhead metrics and the recost-speedup benchmark
report.  :class:`EngineWrapper` is the one base every façade around an
engine (resilience, fault injection, noise, drift, simulated latency)
subclasses, so the contract is defined once.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from ..optimizer.optimizer import OptimizationResult, QueryOptimizer
from ..optimizer.recost import ShrunkenMemo
from ..query.instance import (
    QueryInstance,
    SelectivityVector,
    UncertainSelectivityVector,
)
from ..query.template import QueryTemplate
from ..selectivity.estimator import SelectivityEstimator


@dataclass
class ApiAccounting:
    """Counters and timers for one engine API."""

    calls: int = 0
    total_seconds: float = 0.0

    def record(self, seconds: float) -> None:
        self.calls += 1
        self.total_seconds += seconds

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0


@dataclass
class ResilienceCounters:
    """Fault-handling accounting kept alongside the API counters.

    Populated by :class:`~repro.engine.resilience.ResilientEngineAPI`;
    stays all-zero when the engine runs without a resilience layer.
    """

    faults_optimize: int = 0
    faults_recost: int = 0
    faults_selectivity: int = 0
    retries: int = 0
    breaker_opens: int = 0
    breaker_closes: int = 0
    breaker_short_circuits: int = 0
    recost_failed_closed: int = 0      # recost failures served as a miss
    optimize_fallbacks: int = 0        # optimizer failures served from cache
    selectivity_fallbacks: int = 0     # sVector failures served stale+inflated

    @property
    def total_faults(self) -> int:
        return (
            self.faults_optimize + self.faults_recost + self.faults_selectivity
        )


@dataclass
class EngineCounters:
    """Accounting for the three APIs of one :class:`EngineAPI`."""

    optimize: ApiAccounting = field(default_factory=ApiAccounting)
    recost: ApiAccounting = field(default_factory=ApiAccounting)
    selectivity: ApiAccounting = field(default_factory=ApiAccounting)
    resilience: ResilienceCounters = field(default_factory=ResilienceCounters)

    def reset(self) -> None:
        self.optimize = ApiAccounting()
        self.recost = ApiAccounting()
        self.selectivity = ApiAccounting()
        self.resilience = ResilienceCounters()

    @property
    def recost_speedup(self) -> float:
        """Mean optimizer-call time divided by mean recost time."""
        if self.recost.calls == 0 or self.recost.mean_seconds == 0.0:
            return float("inf") if self.optimize.calls else 0.0
        return self.optimize.mean_seconds / self.recost.mean_seconds


class EngineAPI:
    """Engine façade for one query template.

    All online PQO techniques (SCR and the baselines) interact with the
    database engine exclusively through this object, so their optimizer
    overheads are measured identically.
    """

    def __init__(
        self,
        template: QueryTemplate,
        optimizer: QueryOptimizer,
        estimator: SelectivityEstimator,
    ) -> None:
        self.template = template
        self.optimizer = optimizer
        self.estimator = estimator
        self.counters = EngineCounters()
        # Observability handle + pre-resolved metric children; attached
        # via repro.obs.instrument_engine.  None keeps the hot path at
        # one attribute check per call.
        self.obs = None
        self.instruments = None
        # Thread-local: under concurrent serving several worker threads
        # share one engine, and a plain attribute would misattribute
        # spans to whichever instance called begin_instance last.
        self._index_tls = threading.local()

    @property
    def _instance_index(self) -> int:
        return getattr(self._index_tls, "index", -1)

    def begin_instance(self, index: int) -> None:
        """Tag this thread's subsequent API calls with the workload
        instance index.

        Techniques call this once per arriving instance so ``engine.*``
        spans are attributable to the instance that triggered them.
        """
        self._index_tls.index = index

    def _observe_call(self, api: str, start: float, elapsed: float) -> None:
        """Feed one engine call into the attached observability handle."""
        instruments = self.instruments
        if instruments is None:
            return
        instruments.call_seconds[api].observe(elapsed)
        spans = self.obs.spans
        if spans.enabled:
            spans.record(
                f"engine.{api}", start, elapsed,
                template=self.template.name, seq=self._instance_index,
            )

    def selectivity_vector_ex(
        self, instance: QueryInstance
    ) -> tuple[SelectivityVector, bool]:
        """The instance's sVector (cheap; always on the hot path) plus its
        degradation status.

        ``degraded`` is True iff the vector is a stale fallback and the
        instance must be served uncertified; the raw engine computes
        every vector live, so it always answers False.  Returning the
        status with the vector keeps it race-free when many threads
        share one engine.
        """
        start = time.perf_counter()
        sv = self.estimator.selectivity_vector(self.template, instance)
        elapsed = time.perf_counter() - start
        self.counters.selectivity.record(elapsed)
        if self.instruments is not None:
            self._observe_call("selectivity", start, elapsed)
            self.instruments.calibration.record_sv(sv)
        return sv, False

    def selectivity_vector_with_error_ex(
        self, instance: QueryInstance
    ) -> tuple[UncertainSelectivityVector, bool]:
        """The sVector plus per-dimension confidence bounds, and its
        degradation status (always False here).

        Shares the ``selectivity`` API accounting with
        :meth:`selectivity_vector_ex` — it is the same logical-property
        computation, just surfacing the estimator's uncertainty.
        """
        start = time.perf_counter()
        usv = self.estimator.selectivity_vector_with_error(
            self.template, instance
        )
        elapsed = time.perf_counter() - start
        self.counters.selectivity.record(elapsed)
        if self.instruments is not None:
            self._observe_call("selectivity", start, elapsed)
            self.instruments.calibration.record_sv(usv.point)
        return usv, False

    def selectivity_vector(self, instance: QueryInstance) -> SelectivityVector:
        """The sVector alone, without its degradation status."""
        return self.selectivity_vector_ex(instance)[0]

    def selectivity_vector_with_error(
        self, instance: QueryInstance
    ) -> UncertainSelectivityVector:
        """The uncertain sVector alone, without its degradation status."""
        return self.selectivity_vector_with_error_ex(instance)[0]

    def optimize(self, sv: SelectivityVector) -> OptimizationResult:
        """Full optimizer call (the expensive operation PQO avoids)."""
        start = time.perf_counter()
        result = self.optimizer.optimize(sv)
        elapsed = time.perf_counter() - start
        self.counters.optimize.record(elapsed)
        if self.instruments is not None:
            self._observe_call("optimize", start, elapsed)
        return result

    def recost(self, shrunken: ShrunkenMemo, sv: SelectivityVector) -> float:
        """Recost call: cost of a stored plan at a new instance."""
        start = time.perf_counter()
        cost = self.optimizer.recost(shrunken, sv)
        elapsed = time.perf_counter() - start
        self.counters.recost.record(elapsed)
        if self.instruments is not None:
            self._observe_call("recost", start, elapsed)
        return cost

    def reset_counters(self) -> None:
        self.counters.reset()


class EngineWrapper(EngineAPI):
    """Base for every engine façade that wraps another engine.

    Forwards the whole engine protocol to ``inner`` explicitly:
    ``template``, ``counters``, ``begin_instance``, ``reset_counters``,
    ``optimize``, ``recost`` and the two status-carrying sVector calls.
    The plain ``selectivity_vector*`` calls are derived from the ``_ex``
    forms, so a subclass that changes the sVector overrides only the
    ``_ex`` form — its effect, and an inner layer's degraded flag, then
    reach the caller however deep the wrapper sits in the stack.
    Names outside the protocol (``recost_breaker``, ``call_budget``,
    ``set_factor``, ...) resolve through ``__getattr__`` to the nearest
    layer that defines them.
    """

    def __init__(self, inner: EngineAPI) -> None:
        self.inner = inner

    @property
    def template(self) -> QueryTemplate:
        return self.inner.template

    @property
    def counters(self) -> EngineCounters:
        return self.inner.counters

    def begin_instance(self, index: int) -> None:
        self.inner.begin_instance(index)

    def reset_counters(self) -> None:
        self.inner.reset_counters()

    def selectivity_vector_ex(
        self, instance: QueryInstance
    ) -> tuple[SelectivityVector, bool]:
        return self.inner.selectivity_vector_ex(instance)

    def selectivity_vector_with_error_ex(
        self, instance: QueryInstance
    ) -> tuple[UncertainSelectivityVector, bool]:
        return self.inner.selectivity_vector_with_error_ex(instance)

    def optimize(self, sv: SelectivityVector) -> OptimizationResult:
        return self.inner.optimize(sv)

    def recost(self, shrunken: ShrunkenMemo, sv: SelectivityVector) -> float:
        return self.inner.recost(shrunken, sv)

    def __getattr__(self, name: str):
        if name == "inner":  # not yet set: no delegation target
            raise AttributeError(name)
        return getattr(self.inner, name)

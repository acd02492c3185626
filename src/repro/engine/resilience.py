"""Fault-tolerant wrapper around the three engine APIs.

Production engines fail, hang and return garbage; the λ-guarantee must
survive that without ever being *silently* weakened.  This module wraps
any :class:`~repro.engine.api.EngineAPI` (or a
:class:`~repro.engine.faults.FaultInjector` around one) with:

* **retries** with exponential backoff and deterministic, seeded jitter;
* **per-API deadlines** — a call that answers after its deadline is
  treated as failed;
* a **circuit breaker** on the Recost API, short-circuiting calls while
  the engine is misbehaving;
* **fail-closed degradation** that preserves the guarantee:

  - a failed recost is reported as cost ``+inf`` so the cost check can
    only *miss* — SCR never certifies a bound it did not verify;
  - a failed optimize raises :class:`OptimizeUnavailableError`; SCR
    catches it and serves the best cached plan explicitly flagged
    ``uncertified``;
  - a failed sVector call reuses the last-known-good vector inflated by
    a conservative factor, and the served instance is flagged
    ``uncertified``.

Every fault, retry, breaker transition and degraded answer is counted
in :class:`~repro.engine.api.ResilienceCounters`; with an observability
handle on the base engine it is also counted in the registry and
recorded as an ``engine.fault`` / ``engine.retry`` / ``engine.breaker``
/ ``engine.degraded`` event span inside the request that suffered it.
"""

from __future__ import annotations

import math
import random
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, TypeVar

from ..optimizer.optimizer import OptimizationResult
from ..optimizer.recost import ShrunkenMemo
from ..query.instance import (
    QueryInstance,
    SelectivityVector,
    UncertainSelectivityVector,
)
from ..obs.handle import base_engine
from .api import EngineAPI
from .faults import EngineFault, EngineTimeoutError

T = TypeVar("T")

#: Exception types treated as a (retryable) engine failure.  ValueError
#: and ArithmeticError cover garbage results that fail validation inside
#: the engine (e.g. a NaN selectivity rejected by SelectivityVector).
FAILURE_TYPES = (EngineFault, ValueError, ArithmeticError)


class OptimizeUnavailableError(EngineFault):
    """The optimizer failed every retry; callers must degrade explicitly."""


class SelectivityUnavailableError(EngineFault):
    """sVector failed every retry and no last-known-good vector exists."""


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    ``backoff(attempt, rng)`` for attempt ``1, 2, ...`` returns
    ``min(max_backoff, base * multiplier**(attempt-1))`` scaled by a
    jitter factor in ``[1, 1+jitter]`` drawn from the caller's seeded
    RNG — deterministic for a fixed seed, desynchronized across
    templates with different seeds.
    """

    max_attempts: int = 3
    base_backoff: float = 0.005
    multiplier: float = 2.0
    max_backoff: float = 0.1
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def backoff(self, attempt: int, rng: random.Random) -> float:
        raw = min(self.max_backoff, self.base_backoff * self.multiplier ** (attempt - 1))
        return raw * (1.0 + self.jitter * rng.random())


class BreakerState(Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass
class CircuitBreaker:
    """Count-based circuit breaker (no wall-clock dependence).

    ``failure_threshold`` consecutive failures open the circuit; while
    open, ``allow()`` rejects calls until ``cooldown_calls`` rejections
    have elapsed, then one probe is let through (half-open).  The probe
    closes the breaker on success and re-opens it on failure.
    """

    failure_threshold: int = 5
    cooldown_calls: int = 20
    state: BreakerState = BreakerState.CLOSED
    consecutive_failures: int = 0
    rejected_in_cooldown: int = 0
    opens: int = 0
    closes: int = 0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_calls < 1:
            raise ValueError("cooldown_calls must be >= 1")

    @property
    def is_open(self) -> bool:
        return self.state is BreakerState.OPEN

    def allow(self) -> tuple[bool, Optional[str]]:
        """Gate one call; returns (allowed, transition-or-None)."""
        if self.state is BreakerState.OPEN:
            self.rejected_in_cooldown += 1
            if self.rejected_in_cooldown >= self.cooldown_calls:
                self.state = BreakerState.HALF_OPEN
                return True, "open->half-open"
            return False, None
        return True, None

    def record_success(self) -> Optional[str]:
        self.consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self.state = BreakerState.CLOSED
            self.closes += 1
            return "half-open->closed"
        return None

    def record_failure(self) -> Optional[str]:
        if self.state is BreakerState.HALF_OPEN:
            self._open()
            return "half-open->open"
        self.consecutive_failures += 1
        if (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self._open()
            return "closed->open"
        return None

    def _open(self) -> None:
        self.state = BreakerState.OPEN
        self.opens += 1
        self.rejected_in_cooldown = 0
        self.consecutive_failures = 0


@dataclass(frozen=True)
class ResiliencePolicy:
    """Tunables for one :class:`ResilientEngineAPI`."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_failure_threshold: int = 5
    breaker_cooldown_calls: int = 20
    # Per-API deadlines in seconds (None disables enforcement).
    optimize_deadline: Optional[float] = None
    recost_deadline: Optional[float] = None
    selectivity_deadline: Optional[float] = None
    # Conservative inflation applied to a reused last-known-good sVector.
    svector_inflation: float = 1.5

    def __post_init__(self) -> None:
        if self.svector_inflation < 1.0:
            raise ValueError("svector_inflation must be >= 1")


class ResilientEngineAPI:
    """Drop-in :class:`EngineAPI` façade with fault tolerance.

    Composes rather than subclasses: unknown attributes delegate to the
    wrapped engine, and ``counters`` are the wrapped engine's own (its
    ``resilience`` sub-counters are filled in by this layer).

    Parameters
    ----------
    engine:
        The engine to protect — a raw :class:`EngineAPI` or a
        :class:`~repro.engine.faults.FaultInjector` around one.
    policy:
        Retry / breaker / deadline tunables.
    seed:
        Seed for the deterministic backoff jitter.
    sleep:
        Injectable sleep (tests pass a no-op to stay fast).
    """

    def __init__(
        self,
        engine: EngineAPI,
        policy: Optional[ResiliencePolicy] = None,
        seed: int = 0,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.inner = engine
        self.policy = policy or ResiliencePolicy()
        self._rng = random.Random(seed)
        self._sleep = sleep if sleep is not None else time.sleep
        self.recost_breaker = CircuitBreaker(
            failure_threshold=self.policy.breaker_failure_threshold,
            cooldown_calls=self.policy.breaker_cooldown_calls,
        )
        self._last_good_sv: Optional[SelectivityVector] = None
        self._last_good_usv: Optional[UncertainSelectivityVector] = None
        # Per-call state lives in thread-local storage: under concurrent
        # serving several threads share one engine, and a shared instance
        # index or call budget would let thread B's call clobber thread
        # A's before A reads it.
        self._tls = threading.local()

    @property
    def _index(self) -> int:
        return getattr(self._tls, "index", -1)

    @property
    def _budget_deadline(self) -> Optional[float]:
        """This thread's end-to-end call budget (absolute monotonic time)."""
        return getattr(self._tls, "budget_deadline", None)

    @contextmanager
    def call_budget(self, expires_at: Optional[float]):
        """Bound every engine call in the block by one shared deadline.

        ``expires_at`` is an absolute :func:`time.monotonic` value — the
        *remaining* budget of an end-to-end serving deadline.  While the
        scope is active (thread-locally, so concurrent servers sharing
        one engine don't clobber each other): a call starting past the
        budget fails immediately, a call *answering* past it is treated
        as timed out (fail-closed, like a per-API deadline overrun), and
        retries whose backoff would overshoot the budget are skipped.
        """
        prev = getattr(self._tls, "budget_deadline", None)
        self._tls.budget_deadline = expires_at
        try:
            yield
        finally:
            self._tls.budget_deadline = prev

    # -- façade --------------------------------------------------------------

    @property
    def template(self):
        return self.inner.template

    @property
    def counters(self):
        return self.inner.counters

    def begin_instance(self, index: int) -> None:
        self._tls.index = index
        self.inner.begin_instance(index)

    def reset_counters(self) -> None:
        self.inner.reset_counters()

    def __getattr__(self, name: str):
        if name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)

    # -- retry machinery -----------------------------------------------------

    @property
    def _instruments(self):
        """Registry instruments attached to the base engine (or None)."""
        return getattr(base_engine(self.inner), "instruments", None)

    def _count_fault(self, api: str, exc: Exception) -> None:
        res = self.counters.resilience
        if api == "optimize":
            res.faults_optimize += 1
        elif api == "recost":
            res.faults_recost += 1
        else:
            res.faults_selectivity += 1
        instruments = self._instruments
        if instruments is not None:
            instruments.faults[api].inc()
            instruments.event("fault", api, self._index, str(exc)[:120])

    def _count_degraded(self, api: str, detail: str) -> None:
        instruments = self._instruments
        if instruments is not None:
            instruments.degraded[api].inc()
            # A degraded answer is fabricated locally, so no sample for
            # it ever reaches the calibration/drift feeds — note the
            # gap for the doctor's coverage accounting.
            instruments.feed_gaps[api].inc()
            instruments.event("degraded", api, self._index, detail)

    def _attempt(
        self,
        api: str,
        fn: Callable[[], T],
        deadline: Optional[float],
        validate: Optional[Callable[[T], bool]] = None,
    ) -> T:
        """One guarded call: deadline enforcement + result validation."""
        budget = self._budget_deadline
        if budget is not None and time.monotonic() >= budget:
            raise EngineTimeoutError(
                f"{api} call skipped: end-to-end budget exhausted"
            )
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if deadline is not None and elapsed > deadline:
            raise EngineTimeoutError(
                f"{api} call took {elapsed:.4f}s > deadline {deadline:.4f}s"
            )
        if budget is not None and time.monotonic() > budget:
            raise EngineTimeoutError(
                f"{api} call answered past its end-to-end budget"
            )
        if validate is not None and not validate(result):
            raise ValueError(f"{api} returned an invalid result: {result!r}")
        return result

    def _call_with_retries(
        self,
        api: str,
        fn: Callable[[], T],
        deadline: Optional[float],
        validate: Optional[Callable[[T], bool]] = None,
        on_failure: Optional[Callable[[], None]] = None,
        on_success: Optional[Callable[[], None]] = None,
    ) -> T:
        retry = self.policy.retry
        last_error: Optional[Exception] = None
        for attempt in range(1, retry.max_attempts + 1):
            try:
                result = self._attempt(api, fn, deadline, validate)
            except FAILURE_TYPES as exc:
                last_error = exc
                self._count_fault(api, exc)
                if on_failure is not None:
                    on_failure()
                if attempt < retry.max_attempts:
                    backoff = retry.backoff(attempt, self._rng)
                    budget = self._budget_deadline
                    if (
                        budget is not None
                        and time.monotonic() + backoff >= budget
                    ):
                        break  # budget can't fund another attempt
                    self.counters.resilience.retries += 1
                    instruments = self._instruments
                    if instruments is not None:
                        instruments.retries.inc()
                        instruments.event(
                            "retry", api, self._index, f"attempt {attempt}",
                            backoff_s=backoff,
                        )
                    self._sleep(backoff)
                continue
            if on_success is not None:
                on_success()
            return result
        assert last_error is not None
        raise last_error

    # -- the three APIs ------------------------------------------------------

    def selectivity_vector(self, instance: QueryInstance) -> SelectivityVector:
        """sVector with retries; degrades to last-known-good, inflated.

        The inflation pushes every selectivity *up* (clamped to 1.0),
        which shrinks G·L budgets and recost ratios conservatively; the
        caller still marks the instance uncertified, from the paired
        status :meth:`selectivity_vector_ex` returns.
        """
        return self.selectivity_vector_ex(instance)[0]

    def selectivity_vector_ex(
        self, instance: QueryInstance
    ) -> tuple[SelectivityVector, bool]:
        """sVector plus its per-call degradation status.

        Returns ``(sv, degraded)`` where ``degraded`` is True iff the
        vector is a stale-inflated fallback and the instance must be
        served uncertified.  Returning the status with the vector keeps
        it race-free when many threads share one engine.
        """
        try:
            sv = self._call_with_retries(
                "selectivity",
                lambda: self.inner.selectivity_vector(instance),
                self.policy.selectivity_deadline,
            )
        except FAILURE_TYPES as exc:
            if self._last_good_sv is None:
                raise SelectivityUnavailableError(
                    "sVector failed and no last-known-good vector exists"
                ) from exc
            inflated = SelectivityVector.from_sequence(
                [min(1.0, s * self.policy.svector_inflation)
                 for s in self._last_good_sv]
            )
            self.counters.resilience.selectivity_fallbacks += 1
            self._count_degraded(
                "selectivity",
                f"stale vector inflated x{self.policy.svector_inflation:g}",
            )
            return inflated, True
        self._last_good_sv = sv
        return sv, False

    def selectivity_vector_with_error(
        self, instance: QueryInstance
    ) -> UncertainSelectivityVector:
        """Uncertain sVector with retries; degrades to a *widened* stale box.

        Degraded reads inflate the interval instead of guessing: the
        last-known-good box is widened by the inflation factor, so the
        robust checks become strictly more pessimistic instead of
        trusting a stale point estimate.
        """
        return self.selectivity_vector_with_error_ex(instance)[0]

    def selectivity_vector_with_error_ex(
        self, instance: QueryInstance
    ) -> tuple[UncertainSelectivityVector, bool]:
        """Uncertain sVector plus its per-call degradation status.

        Returns ``(usv, degraded)``.  A degraded box is the last-known-good
        box widened by ``svector_inflation`` (or, when only a point
        vector was ever seen, a zero-width box around it, widened): the
        stale interval says nothing about *this* instance's truth, so
        the caller must still serve the instance uncertified — the
        widening only keeps the robust checks on the pessimistic side.
        """
        try:
            usv = self._call_with_retries(
                "selectivity",
                lambda: self.inner.selectivity_vector_with_error(instance),
                self.policy.selectivity_deadline,
            )
        except FAILURE_TYPES as exc:
            stale = self._last_good_usv
            if stale is None and self._last_good_sv is not None:
                stale = UncertainSelectivityVector.exact(self._last_good_sv)
            if stale is None:
                raise SelectivityUnavailableError(
                    "sVector failed and no last-known-good vector exists"
                ) from exc
            widened = stale.widened(self.policy.svector_inflation)
            self.counters.resilience.selectivity_fallbacks += 1
            self._count_degraded(
                "selectivity",
                f"stale interval widened x{self.policy.svector_inflation:g}",
            )
            return widened, True
        self._last_good_usv = usv
        self._last_good_sv = usv.point
        return usv, False

    def optimize(self, sv: SelectivityVector) -> OptimizationResult:
        """Optimize with retries; exhaustion raises
        :class:`OptimizeUnavailableError` for the technique to degrade
        (SCR serves its best cached plan, flagged uncertified)."""
        try:
            return self._call_with_retries(
                "optimize",
                lambda: self.inner.optimize(sv),
                self.policy.optimize_deadline,
                validate=lambda r: math.isfinite(r.cost) and r.cost > 0,
            )
        except FAILURE_TYPES as exc:
            raise OptimizeUnavailableError(
                f"optimize failed after {self.policy.retry.max_attempts} attempts"
            ) from exc

    def recost(self, shrunken: ShrunkenMemo, sv: SelectivityVector) -> float:
        """Recost behind the circuit breaker, failing *closed*.

        Any failure path returns ``+inf``: the cost check ``R·L ≤ λ/S``
        can then only miss, so a flaky recost can cause extra optimizer
        calls but never an unverified certification.
        """
        allowed, transition = self.recost_breaker.allow()
        if transition is not None:
            self._breaker_event(transition)
        if not allowed:
            res = self.counters.resilience
            res.breaker_short_circuits += 1
            res.recost_failed_closed += 1
            self._count_degraded("recost", "breaker open")
            return math.inf

        def on_failure() -> None:
            t = self.recost_breaker.record_failure()
            if t is not None:
                self._breaker_event(t)

        def on_success() -> None:
            t = self.recost_breaker.record_success()
            if t is not None:
                self._breaker_event(t)

        try:
            return self._call_with_retries(
                "recost",
                lambda: self.inner.recost(shrunken, sv),
                self.policy.recost_deadline,
                validate=lambda c: math.isfinite(c) and c > 0,
                on_failure=on_failure,
                on_success=on_success,
            )
        except FAILURE_TYPES:
            self.counters.resilience.recost_failed_closed += 1
            self._count_degraded("recost", "failed closed (miss)")
            return math.inf

    def _breaker_event(self, transition: str) -> None:
        res = self.counters.resilience
        if transition.endswith("->open"):
            res.breaker_opens += 1
        elif transition.endswith("->closed"):
            res.breaker_closes += 1
        instruments = self._instruments
        if instruments is not None:
            instruments.breaker_transition(transition)
            instruments.event("breaker", "recost", self._index, transition)


def resilient_engine_factory(
    policy: Optional[ResiliencePolicy] = None,
    seed: int = 0,
    sleep: Optional[Callable[[float], None]] = None,
) -> Callable[[EngineAPI], ResilientEngineAPI]:
    """An ``engine_wrapper`` for
    :class:`~repro.serving.manager.ConcurrentPQOManager`.

    Each wrapped engine gets its own jitter stream derived from the base
    seed and the template name, so retries across templates do not
    synchronize.
    """

    def wrap(engine: EngineAPI) -> ResilientEngineAPI:
        # str hash is randomized per process; crc32 keeps seeds stable.
        template_seed = seed + (zlib.crc32(engine.template.name.encode()) & 0xFFFF)
        return ResilientEngineAPI(
            engine, policy=policy, seed=template_seed, sleep=sleep
        )

    return wrap

"""Overload protection for the concurrent serving layer.

SCR's whole point is rationing optimizer calls against a tunable
optimality bound λ; the same trade must govern behaviour under *load*
failures, not just the engine failures PR 1 covers.  When the optimizer
pool saturates, this module relaxes or skips optimization *explicitly
and observably* instead of letting queues collapse:

* **Bounded ingress** — each template's shard accepts at most
  ``queue_limit`` outstanding submissions; a full queue is resolved in
  the submitting thread (rejection as last resort: serve the nearest
  cached plan uncertified, shed only when the cache is empty).
* **Deadline budgets** — every submission can carry an end-to-end
  :class:`Deadline`; the *remaining* budget is propagated into engine
  calls (via the resilience layer's per-call budget), expired
  submissions resolve through the degraded path instead of hanging, and
  the optimizer is never invoked with less than
  ``min_optimize_budget`` seconds left.
* **Optimizer gate** — a concurrency limiter plus optional token
  bucket dedicated to optimizer calls (:class:`OptimizerGate`); gate
  wait time is a first-class pressure signal.
* **Brownout controller** — a hysteresis state machine
  (``normal → coverage-relaxed → λ-relaxed → uncertified-serve →
  shed``) driven by queue depth, optimizer-gate wait and deadline-miss
  rate.  Each level degrades along the *guarantee* axis: first
  robust-mode shards lower the coverage their uncertainty boxes demand
  (certificates honestly downgrade robust → probabilistic), then λ is
  widened through the pressure hook in
  :mod:`repro.core.dynamic_lambda`, then misses are served from cache
  explicitly ``certified=False``, and only when no cached plan exists
  is a request shed (:class:`ShedError`).

Every shed / uncertified decision and every brownout transition is
counted in the metrics registry (through
:class:`~repro.serving.stats.ServingStats` and the controller's own
families) and, with spans on, recorded as an ``overload.*`` event span
carrying its reason code.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Optional, Union

from ..obs.clock import Clock, as_clock
from ..obs.handle import Observability

BROWNOUT_LEVEL = "repro_brownout_level"
BROWNOUT_TRANSITIONS_TOTAL = "repro_brownout_transitions_total"
PENDING_REQUESTS = "repro_pending_requests"
GATE_WAIT_SECONDS = "repro_gate_wait_seconds"


class ShedError(RuntimeError):
    """The serving layer refused this request under overload.

    Raised (or set on the submission's future) only as a last resort:
    when the degradation ladder bottomed out — the template's queue or
    brownout level demanded a cached answer and no cached plan exists.
    ``reason`` is a stable machine-readable code, e.g.
    ``"queue_full:no_cached_plan"``.
    """

    def __init__(self, reason: str, template: str = "") -> None:
        self.reason = reason
        self.template = template
        super().__init__(
            f"request shed ({reason})"
            + (f" for template {template!r}" if template else "")
        )


class ShutdownError(RuntimeError):
    """The manager was closed before this queued submission was served."""


# -- deadlines ----------------------------------------------------------------


@dataclass(frozen=True)
class Deadline:
    """An end-to-end serving budget on the monotonic clock.

    ``expires_at`` is an absolute :func:`time.monotonic` value so the
    budget keeps shrinking while the submission waits in queue; every
    layer (queue wait, single-flight wait, engine retries) consumes
    from the same budget.
    """

    expires_at: float
    budget_seconds: float

    @classmethod
    def after(
        cls,
        seconds: float,
        clock: Union[Clock, Callable[[], float]] = time.monotonic,
    ) -> "Deadline":
        if seconds < 0:
            raise ValueError("deadline budget must be >= 0")
        if isinstance(clock, Clock):
            clock = clock.monotonic
        return cls(expires_at=clock() + seconds, budget_seconds=seconds)

    def remaining(self, now: Optional[float] = None) -> float:
        if now is None:
            now = time.monotonic()
        return self.expires_at - now

    def expired(self, now: Optional[float] = None) -> bool:
        return self.remaining(now) <= 0.0


# -- optimizer gate -----------------------------------------------------------


class OptimizerGate:
    """Concurrency limiter (+ optional token bucket) for optimizer calls.

    The semaphore bounds how many optimizer calls run at once — the
    scarce resource SCR rations.  The optional token bucket additionally
    bounds the *rate* of optimizer calls (``tokens_per_second`` refill,
    ``burst`` capacity).  ``acquire`` blocks up to ``timeout`` seconds;
    the wait time feeds a decaying average that the brownout controller
    reads as the optimizer-pool pressure signal.
    """

    def __init__(
        self,
        concurrency: int,
        tokens_per_second: Optional[float] = None,
        burst: Optional[int] = None,
        clock: Union[Clock, Callable[[], float]] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if tokens_per_second is not None and tokens_per_second <= 0:
            raise ValueError("tokens_per_second must be positive")
        self._sem = threading.Semaphore(concurrency)
        self.concurrency = concurrency
        self.tokens_per_second = tokens_per_second
        self.burst = float(burst if burst is not None else concurrency)
        self._clock = clock.monotonic if isinstance(clock, Clock) else clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._tokens = self.burst
        self._refilled_at = clock()
        self.acquired = 0
        self.timeouts = 0
        self.total_wait_seconds = 0.0
        #: Exponentially decayed recent wait per admission attempt; the
        #: brownout controller's optimizer-pool pressure signal.
        self.wait_ema_seconds = 0.0

    def _take_token(self, deadline_at: float) -> bool:
        """Take one token, sleeping for the refill if the budget allows."""
        if self.tokens_per_second is None:
            return True
        while True:
            with self._lock:
                now = self._clock()
                self._tokens = min(
                    self.burst,
                    self._tokens
                    + (now - self._refilled_at) * self.tokens_per_second,
                )
                self._refilled_at = now
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return True
                wait = (1.0 - self._tokens) / self.tokens_per_second
            if now + wait > deadline_at:
                return False
            self._sleep(wait)

    def acquire(self, timeout: float) -> bool:
        """Try to admit one optimizer call; pairs with :meth:`release`."""
        start = self._clock()
        ok = self._sem.acquire(timeout=max(0.0, timeout))
        if ok and not self._take_token(start + timeout):
            self._sem.release()
            ok = False
        waited = self._clock() - start
        with self._lock:
            self.total_wait_seconds += waited
            self.wait_ema_seconds = (
                0.8 * self.wait_ema_seconds + 0.2 * waited
            )
            if ok:
                self.acquired += 1
            else:
                self.timeouts += 1
        return ok

    def release(self) -> None:
        self._sem.release()

    def attempts(self) -> int:
        """Admission attempts so far (successful or timed out)."""
        with self._lock:
            return self.acquired + self.timeouts

    def reset_wait_ema(self) -> None:
        """Zero the wait EMA after a window with no admission attempts.

        Levels ≥ UNCERTIFIED stop consulting the gate entirely; without
        this, the last hot reading would be frozen above the recovery
        threshold and the brownout controller could never come back down.
        """
        with self._lock:
            self.wait_ema_seconds = 0.0


# -- brownout state machine ---------------------------------------------------


class BrownoutLevel(IntEnum):
    """Degradation levels, ordered by how much guarantee is given up.

    The first step degrades along the *uncertainty* axis: shards running
    a robust check mode lower the coverage their probes demand
    (``brownout_coverage``), trading certificate strength (robust →
    probabilistic) for cache hits before λ itself is touched.  Point-mode
    shards pass through COVERAGE_RELAXED unchanged — for them the ladder
    behaves exactly as before, one level later.
    """

    NORMAL = 0            # full SCR pipeline, base λ, full coverage
    COVERAGE_RELAXED = 1  # robust shards probe at reduced coverage
    LAMBDA_RELAXED = 2    # λ widened via the pressure hook; still certified
    UNCERTIFIED = 3       # misses served from cache uncertified, no optimize
    SHED = 4              # selectivity-only probe; shed when cache is empty


@dataclass(frozen=True)
class OverloadPolicy:
    """Tunables for the overload-protection subsystem.

    Thresholds come in high/low pairs: a signal above its *high* value
    counts as pressure, and recovery requires every signal below its
    *low* value — the dead band between them is the hysteresis that
    prevents flapping.
    """

    #: Per-template cap on outstanding (queued + running) submissions.
    queue_limit: int = 64
    #: Default end-to-end budget attached to submissions (None = none).
    default_deadline_seconds: Optional[float] = None
    #: Optimizer is never invoked with less remaining budget than this.
    min_optimize_budget: float = 0.002
    #: Max concurrent optimizer calls across all templates.
    optimizer_concurrency: int = 4
    #: Optional token-bucket rate/burst for optimizer calls.
    optimizer_tokens_per_second: Optional[float] = None
    optimizer_token_burst: Optional[int] = None
    #: How long a miss may wait for the optimizer gate before degrading.
    gate_timeout: float = 0.050
    #: Brownout evaluation cadence, in completed instances.
    evaluate_every: int = 25
    #: Queue-depth thresholds as fractions of total queue capacity.
    queue_high: float = 0.50
    queue_low: float = 0.125
    #: Optimizer-gate wait thresholds (seconds, decayed average).
    gate_wait_high: float = 0.020
    gate_wait_low: float = 0.005
    #: Deadline-miss-rate thresholds over the evaluation window.
    deadline_miss_high: float = 0.10
    deadline_miss_low: float = 0.02
    #: Consecutive hot/calm evaluations required to move one level.
    escalate_ticks: int = 2
    recover_ticks: int = 3
    #: λ multiplier applied from LAMBDA_RELAXED upward, and the absolute
    #: ceiling the relaxed λ never exceeds (None = uncapped).
    lambda_relax_factor: float = 1.5
    lambda_ceiling: Optional[float] = None
    #: Coverage robust-mode probes demand at COVERAGE_RELAXED and above
    #: (shrinks the uncertainty box → more hits, honestly downgraded to
    #: probabilistic certificates; λ itself stays untouched).
    brownout_coverage: float = 0.8

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.escalate_ticks < 1 or self.recover_ticks < 1:
            raise ValueError("hysteresis tick counts must be >= 1")
        if self.lambda_relax_factor < 1.0:
            raise ValueError("lambda_relax_factor must be >= 1")
        if not (0.0 <= self.queue_low <= self.queue_high):
            raise ValueError("queue thresholds must satisfy 0 <= low <= high")
        if not (0.0 < self.brownout_coverage <= 1.0):
            raise ValueError("brownout_coverage must be in (0, 1]")


@dataclass(frozen=True)
class OverloadSignals:
    """One evaluation tick's pressure inputs."""

    queue_fraction: float
    gate_wait_seconds: float
    deadline_miss_rate: float

    def pressure(self, policy: OverloadPolicy) -> tuple[float, str]:
        """Max signal normalized by its high threshold, plus the driver."""
        normalized = {
            "queue_depth": self.queue_fraction / max(policy.queue_high, 1e-9),
            "gate_wait": self.gate_wait_seconds
            / max(policy.gate_wait_high, 1e-9),
            "deadline_miss": self.deadline_miss_rate
            / max(policy.deadline_miss_high, 1e-9),
        }
        driver = max(normalized, key=normalized.get)
        return normalized[driver], driver

    def calm(self, policy: OverloadPolicy) -> bool:
        """True when every signal sits below its *low* threshold."""
        return (
            self.queue_fraction <= policy.queue_low
            and self.gate_wait_seconds <= policy.gate_wait_low
            and self.deadline_miss_rate <= policy.deadline_miss_low
        )


@dataclass
class BrownoutTransition:
    """One recorded level change."""

    tick: int
    previous: BrownoutLevel
    current: BrownoutLevel
    reason: str


class BrownoutController:
    """Hysteresis state machine over the brownout levels.

    Moves at most **one level per evaluation tick**; escalation needs
    ``escalate_ticks`` consecutive hot ticks, recovery needs
    ``recover_ticks`` consecutive calm ticks, and the dead band between
    the high and low thresholds counts as neither — so the controller
    cannot flap between levels on a noisy boundary signal.
    """

    def __init__(self, policy: OverloadPolicy) -> None:
        self.policy = policy
        self.level = BrownoutLevel.NORMAL
        self.transitions: list[BrownoutTransition] = []
        self.ticks = 0
        self._hot = 0
        self._calm = 0
        self._lock = threading.Lock()
        self._m_level = None
        self._m_transitions = None
        self._spans = None

    def attach_obs(self, obs: Observability) -> None:
        """Mirror the brownout level and transitions into the registry,
        and record each move as an ``overload.brownout`` event span."""
        self._spans = obs.spans
        self._m_level = obs.registry.gauge(
            BROWNOUT_LEVEL,
            "Current brownout level (0=normal ... 4=shed)",
        ).labels()
        self._m_transitions = obs.registry.counter(
            BROWNOUT_TRANSITIONS_TOTAL,
            "Brownout level changes by destination level",
            labels=("to_level",),
        )

    def evaluate(self, signals: OverloadSignals) -> Optional[BrownoutTransition]:
        """Consume one tick's signals; returns the transition, if any."""
        with self._lock:
            self.ticks += 1
            pressure, driver = signals.pressure(self.policy)
            if pressure >= 1.0:
                self._hot += 1
                self._calm = 0
            elif signals.calm(self.policy):
                self._calm += 1
                self._hot = 0
            else:  # hysteresis dead band: hold the current level
                self._hot = 0
                self._calm = 0
            transition = None
            if (
                self._hot >= self.policy.escalate_ticks
                and self.level < BrownoutLevel.SHED
            ):
                transition = self._move(self.level + 1, f"escalate:{driver}")
                self._hot = 0
            elif (
                self._calm >= self.policy.recover_ticks
                and self.level > BrownoutLevel.NORMAL
            ):
                transition = self._move(self.level - 1, "recover:calm")
                self._calm = 0
        return transition

    def _move(self, new_level: int, reason: str) -> BrownoutTransition:
        transition = BrownoutTransition(
            tick=self.ticks,
            previous=self.level,
            current=BrownoutLevel(new_level),
            reason=reason,
        )
        self.level = transition.current
        self.transitions.append(transition)
        if self._m_level is not None:
            self._m_level.set(int(transition.current))
            self._m_transitions.labels(
                to_level=transition.current.name.lower()
            ).inc()
            self._spans.event(
                "overload.brownout", tick=self.ticks, reason=reason,
                transition=(
                    f"{transition.previous.name.lower()}->"
                    f"{transition.current.name.lower()}"
                ),
            )
        return transition


# -- the coordinator ----------------------------------------------------------


class OverloadCoordinator:
    """Glue between the manager, the shards and the brownout machinery.

    Owns the optimizer gate, the global queue gauge and the evaluation
    window (served / deadline-missed counts); shards consult it on the
    miss path (:meth:`optimize_admission`) and report completions
    (:meth:`note_completed`), which drives the evaluation cadence.
    """

    def __init__(
        self,
        policy: OverloadPolicy,
        clock: Union[Clock, Callable[[], float]] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.policy = policy
        # One unified clock source: tests and legacy callers may pass a
        # bare monotonic callable; as_clock normalizes either form, and
        # `self.clock` stays the plain callable shards and deadlines use.
        self.clock_source = clock if isinstance(clock, Clock) else as_clock(clock)
        self.clock = self.clock_source.monotonic
        self.controller = BrownoutController(policy)
        self.gate = OptimizerGate(
            concurrency=policy.optimizer_concurrency,
            tokens_per_second=policy.optimizer_tokens_per_second,
            burst=policy.optimizer_token_burst,
            clock=self.clock,
            sleep=sleep,
        )
        self._obs: Optional[Observability] = None
        self._m_pending = None
        self._lock = threading.Lock()
        self._pending = 0
        self._num_shards = 0
        self._since_evaluate = 0
        self._window_served = 0
        self._window_missed = 0
        self._gate_attempts_seen = 0
        self.shed_total = 0

    # -- level access --------------------------------------------------------

    @property
    def level(self) -> BrownoutLevel:
        return self.controller.level

    def level_value(self) -> int:
        """Plain-int level accessor for the core-layer λ pressure hook."""
        return int(self.controller.level)

    # -- lifecycle -----------------------------------------------------------

    def attach_obs(self, obs: Observability) -> None:
        """Mirror the overload subsystem's state into the registry."""
        self._obs = obs
        self._m_pending = obs.registry.gauge(
            PENDING_REQUESTS,
            "Outstanding submissions across all shards",
        ).labels()
        obs.registry.gauge(
            GATE_WAIT_SECONDS,
            "Decayed average optimizer-gate wait (pressure signal)",
        )
        self.controller.attach_obs(obs)

    def register_shard(self) -> None:
        with self._lock:
            self._num_shards += 1

    def new_deadline(self) -> Optional[Deadline]:
        seconds = self.policy.default_deadline_seconds
        if seconds is None:
            return None
        return Deadline.after(seconds, clock=self.clock)

    # -- bounded ingress -----------------------------------------------------

    @property
    def queue_capacity(self) -> int:
        return self.policy.queue_limit * max(1, self._num_shards)

    @property
    def pending(self) -> int:
        return self._pending

    def try_enter_queue(self, stats) -> bool:
        """Admit one submission against the shard's bounded queue."""
        if not stats.try_enqueue(self.policy.queue_limit):
            return False
        with self._lock:
            self._pending += 1
            pending = self._pending
        if self._m_pending is not None:
            self._m_pending.set(pending)
        return True

    def exit_queue(self, stats) -> None:
        stats.note_dequeued()
        with self._lock:
            self._pending = max(0, self._pending - 1)
            pending = self._pending
        if self._m_pending is not None:
            self._m_pending.set(pending)

    # -- miss-path admission -------------------------------------------------

    def optimize_admission(
        self, deadline: Optional[Deadline]
    ) -> tuple[Optional[str], bool]:
        """Decide whether a miss may invoke the optimizer.

        Returns ``(denial_reason, holds_gate)``.  ``denial_reason`` is
        ``None`` when the call may proceed, in which case
        ``holds_gate`` is True and the caller must
        :meth:`release_optimize` afterwards.
        """
        level = self.controller.level
        if level >= BrownoutLevel.SHED:
            return "brownout_shed", False
        if level >= BrownoutLevel.UNCERTIFIED:
            return "brownout_uncertified", False
        timeout = self.policy.gate_timeout
        if deadline is not None:
            remaining = deadline.remaining(self.clock())
            if remaining <= self.policy.min_optimize_budget:
                return "deadline_budget", False
            timeout = min(
                timeout, remaining - self.policy.min_optimize_budget
            )
        if not self.gate.acquire(timeout):
            return "gate_timeout", False
        return None, True

    def release_optimize(self) -> None:
        self.gate.release()

    # -- completion / evaluation cadence -------------------------------------

    def note_completed(self, deadline_missed: bool, shed: bool = False) -> None:
        with self._lock:
            self._window_served += 1
            if deadline_missed:
                self._window_missed += 1
            if shed:
                self.shed_total += 1
            self._since_evaluate += 1
            due = self._since_evaluate >= self.policy.evaluate_every
            if due:
                self._since_evaluate = 0
                signals = self._signals_locked(consume=True)
                self._window_served = 0
                self._window_missed = 0
        if due:
            self.controller.evaluate(signals)

    def _signals_locked(self, consume: bool = False) -> OverloadSignals:
        served = max(1, self._window_served)
        attempts = self.gate.attempts()
        gate_wait = self.gate.wait_ema_seconds
        if attempts == self._gate_attempts_seen:
            # The gate saw no admission attempt this window — e.g. the
            # brownout level stopped consulting it.  The window's true
            # wait is zero; a frozen hot EMA must not block recovery.
            gate_wait = 0.0
            if consume:
                self.gate.reset_wait_ema()
        elif consume:
            self._gate_attempts_seen = attempts
        return OverloadSignals(
            queue_fraction=self._pending / max(1, self.queue_capacity),
            gate_wait_seconds=gate_wait,
            deadline_miss_rate=self._window_missed / served,
        )

    def signals(self) -> OverloadSignals:
        with self._lock:
            return self._signals_locked()

    # -- reporting -----------------------------------------------------------

    def report(self) -> dict[str, object]:
        """Operator-facing snapshot of the overload subsystem."""
        signals = self.signals()
        if self._obs is not None:
            self._obs.registry.gauge(GATE_WAIT_SECONDS).labels().set(
                signals.gate_wait_seconds
            )
        return {
            "brownout": self.controller.level.name.lower(),
            "transitions": len(self.controller.transitions),
            "pending": self._pending,
            "queue_capacity": self.queue_capacity,
            "queue_fraction": round(signals.queue_fraction, 3),
            "gate_wait_ms": round(signals.gate_wait_seconds * 1e3, 3),
            "gate_timeouts": self.gate.timeouts,
            "deadline_miss_rate": round(signals.deadline_miss_rate, 3),
            "shed": self.shed_total,
        }

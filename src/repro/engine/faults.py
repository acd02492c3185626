"""Deterministic fault injection for the three engine APIs.

The paper's guarantee (Theorem 1, Appendix G) assumes a well-behaved
engine; a production deployment gets one that fails, hangs and returns
garbage.  :class:`FaultInjector` wraps an :class:`~repro.engine.api.EngineAPI`
and injects configurable failure modes per API — transient exceptions,
deadline overruns, corrupted costs (NaN / negative / inflated) and
stale selectivity vectors — from a seeded RNG so every chaos run is
exactly reproducible.  The resilience layer
(:mod:`repro.engine.resilience`) is tested against this injector, and
the chaos workload it enables is reused by later scaling work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import random

from ..optimizer.optimizer import OptimizationResult
from ..optimizer.recost import ShrunkenMemo
from ..query.instance import (
    QueryInstance,
    SelectivityVector,
    UncertainSelectivityVector,
    clamp_selectivity,
)
from .api import EngineAPI, EngineWrapper

#: Multiplier used by the "inflated cost" corruption mode.
INFLATE_FACTOR = 100.0


class EngineFault(Exception):
    """Base class for injected / detected engine failures."""


class TransientEngineError(EngineFault):
    """A retryable failure: connection reset, deadlock victim, etc."""


class EngineTimeoutError(EngineFault):
    """A call exceeded its deadline (real or injected overrun)."""


@dataclass
class FaultProfile:
    """Failure rates for one engine API.

    All rates are probabilities in ``[0, 1]`` drawn per call from the
    injector's seeded RNG, so a given (profile, seed) pair produces the
    same fault sequence every run.

    Attributes
    ----------
    error_rate:
        Probability of raising :class:`TransientEngineError` instead of
        answering.
    timeout_rate:
        Probability of raising :class:`EngineTimeoutError`, modelling a
        deadline overrun without actually sleeping.
    corrupt_rate:
        Probability of corrupting the *result*: for recost, a NaN,
        negative or inflated cost; for sVector, a stale (previous
        instance's) vector.
    """

    error_rate: float = 0.0
    timeout_rate: float = 0.0
    corrupt_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("error_rate", "timeout_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not (0.0 <= rate <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {rate}")


@dataclass
class FaultConfig:
    """Per-API fault profiles for one injector."""

    optimize: FaultProfile = field(default_factory=FaultProfile)
    recost: FaultProfile = field(default_factory=FaultProfile)
    selectivity: FaultProfile = field(default_factory=FaultProfile)

    @classmethod
    def chaos(
        cls,
        recost_failure_rate: float = 0.2,
        optimize_timeout_rate: float = 0.05,
        svector_corrupt_rate: float = 0.02,
    ) -> "FaultConfig":
        """The chaos-testing workload profile the acceptance bar names:
        flaky recost (errors + corrupted costs), occasionally hanging
        optimizer, rarely-stale selectivity vectors."""
        return cls(
            optimize=FaultProfile(timeout_rate=optimize_timeout_rate),
            recost=FaultProfile(
                error_rate=recost_failure_rate / 2.0,
                corrupt_rate=recost_failure_rate / 2.0,
            ),
            selectivity=FaultProfile(corrupt_rate=svector_corrupt_rate),
        )


@dataclass(frozen=True)
class InjectedFault:
    """Record of one injected fault, for assertions and reports."""

    api: str
    mode: str          # "error" | "timeout" | "corrupt:<kind>"
    call_index: int


class FaultInjector(EngineWrapper):
    """An :class:`EngineAPI` wrapper that injects failures.

    Sits *between* the resilience layer and the real engine::

        ResilientEngineAPI(FaultInjector(engine, config, seed=...))

    Fault draws consume a private seeded RNG in a fixed per-call order,
    so runs are deterministic regardless of wall-clock timing.
    """

    def __init__(
        self,
        engine: EngineAPI,
        config: Optional[FaultConfig] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(engine)
        self.config = config or FaultConfig()
        self._rng = random.Random(seed)
        self.injected: list[InjectedFault] = []
        self._calls = 0
        self._last_sv: Optional[SelectivityVector] = None
        self._last_usv: Optional[UncertainSelectivityVector] = None

    def _note(self, api: str, mode: str) -> None:
        self.injected.append(InjectedFault(api, mode, self._calls))

    def injected_count(self, api: Optional[str] = None) -> int:
        if api is None:
            return len(self.injected)
        return sum(1 for f in self.injected if f.api == api)

    def _pre_call(self, api: str, profile: FaultProfile) -> None:
        """Draw the exception faults for one call."""
        self._calls += 1
        if self._rng.random() < profile.error_rate:
            self._note(api, "error")
            raise TransientEngineError(f"injected transient {api} failure")
        if self._rng.random() < profile.timeout_rate:
            self._note(api, "timeout")
            raise EngineTimeoutError(f"injected {api} deadline overrun")

    def selectivity_vector_ex(
        self, instance: QueryInstance
    ) -> tuple[SelectivityVector, bool]:
        profile = self.config.selectivity
        self._pre_call("selectivity", profile)
        sv, degraded = self.inner.selectivity_vector_ex(instance)
        if self._rng.random() < profile.corrupt_rate:
            # Stale vector: replay the previous instance's sVector; if
            # there is none yet, return a NaN vector (which surfaces as
            # the ValueError SelectivityVector validation raises).  The
            # corruption is silent: the degraded flag is not raised.
            if self._last_sv is not None and self._last_sv != sv:
                self._note("selectivity", "corrupt:stale")
                return self._last_sv, degraded
            self._note("selectivity", "corrupt:nan")
            return SelectivityVector.from_sequence([math.nan] * len(sv)), degraded
        self._last_sv = sv
        return sv, degraded

    def selectivity_vector_with_error_ex(
        self, instance: QueryInstance
    ) -> tuple[UncertainSelectivityVector, bool]:
        """Uncertain sVector under the same fault profile as the point
        variant: transient errors, timeouts, and stale/NaN corruption."""
        profile = self.config.selectivity
        self._pre_call("selectivity", profile)
        usv, degraded = self.inner.selectivity_vector_with_error_ex(instance)
        if self._rng.random() < profile.corrupt_rate:
            if self._last_usv is not None and self._last_usv.point != usv.point:
                self._note("selectivity", "corrupt:stale")
                return self._last_usv, degraded
            self._note("selectivity", "corrupt:nan")
            # Surfaces as SelectivityVector's validation ValueError.
            return UncertainSelectivityVector.exact(
                SelectivityVector.from_sequence([math.nan] * len(usv))
            ), degraded
        self._last_usv = usv
        return usv, degraded

    def optimize(
        self, sv: SelectivityVector, incumbent: Optional[ShrunkenMemo] = None
    ) -> OptimizationResult:
        self._pre_call("optimize", self.config.optimize)
        return self.inner.optimize(sv, incumbent)

    def recost(self, shrunken: ShrunkenMemo, sv: SelectivityVector) -> float:
        profile = self.config.recost
        self._pre_call("recost", profile)
        cost = self.inner.recost(shrunken, sv)
        if self._rng.random() < profile.corrupt_rate:
            kind = self._rng.choice(("nan", "negative", "inflated"))
            self._note("recost", f"corrupt:{kind}")
            if kind == "nan":
                return math.nan
            if kind == "negative":
                return -abs(cost)
            return cost * INFLATE_FACTOR
        return cost


class DriftingCostEngine(EngineWrapper):
    """An engine façade whose cost model drifts by a settable factor.

    Models the slow divergence between the optimizer's cost model and
    reality (statistics refresh, hardware change, data growth): after
    :meth:`set_factor`, every Optimize and Recost result is scaled by
    ``factor`` while selectivity estimation passes through untouched.
    Costs stored in the plan cache *before* the shift become stale, so
    predicted-vs-recosted calibration ratios move by exactly
    ``ln factor`` — the signal the drift observatory must detect, and
    the situation a recost sweep must repair.

    Composes like the other façades::

        DriftingCostEngine(engine, factor=1.0)  # starts calibrated
    """

    def __init__(self, engine: EngineAPI, factor: float = 1.0) -> None:
        if factor <= 0.0:
            raise ValueError(f"factor must be > 0, got {factor}")
        super().__init__(engine)
        self.factor = factor

    def set_factor(self, factor: float) -> None:
        """Shift the cost model (1.0 = calibrated)."""
        if factor <= 0.0:
            raise ValueError(f"factor must be > 0, got {factor}")
        self.factor = factor

    def optimize(
        self, sv: SelectivityVector, incumbent: Optional[ShrunkenMemo] = None
    ) -> OptimizationResult:
        result = self.inner.optimize(sv, incumbent)
        if self.factor == 1.0:
            return result
        return OptimizationResult(
            plan=result.plan,
            cost=result.cost * self.factor,
            shrunken_memo=result.shrunken_memo,
            memo_groups=result.memo_groups,
            memo_expressions=result.memo_expressions,
        )

    def recost(self, shrunken: ShrunkenMemo, sv: SelectivityVector) -> float:
        return self.inner.recost(shrunken, sv) * self.factor


class NoisyEngine(EngineWrapper):
    """An engine façade whose sVector API returns perturbed selectivities.

    Models histogram estimation error with the standard multiplicative
    log-noise shape: ``s' = clamp(s * exp(eps))`` with
    ``eps ~ U(-noise, +noise)`` per dimension, drawn from a seeded RNG
    so every run is reproducible.  Optimize and recost pass through
    untouched — the *technique* sees noisy selectivities while an oracle
    holding the instances' true vectors measures the real damage.

    Composes with the resilience layer on either side, like every
    :class:`~repro.engine.api.EngineWrapper`::

        ResilientEngineAPI(NoisyEngine(engine, noise=0.3, seed=5))

    The uncertain variant :meth:`selectivity_vector_with_error_ex` is
    *honest*: its interval always contains the wrapped engine's point
    estimate, because the noise band ``e^{±noise}`` is known exactly and
    any interval the inner engine reports rides along (rescaled onto the
    noisy point).  This is what lets the robust check mode keep the
    λ-guarantee under noise.
    """

    def __init__(self, engine: EngineAPI, noise: float, seed: int = 0) -> None:
        if noise < 0.0:
            raise ValueError(f"noise must be >= 0, got {noise}")
        super().__init__(engine)
        self.noise = noise
        self._rng = random.Random(seed)

    def _draw(self, dims: int) -> list[float]:
        return [self._rng.uniform(-self.noise, self.noise) for _ in range(dims)]

    def selectivity_vector_ex(
        self, instance: QueryInstance
    ) -> tuple[SelectivityVector, bool]:
        sv, degraded = self.inner.selectivity_vector_ex(instance)
        if self.noise <= 0.0:
            return sv, degraded
        return SelectivityVector.from_sequence(
            [clamp_selectivity(s * math.exp(e))
             for s, e in zip(sv, self._draw(len(sv)))]
        ), degraded

    def selectivity_vector_with_error_ex(
        self, instance: QueryInstance
    ) -> tuple[UncertainSelectivityVector, bool]:
        usv, degraded = self.inner.selectivity_vector_with_error_ex(instance)
        if self.noise <= 0.0:
            return usv, degraded
        band = math.exp(self.noise)
        bounds = []
        for lo, p, hi, e in zip(
            usv.lo, usv.point, usv.hi, self._draw(len(usv))
        ):
            noisy = clamp_selectivity(p * math.exp(e))
            # The clamp keeps noisy >= floor >= p * e^{-noise} territory:
            # p = noisy / e^eps lies in [noisy/band, noisy*band], so the
            # inner interval rescaled onto the noisy point and widened by
            # the band still contains the truth the inner interval
            # claimed to contain.
            n_lo = min(noisy, clamp_selectivity((lo / p) * noisy / band))
            n_hi = max(noisy, clamp_selectivity((hi / p) * noisy * band))
            bounds.append((n_lo, noisy, n_hi))
        return UncertainSelectivityVector.from_bounds(
            bounds, coverage=usv.coverage
        ), degraded

"""Dynamic (cost-dependent) λ — Appendix D.

Cheap query instances tolerate larger sub-optimality because low-cost
regions of the selectivity space have small selectivity regions and
high plan density; expensive instances deserve a tighter bound.  The
paper proposes asking the user for a range ``[λ_min, λ_max]`` and
mapping an anchor's optimal cost ``C`` to a λ via an exponentially
decaying function.

:func:`choose_lambda` is the per-template counterpart (section 6.2):
one λ for a whole template, picked from its optimization overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union


@dataclass(frozen=True)
class DynamicLambda:
    """Exponential-decay cost→λ schedule.

    ``λ(C) = λ_min + (λ_max − λ_min) · exp(−C / cost_scale)``

    ``cost_scale`` anchors the decay: instances around this cost get
    roughly the midpoint of the range, far cheaper instances approach
    ``λ_max`` and far costlier ones approach ``λ_min``.
    """

    lambda_min: float
    lambda_max: float
    cost_scale: float

    def __post_init__(self) -> None:
        if self.lambda_min < 1.0:
            raise ValueError("lambda_min must be >= 1")
        if self.lambda_max < self.lambda_min:
            raise ValueError("lambda_max must be >= lambda_min")
        if self.cost_scale <= 0:
            raise ValueError("cost_scale must be positive")

    def __call__(self, cost: float) -> float:
        decay = math.exp(-max(cost, 0.0) / self.cost_scale)
        return self.lambda_min + (self.lambda_max - self.lambda_min) * decay

    def state_token(self) -> tuple:
        """Memoization token for the vectorized getPlan path.

        The schedule is a pure function of the anchor cost, so a λ
        vector computed once per columnar epoch stays valid until the
        instance list changes; a frozen instance has no mutable state
        to encode.  Returning a token (rather than not defining the
        method) is the opt-in: callables without one are re-evaluated
        per probe because their output may change between calls.
        """
        return ()


def choose_lambda(
    optimize_seconds: float,
    execution_cost: float,
    cost_per_second: float = 50_000.0,
    lambda_min: float = 1.1,
    lambda_max: float = 2.0,
) -> float:
    """Section 6.2's "Choosing λ" heuristic.

    A query whose optimization overhead is large relative to its
    execution cost should run with a generous λ (reuse aggressively);
    one whose optimization is trivial should keep λ tight.  The ratio
    ``optimize_time / execution_time`` is mapped linearly into
    ``[λ_min, λ_max]`` and clamped.
    """
    if execution_cost <= 0:
        return lambda_max
    execution_seconds = execution_cost / cost_per_second
    if execution_seconds <= 0:
        return lambda_max
    ratio = optimize_seconds / execution_seconds
    # ratio 0 -> lambda_min; ratio >= 1 (optimization dominates) -> max.
    clamped = min(1.0, max(0.0, ratio))
    return lambda_min + (lambda_max - lambda_min) * clamped


class PressureRelaxedLambda:
    """Pressure-driven λ relaxation — the brownout hook into dynamic λ.

    Wraps a base λ (a constant or any cost→λ schedule such as
    :class:`DynamicLambda`) and widens it by ``relax_factor`` whenever
    ``level_provider()`` reports a brownout level of ``relax_at_level``
    or higher, clamped to ``ceiling``.  Widening λ trades optimality for
    optimizer calls *within the guarantee framework*: instances
    certified under pressure still satisfy ``SO ≤ λ_relaxed``, they just
    carry the wider bound.  Below ``relax_at_level`` the base λ is
    returned exactly, so installing the hook is behaviour-neutral when
    the serving layer is not under pressure.

    ``level_provider`` is a plain ``() -> int`` so this core-layer hook
    has no dependency on the serving package; the serving coordinator
    passes its brownout level accessor and the ladder position its
    LAMBDA_RELAXED step occupies (coverage relaxation sits *below* it,
    so λ must not widen there).
    """

    def __init__(
        self,
        base: Union[float, Callable[[float], float]],
        level_provider: Callable[[], int],
        relax_factor: float = 1.5,
        ceiling: float | None = None,
        relax_at_level: int = 1,
    ) -> None:
        if relax_factor < 1.0:
            raise ValueError("relax_factor must be >= 1")
        if ceiling is not None and ceiling < 1.0:
            raise ValueError("ceiling must be >= 1")
        if relax_at_level < 1:
            raise ValueError("relax_at_level must be >= 1")
        self.base = base
        self.level_provider = level_provider
        self.relax_factor = relax_factor
        self.ceiling = ceiling
        self.relax_at_level = relax_at_level

    def base_lambda(self, cost: float) -> float:
        return self.base(cost) if callable(self.base) else self.base

    def __call__(self, cost: float) -> float:
        lam = self.base_lambda(cost)
        if self.level_provider() >= self.relax_at_level:
            lam *= self.relax_factor
            if self.ceiling is not None:
                lam = min(lam, self.ceiling)
        return max(lam, 1.0)

    def state_token(self) -> "tuple | None":
        """Memoization token for the vectorized getPlan path.

        The relaxation depends on the live brownout level, so the token
        captures whether relaxation is currently in force; a change of
        level invalidates any memoized λ vector.  A wrapped base
        schedule must expose its own token for the composition to be
        memoizable — ``None`` disables memoization (the hook is then
        re-evaluated per probe, which is always correct, just slower).
        """
        if callable(self.base):
            base_token = getattr(self.base, "state_token", None)
            if base_token is None:
                return None
            inner = base_token()
            if inner is None:
                return None
        else:
            inner = ()
        relaxed = self.level_provider() >= self.relax_at_level
        return (relaxed, inner)

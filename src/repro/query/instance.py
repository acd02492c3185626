"""Query instances and selectivity vectors.

An instance of a parameterized query binds a concrete value to each of
the ``d`` parameterized predicates.  Its compact representation is the
**selectivity vector** ``sVector = (s_1, ..., s_d)`` — the estimated
selectivity of each parameterized predicate — which is all that the
online PQO techniques look at (section 2 of the paper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

#: The canonical selectivity floor shared by every producer of
#: selectivities (histogram estimates, noise wrappers, degraded-read
#: inflation).  A strictly positive floor keeps cost ratios finite;
#: centralizing it here fixes the drift of per-module epsilons.
SELECTIVITY_FLOOR = 1e-6


def clamp_selectivity(value: float, floor: float = SELECTIVITY_FLOOR) -> float:
    """Clamp one selectivity into ``[floor, 1.0]``.

    The single clamping helper every layer uses (estimator, noise
    wrapper, resilience inflation, interval endpoints), so the floor and
    ceiling cannot silently diverge between producers again.
    """
    return min(1.0, max(floor, value))


@dataclass(frozen=True)
class SelectivityVector:
    """Immutable selectivity vector with the arithmetic used by SCR."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        for s in self.values:
            if not (0.0 < s <= 1.0):
                raise ValueError(f"selectivities must be in (0, 1], got {s}")

    @classmethod
    def of(cls, *values: float) -> "SelectivityVector":
        return cls(tuple(float(v) for v in values))

    @classmethod
    def from_sequence(cls, values: Sequence[float]) -> "SelectivityVector":
        return cls(tuple(float(v) for v in values))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    def ratios(self, other: "SelectivityVector") -> tuple[float, ...]:
        """Per-dimension ratios ``alpha_i = other_i / self_i``.

        ``self`` plays the role of the stored instance ``q_e`` and
        ``other`` the new instance ``q_c`` (section 5.3).
        """
        if len(other) != len(self):
            raise ValueError(
                f"dimension mismatch: {len(self)} vs {len(other)}"
            )
        return tuple(o / s for s, o in zip(self.values, other.values))

    def log_distance(self, other: "SelectivityVector") -> float:
        """Symmetric log-space distance ``sum_i |ln alpha_i|``.

        Equals ``ln(G * L)``; used to order candidates by the selectivity
        check's GL product (section 6.2's pruning heuristic).
        """
        return sum(abs(math.log(a)) for a in self.ratios(other))

    def euclidean_distance(self, other: "SelectivityVector") -> float:
        """Plain Euclidean distance (used by the heuristic baselines)."""
        if len(other) != len(self):
            raise ValueError("dimension mismatch")
        return math.sqrt(
            sum((a - b) ** 2 for a, b in zip(self.values, other.values))
        )

    def dominates(self, other: "SelectivityVector") -> bool:
        """True if every selectivity of ``self`` >= that of ``other``.

        PCM's inference regions are built from dominating pairs.
        """
        if len(other) != len(self):
            raise ValueError("dimension mismatch")
        return all(a >= b for a, b in zip(self.values, other.values))


@dataclass(frozen=True)
class UncertainSelectivityVector:
    """A selectivity vector with per-dimension confidence bounds.

    ``point`` is the estimator's best guess; ``lo``/``hi`` bound where
    the *true* selectivity of each parameterized predicate may lie, and
    ``coverage`` is the probability mass the box claims (``1.0`` for
    hard bounds such as histogram bucket resolution).  The robust check
    mode evaluates SCR's guarantees at the adversarial corner of this
    box, so a certificate derived from it holds for every sVector the
    box contains (with probability ≥ ``coverage``).
    """

    point: SelectivityVector
    lo: SelectivityVector
    hi: SelectivityVector
    coverage: float = 1.0

    def __post_init__(self) -> None:
        if not (len(self.point) == len(self.lo) == len(self.hi)):
            raise ValueError("point/lo/hi dimension mismatch")
        for lo, p, hi in zip(self.lo, self.point, self.hi):
            if not (lo <= p <= hi):
                raise ValueError(
                    f"interval must satisfy lo <= point <= hi, got "
                    f"[{lo}, {p}, {hi}]"
                )
        if not (0.0 < self.coverage <= 1.0):
            raise ValueError(f"coverage must be in (0, 1], got {self.coverage}")

    @classmethod
    def exact(cls, sv: SelectivityVector) -> "UncertainSelectivityVector":
        """A zero-width box: selectivities known exactly."""
        return cls(point=sv, lo=sv, hi=sv, coverage=1.0)

    @classmethod
    def from_bounds(
        cls,
        bounds: Sequence[tuple[float, float, float]],
        coverage: float = 1.0,
    ) -> "UncertainSelectivityVector":
        """Build from per-dimension ``(lo, point, hi)`` triples."""
        return cls(
            point=SelectivityVector.from_sequence([b[1] for b in bounds]),
            lo=SelectivityVector.from_sequence([b[0] for b in bounds]),
            hi=SelectivityVector.from_sequence([b[2] for b in bounds]),
            coverage=coverage,
        )

    def __len__(self) -> int:
        return len(self.point)

    @property
    def is_point(self) -> bool:
        """True when the box has zero width in every dimension."""
        return self.lo.values == self.point.values == self.hi.values

    @property
    def log_widths(self) -> tuple[float, ...]:
        """Per-dimension interval widths ``ln(hi_i / lo_i)``."""
        return tuple(
            math.log(hi / lo) for lo, hi in zip(self.lo, self.hi)
        )

    @property
    def total_log_width(self) -> float:
        """Sum of the per-dimension log widths (0 for a point)."""
        return sum(self.log_widths)

    def scaled(self, t: float) -> "UncertainSelectivityVector":
        """Scale every interval's log-width by ``t`` around the point.

        Under the per-dimension log-uniform error model (multiplicative
        noise, the shape histogram estimation error takes), the
        probability that the truth stays inside the shrunken box scales
        as ``t`` per dimension, so coverage becomes
        ``coverage * t**d`` for ``t <= 1``.  Growing a box (``t > 1``)
        cannot raise its claim above the original coverage.
        """
        if t < 0.0:
            raise ValueError("scale factor must be >= 0")
        # The min/max guards keep lo <= point <= hi even when the
        # clamping floor sits above a tiny point estimate.
        lo = SelectivityVector.from_sequence(
            [min(p, clamp_selectivity(p * (lo / p) ** t))
             for p, lo in zip(self.point, self.lo)]
        )
        hi = SelectivityVector.from_sequence(
            [max(p, clamp_selectivity(p * (hi / p) ** t))
             for p, hi in zip(self.point, self.hi)]
        )
        coverage = self.coverage
        if t < 1.0:
            coverage = coverage * t ** len(self)
        return UncertainSelectivityVector(
            point=self.point, lo=lo, hi=hi,
            coverage=max(1e-12, min(1.0, coverage)),
        )

    def for_coverage(self, target: float) -> "UncertainSelectivityVector":
        """The box shrunk to claim ``target`` coverage (never grown).

        Inverts the ``coverage * t**d`` scaling of :meth:`scaled`; a
        target at or above the current claim returns the box unchanged
        (a box cannot honestly promise more than it already covers).
        """
        if not (0.0 < target <= 1.0):
            raise ValueError(f"target coverage must be in (0, 1], got {target}")
        if target >= self.coverage or self.is_point:
            return self
        t = (target / self.coverage) ** (1.0 / len(self))
        shrunk = self.scaled(t)
        # Report the requested claim exactly (scaled() recomputes it
        # from t with float error in the round trip).
        return UncertainSelectivityVector(
            point=shrunk.point, lo=shrunk.lo, hi=shrunk.hi, coverage=target
        )

    def widened(self, factor: float) -> "UncertainSelectivityVector":
        """Conservatively widen every interval by ``factor`` (≥ 1).

        Used by degraded reads: a wider box keeps at least the original
        coverage, so the claim is unchanged while the checks get
        strictly more pessimistic.
        """
        if factor < 1.0:
            raise ValueError("widening factor must be >= 1")
        lo = SelectivityVector.from_sequence(
            [min(p, clamp_selectivity(s / factor))
             for p, s in zip(self.point, self.lo)]
        )
        hi = SelectivityVector.from_sequence(
            [max(p, clamp_selectivity(s * factor))
             for p, s in zip(self.point, self.hi)]
        )
        return UncertainSelectivityVector(
            point=self.point, lo=lo, hi=hi, coverage=self.coverage
        )

    def contains(self, sv: SelectivityVector) -> bool:
        """True when ``sv`` lies inside the box (inclusive)."""
        return all(
            lo <= s <= hi for lo, s, hi in zip(self.lo, sv, self.hi)
        )


#: Either representation the decision procedure accepts.
AnySelectivityVector = Union[SelectivityVector, UncertainSelectivityVector]


def as_point(sv: AnySelectivityVector) -> SelectivityVector:
    """The point estimate of either selectivity representation."""
    if isinstance(sv, UncertainSelectivityVector):
        return sv.point
    return sv


@dataclass(frozen=True)
class QueryInstance:
    """A concrete instantiation of a query template.

    Attributes
    ----------
    template_name:
        Name of the :class:`~repro.query.template.QueryTemplate`.
    parameters:
        One bound constant per parameterized predicate (in template
        order).  May be empty for synthetic instances specified directly
        by selectivity (the workload generator produces both).
    sv:
        Selectivity vector; computed by the engine's sVector API for
        real instances, or chosen directly by synthetic generators.
    sequence_id:
        Position in the workload sequence (informational).
    """

    template_name: str
    parameters: tuple[float, ...] = field(default=())
    sv: SelectivityVector | None = None
    sequence_id: int = -1

    @property
    def selectivities(self) -> SelectivityVector:
        if self.sv is None:
            raise ValueError(
                "instance has no selectivity vector; call the engine's "
                "selectivity_vector API first"
            )
        return self.sv

    def with_selectivities(self, sv: SelectivityVector) -> "QueryInstance":
        return QueryInstance(self.template_name, self.parameters, sv, self.sequence_id)

    def with_sequence_id(self, sequence_id: int) -> "QueryInstance":
        return QueryInstance(self.template_name, self.parameters, self.sv, sequence_id)

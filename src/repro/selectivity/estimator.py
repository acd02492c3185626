"""Selectivity estimation: the engine's ``sVector`` computation API.

The paper (Appendix B) implements sVector computation by running only
the logical-property phase of the optimizer — predicate selectivities
from statistics — and short-circuiting plan search.  Here that is a
direct histogram lookup per parameterized predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..query.expressions import ComparisonOp, FixedPredicate, ParameterizedPredicate
from ..query.instance import (
    QueryInstance,
    SelectivityVector,
    UncertainSelectivityVector,
)
from ..query.template import QueryTemplate
from .histogram import SelectivityInterval

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..catalog.statistics import DatabaseStatistics


@dataclass
class SelectivityEstimator:
    """Histogram-backed selectivity estimation for one database."""

    stats: "DatabaseStatistics"

    def predicate_selectivity(
        self, pred: ParameterizedPredicate | FixedPredicate, value: float | None = None
    ) -> float:
        """Selectivity of a predicate; ``value`` binds a parameterized one."""
        if isinstance(pred, FixedPredicate):
            bound = pred.value
        else:
            if value is None:
                raise ValueError("parameterized predicate needs a bound value")
            bound = value
        hist = self.stats.column(pred.column.table, pred.column.column).histogram
        if pred.op is ComparisonOp.LE:
            return hist.selectivity_le(bound)
        if pred.op is ComparisonOp.GE:
            return hist.selectivity_ge(bound)
        return hist.selectivity_eq(bound)

    def selectivity_vector(
        self, template: QueryTemplate, instance: QueryInstance
    ) -> SelectivityVector:
        """Compute the instance's selectivity vector.

        If the instance carries explicit parameter bindings, selectivities
        are estimated from histograms.  Synthetic instances that already
        carry a selectivity vector (and no parameters) pass it through —
        this mirrors workloads defined directly in selectivity space.
        """
        if not instance.parameters:
            if instance.sv is not None:
                return instance.sv
            raise ValueError(
                f"instance of {template.name} has neither parameters nor "
                "a selectivity vector"
            )
        if len(instance.parameters) != template.dimensions:
            raise ValueError(
                f"instance binds {len(instance.parameters)} parameters but "
                f"template {template.name} has d={template.dimensions}"
            )
        sels = [
            self.predicate_selectivity(pred, value)
            for pred, value in zip(template.parameterized, instance.parameters)
        ]
        return SelectivityVector.from_sequence(sels)

    def predicate_selectivity_interval(
        self,
        pred: ParameterizedPredicate | FixedPredicate,
        value: float | None = None,
        sample_z: float = 1.0,
    ) -> SelectivityInterval:
        """``(lo, point, hi)`` confidence triple for one predicate.

        The interval combines the histogram's bucket-resolution bounds
        (hard) with a sample-size term (``sample_z`` standard errors;
        see :meth:`EquiDepthHistogram.interval_le`).
        """
        if isinstance(pred, FixedPredicate):
            bound = pred.value
        else:
            if value is None:
                raise ValueError("parameterized predicate needs a bound value")
            bound = value
        hist = self.stats.column(pred.column.table, pred.column.column).histogram
        if pred.op is ComparisonOp.LE:
            return hist.interval_le(bound, sample_z=sample_z)
        if pred.op is ComparisonOp.GE:
            return hist.interval_ge(bound, sample_z=sample_z)
        return hist.interval_eq(bound, sample_z=sample_z)

    def selectivity_vector_with_error(
        self,
        template: QueryTemplate,
        instance: QueryInstance,
        sample_z: float = 1.0,
    ) -> UncertainSelectivityVector:
        """The instance's sVector with per-dimension confidence bounds.

        Synthetic instances that specify selectivities directly (no
        parameters to estimate from histograms) carry no estimation
        error and get a zero-width box.
        """
        if not instance.parameters:
            return UncertainSelectivityVector.exact(
                self.selectivity_vector(template, instance)
            )
        if len(instance.parameters) != template.dimensions:
            raise ValueError(
                f"instance binds {len(instance.parameters)} parameters but "
                f"template {template.name} has d={template.dimensions}"
            )
        bounds = [
            self.predicate_selectivity_interval(pred, value, sample_z=sample_z)
            for pred, value in zip(template.parameterized, instance.parameters)
        ]
        return UncertainSelectivityVector.from_bounds(bounds)

    def parameters_for_selectivities(
        self, template: QueryTemplate, targets: SelectivityVector
    ) -> tuple[float, ...]:
        """Inverse mapping: parameter values achieving target selectivities.

        For ``col <= ?`` the histogram quantile gives the value directly;
        for ``col >= ?`` we invert the complement.  Equality predicates
        are placed at the quantile point (best effort).  This closes the
        loop for workload generation: selectivities chosen in the
        bucketized space become concrete query parameters.
        """
        if len(targets) != template.dimensions:
            raise ValueError("target vector dimension mismatch")
        params: list[float] = []
        for pred, s in zip(template.parameterized, targets):
            hist = self.stats.column(pred.column.table, pred.column.column).histogram
            if pred.op is ComparisonOp.LE:
                params.append(hist.quantile(s))
            elif pred.op is ComparisonOp.GE:
                params.append(hist.quantile(1.0 - s))
            else:
                params.append(hist.quantile(s))
        return tuple(params)

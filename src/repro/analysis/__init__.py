"""Analysis tooling: plan diagrams."""

from .plan_diagram import PlanDiagram, compute_plan_diagram

__all__ = [
    "PlanDiagram",
    "compute_plan_diagram",
]

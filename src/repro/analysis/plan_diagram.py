"""Plan diagrams (the paper's reference [18]).

A *plan diagram* [Reddy & Haritsa, VLDB 2005] maps each point of a 2-d
selectivity grid to its optimal plan; PQO difficulty correlates with
diagram density (the paper cites high plan density in low-cost regions
when motivating dynamic λ).  ``python -m repro plan-diagram`` renders
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..engine.api import EngineAPI
from ..query.instance import SelectivityVector


@dataclass
class PlanDiagram:
    """An n x n plan diagram over log-scaled 2-d selectivity space."""

    grid_size: int
    s1_values: np.ndarray
    s2_values: np.ndarray
    # cell[i][j] = plan index for (s1_values[i], s2_values[j]).
    cells: np.ndarray
    plans: list[str]                      # plan signatures by index
    costs: np.ndarray = field(default=None)  # optimal cost per cell

    @property
    def plan_count(self) -> int:
        return len(set(self.cells.flatten()))

    def render_ascii(self, glyphs: str = "ABCDEFGHIJKLMNOPQRSTUVWXYZ") -> str:
        """ASCII rendering (rows top-to-bottom = decreasing s2)."""
        remap = {p: i for i, p in enumerate(sorted(set(self.cells.flatten())))}
        lines = []
        for j in range(self.grid_size - 1, -1, -1):
            row = "".join(
                glyphs[remap[int(self.cells[i][j])] % len(glyphs)]
                for i in range(self.grid_size)
            )
            lines.append(row)
        return "\n".join(lines)


def compute_plan_diagram(
    engine: EngineAPI,
    grid_size: int = 16,
    low: float = 0.005,
    high: float = 1.0,
) -> PlanDiagram:
    """Optimize every grid point and record the winning plan."""
    if engine.template.dimensions != 2:
        raise ValueError("plan diagrams are defined for 2-d templates")
    axis = np.exp(np.linspace(math.log(low), math.log(high), grid_size))
    plan_index: dict[str, int] = {}
    plans: list[str] = []
    cells = np.zeros((grid_size, grid_size), dtype=np.int64)
    costs = np.zeros((grid_size, grid_size))
    for i, s1 in enumerate(axis):
        for j, s2 in enumerate(axis):
            result = engine.optimize(SelectivityVector.of(s1, s2))
            signature = result.plan.signature()
            idx = plan_index.get(signature)
            if idx is None:
                idx = len(plans)
                plan_index[signature] = idx
                plans.append(signature)
            cells[i][j] = idx
            costs[i][j] = result.cost
    return PlanDiagram(
        grid_size=grid_size,
        s1_values=axis,
        s2_values=axis,
        cells=cells,
        plans=plans,
        costs=costs,
    )

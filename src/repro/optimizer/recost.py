"""The Recost API: re-cost a stored plan at a new query instance.

This reproduces the paper's Appendix B mechanism.  At the end of
optimization the winner's slice of the memo is *shrunk* to exactly the
nodes of the chosen plan (``ShrunkenMemo``), dropping every group and
expression plan search considered but did not pick — the paper measures
~70 % size reduction, and we report ours in the recost benchmark.

Re-costing then replaces the parameterized predicate selectivities at
the leaves and re-derives cardinalities and costs bottom-up with pure
arithmetic — no plan search — which is why a recost call is one to two
orders of magnitude cheaper than an optimizer call.  Everything about a
plan that does not depend on the sVector is compiled once per
(memo, cost model) into one straight-line function; a call only runs
it.

The recost of a plan ``P`` at instance ``q`` equals the cost the
optimizer's search assigned to ``P`` at ``q`` to within about one ulp,
not bit for bit.  Both use :class:`repro.optimizer.cost_model.CostModel`,
but the search prices a join over its memo groups' cardinalities (each
set by the group's first partition) while Recost re-derives cardinality
along the plan's own children, in a different float association.  On
index-nested-loops chains the two can differ in the last bits
(``tests/test_search_equivalence.py`` bounds it at 4 ulps).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from ..query.instance import SelectivityVector
from .cost_model import CostModel
from .operators import PhysicalOp
from .plans import PhysicalPlan, PlanNode

_MIN_CARD = 1e-6


@dataclass(frozen=True)
class _RecostNode:
    """One flattened plan node (children precede parents)."""

    op: PhysicalOp
    child_a: int  # index into the flat array, -1 if absent
    child_b: int
    base_rows: float
    fixed_selectivity: float
    param_indices: tuple[int, ...]
    join_selectivity: float
    left_sorted: bool
    right_sorted: bool
    group_distinct: float
    # INLJ inner-table constants (probed, not scanned):
    inner_base_rows: float
    inner_fixed_selectivity: float
    inner_param_indices: tuple[int, ...]


#: Operator -> name of the ``CostModel`` method that prices it.
_METHODS = {
    PhysicalOp.SEQ_SCAN: "seq_scan",
    PhysicalOp.INDEX_SCAN: "index_scan",
    PhysicalOp.HASH_JOIN: "hash_join",
    PhysicalOp.INDEX_NESTED_LOOPS_JOIN: "index_nested_loops_join",
    PhysicalOp.MERGE_JOIN: "merge_join",
    PhysicalOp.NESTED_LOOPS_JOIN: "nested_loops_join",
    PhysicalOp.SORT: "sort",
    PhysicalOp.HASH_AGGREGATE: "hash_aggregate",
    PhysicalOp.STREAM_AGGREGATE: "stream_aggregate",
    PhysicalOp.SCALAR_AGGREGATE: "scalar_aggregate",
}


def _index(value) -> int:
    """``value`` as a plain ``int``, or ``TypeError``: ``operator.index``
    alone passes a ``bool`` or an ``IntEnum``, whose text is not digits."""
    return int(operator.index(value))


def _compile(nodes: tuple[_RecostNode, ...], cost_model: CostModel):
    """``nodes`` under ``cost_model`` as one straight-line function of
    the sVector's values tuple, returning the root's cost.

    Node ``i`` becomes locals ``c{i}`` (cardinality) and ``t{i}``
    (cumulative cost) in the interpreted walk's operand order and
    association (``tests/reference_recost.py``), so the result is
    bit-identical to it.  The source holds identifiers and integer
    indices only, each index forced through :func:`_index` so a corrupt
    node fails here instead of reaching ``exec``: every float constant
    (``k{i}``, ``x{i}``, ``y{i}``) and every *bound* method of
    ``cost_model`` (``m{i}``, so a subclassed model prices Recost too,
    and is called, never inlined) enters through the namespace.
    ``k{i}`` is a scan's ``base_rows * fixed_selectivity`` (an
    index-nested-loops join's inner one) or a join's selectivity, and
    the sVector indices that multiply into it are the only ones read.  ``if c < MIN: c = MIN`` is
    ``max(c, _MIN_CARD)`` without the builtin call: both keep ``c``
    unless ``_MIN_CARD > c``.
    """
    namespace = {"MIN": _MIN_CARD, "ONE": 1.0, "max": max, "min": min}
    lines = ["def recost(v):"]

    def card(i: int, expr: str) -> None:
        lines.append(f" c{i} = {expr}")
        lines.append(f" if c{i} < MIN: c{i} = MIN")

    def scaled(i: int, params: tuple[int, ...]) -> str:
        return " * ".join([f"k{i}"] + [f"v[{_index(p)}]" for p in params])

    for i, node in enumerate(nodes):
        op, a, b = node.op, _index(node.child_a), _index(node.child_b)
        namespace[f"m{i}"] = getattr(cost_model, _METHODS[op])
        if op.is_scan:
            namespace[f"k{i}"] = node.base_rows * node.fixed_selectivity
            namespace[f"x{i}"] = node.base_rows
            card(i, scaled(i, node.param_indices))
            cost = f"m{i}(x{i}, c{i})"
        elif op is PhysicalOp.INDEX_NESTED_LOOPS_JOIN:
            namespace[f"k{i}"] = node.inner_base_rows * node.inner_fixed_selectivity
            namespace[f"x{i}"] = node.join_selectivity
            namespace[f"y{i}"] = node.inner_base_rows
            card(i, scaled(i, node.inner_param_indices))
            card(i, f"c{a} * c{i} * x{i}")
            cost = f"m{i}(c{a}, y{i}, c{i}) + t{a}"
        elif op is PhysicalOp.HASH_JOIN:
            namespace[f"k{i}"] = node.join_selectivity
            card(i, f"c{a} * c{b} * k{i}")
            cost = f"m{i}(c{b}, c{a}, c{i}) + t{a} + t{b}"
        elif op is PhysicalOp.MERGE_JOIN:
            namespace[f"k{i}"] = node.join_selectivity
            namespace[f"x{i}"] = node.left_sorted
            namespace[f"y{i}"] = node.right_sorted
            card(i, f"c{a} * c{b} * k{i}")
            cost = f"m{i}(c{a}, c{b}, c{i}, x{i}, y{i}) + t{a} + t{b}"
        elif op is PhysicalOp.NESTED_LOOPS_JOIN:
            namespace[f"k{i}"] = node.join_selectivity
            card(i, f"c{a} * c{b} * k{i}")
            cost = f"m{i}(c{a}, t{b}, c{i}) + t{a}"
        elif op is PhysicalOp.SORT:
            lines.append(f" c{i} = c{a}")
            cost = f"m{i}(c{i}) + t{a}"
        elif op is PhysicalOp.SCALAR_AGGREGATE:
            lines.append(f" c{i} = ONE")
            cost = f"m{i}(c{a}) + t{a}"
        else:  # hash or stream aggregate
            namespace[f"x{i}"] = node.group_distinct
            lines.append(f" c{i} = max(ONE, min(x{i}, c{a}))")
            cost = f"m{i}(c{a}, c{i}) + t{a}"
        lines.append(f" t{i} = {cost}")
    lines.append(f" return t{len(nodes) - 1}")
    exec("\n".join(lines), namespace)
    # Popped: a function in its own globals would be a reference cycle.
    return namespace.pop("recost")


@dataclass
class ShrunkenMemo:
    """Cacheable re-costing representation of one physical plan.

    ``node_count`` vs the full memo's expression count quantifies the
    memo-shrinking step.  Instances of this class are what the plan
    cache stores alongside the executable plan (section 6.1 notes this
    is the dominant per-plan memory overhead).

    ``nodes`` is a tuple, so the compiled function derived from it
    cannot go stale.  The function is compiled on the first ``recost``
    and recompiled when a different cost model (by identity) is passed;
    it is kept out of ``==``, ``repr``, persistence and pickles.  Two
    threads racing to compile it compile equal functions and the last
    single assignment wins.
    """

    template_name: str
    signature: str
    nodes: tuple[_RecostNode, ...]
    full_memo_groups: int = 0
    full_memo_expressions: int = 0
    #: ``(cost_model, function)`` of the last ``recost``; derived state.
    _bound: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def recost(self, sv: SelectivityVector, cost_model: CostModel) -> float:
        """Cost of this plan at the instance with selectivity vector ``sv``."""
        bound = self._bound
        if bound is None or bound[0] is not cost_model:
            bound = self._bound = (cost_model, _compile(self.nodes, cost_model))
        return bound[1](sv.values)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_bound"] = None
        return state


def shrink(plan: PhysicalPlan, memo_groups: int = 0, memo_expressions: int = 0) -> ShrunkenMemo:
    """Flatten a plan tree into its :class:`ShrunkenMemo`."""
    nodes: list[_RecostNode] = []
    _flatten(plan.root, nodes)
    return ShrunkenMemo(
        template_name=plan.template_name,
        signature=plan.signature(),
        nodes=tuple(nodes),
        full_memo_groups=memo_groups,
        full_memo_expressions=memo_expressions,
    )


def _flatten(node: PlanNode, nodes: list[_RecostNode]) -> int:
    """Append ``node``'s subtree to ``nodes``, children first, and return
    its index.  A module function rather than a closure over ``nodes``:
    a closure that calls itself is a reference cycle, which would leave
    every optimizer call's node list to the cyclic collector."""
    if node.op is PhysicalOp.INDEX_NESTED_LOOPS_JOIN:
        # The inner index-scan leaf is folded into the join node.
        outer_idx = _flatten(node.children[0], nodes)
        inner = node.children[1]
        nodes.append(
            _RecostNode(
                op=node.op,
                child_a=outer_idx,
                child_b=-1,
                base_rows=0.0,
                fixed_selectivity=1.0,
                param_indices=(),
                join_selectivity=node.join_selectivity,
                left_sorted=False,
                right_sorted=False,
                group_distinct=0.0,
                inner_base_rows=inner.base_rows,
                inner_fixed_selectivity=inner.fixed_selectivity,
                inner_param_indices=inner.param_indices,
            )
        )
        return len(nodes) - 1
    child_idx = [_flatten(c, nodes) for c in node.children]
    nodes.append(
        _RecostNode(
            op=node.op,
            child_a=child_idx[0] if child_idx else -1,
            child_b=child_idx[1] if len(child_idx) > 1 else -1,
            base_rows=node.base_rows,
            fixed_selectivity=node.fixed_selectivity,
            param_indices=node.param_indices,
            join_selectivity=node.join_selectivity,
            left_sorted=node.left_sorted,
            right_sorted=node.right_sorted,
            group_distinct=node.group_distinct,
            inner_base_rows=0.0,
            inner_fixed_selectivity=1.0,
            inner_param_indices=(),
        )
    )
    return len(nodes) - 1

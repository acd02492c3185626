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
plan that does not depend on the sVector is bound once per
(memo, cost model) into a flat program; a call only runs it.

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


#: Program opcodes, one per argument shape of the cost model's methods.
_SCAN, _HASH, _INLJ, _MERGE, _NLJ, _SORT, _GROUP, _SCALAR = range(8)

#: Operator -> (opcode, name of the ``CostModel`` method that prices it).
_OPCODES = {
    PhysicalOp.SEQ_SCAN: (_SCAN, "seq_scan"),
    PhysicalOp.INDEX_SCAN: (_SCAN, "index_scan"),
    PhysicalOp.HASH_JOIN: (_HASH, "hash_join"),
    PhysicalOp.INDEX_NESTED_LOOPS_JOIN: (_INLJ, "index_nested_loops_join"),
    PhysicalOp.MERGE_JOIN: (_MERGE, "merge_join"),
    PhysicalOp.NESTED_LOOPS_JOIN: (_NLJ, "nested_loops_join"),
    PhysicalOp.SORT: (_SORT, "sort"),
    PhysicalOp.HASH_AGGREGATE: (_GROUP, "hash_aggregate"),
    PhysicalOp.STREAM_AGGREGATE: (_GROUP, "stream_aggregate"),
    PhysicalOp.SCALAR_AGGREGATE: (_SCALAR, "scalar_aggregate"),
}


def _bind(nodes: tuple[_RecostNode, ...], cost_model: CostModel) -> tuple:
    """The prebound program of ``nodes`` under ``cost_model``.

    One ``(opcode, method, k, params, a, b, x, y)`` entry per node, where
    ``method`` is ``cost_model``'s *bound* method for the operator (so a
    subclassed model prices Recost too) and everything that does not
    depend on the sVector is folded in: ``k`` is a scan's
    ``base_rows * fixed_selectivity`` (an index-nested-loops join's
    inner one) or a join's selectivity; ``params`` the sVector indices
    that multiply into ``k``; ``a``/``b`` the child slots; ``x``/``y``
    the operator's remaining constants.
    """
    program = []
    for node in nodes:
        opcode, name = _OPCODES[node.op]
        method = getattr(cost_model, name)
        a, b = node.child_a, node.child_b
        if opcode == _SCAN:
            entry = (opcode, method, node.base_rows * node.fixed_selectivity,
                     node.param_indices, a, b, node.base_rows, None)
        elif opcode == _INLJ:
            entry = (opcode, method,
                     node.inner_base_rows * node.inner_fixed_selectivity,
                     node.inner_param_indices, a, b, node.join_selectivity,
                     node.inner_base_rows)
        elif opcode == _MERGE:
            entry = (opcode, method, node.join_selectivity, (), a, b,
                     node.left_sorted, node.right_sorted)
        elif opcode == _GROUP:
            entry = (opcode, method, 0.0, (), a, b, node.group_distinct, None)
        else:
            entry = (opcode, method, node.join_selectivity, (), a, b, None, None)
        program.append(entry)
    return tuple(program)


def _run(program: tuple, vals: tuple[float, ...]) -> float:
    """Execute a prebound program at the selectivities ``vals``.

    Keeps the interpreted walk's operand order and association exactly
    (``tests/reference_recost.py``), so the result is bit-identical.
    ``if c < _MIN_CARD: c = _MIN_CARD`` is ``max(c, _MIN_CARD)`` without
    the builtin call: both keep ``c`` unless ``_MIN_CARD > c``.
    """
    n = len(program)
    cards = [0.0] * n
    costs = [0.0] * n
    i = 0
    for opcode, method, k, params, a, b, x, y in program:
        if opcode == _SCAN:
            card = k
            for p in params:
                card *= vals[p]
            if card < _MIN_CARD:
                card = _MIN_CARD
            cards[i] = card
            costs[i] = method(x, card)
        elif opcode == _HASH:
            probe = cards[a]
            build = cards[b]
            out = probe * build * k
            if out < _MIN_CARD:
                out = _MIN_CARD
            cards[i] = out
            costs[i] = method(build, probe, out) + costs[a] + costs[b]
        elif opcode == _INLJ:
            outer = cards[a]
            inner = k
            for p in params:
                inner *= vals[p]
            if inner < _MIN_CARD:
                inner = _MIN_CARD
            out = outer * inner * x
            if out < _MIN_CARD:
                out = _MIN_CARD
            cards[i] = out
            costs[i] = method(outer, y, out) + costs[a]
        elif opcode == _MERGE:
            left = cards[a]
            right = cards[b]
            out = left * right * k
            if out < _MIN_CARD:
                out = _MIN_CARD
            cards[i] = out
            costs[i] = method(left, right, out, x, y) + costs[a] + costs[b]
        elif opcode == _NLJ:
            outer = cards[a]
            out = outer * cards[b] * k
            if out < _MIN_CARD:
                out = _MIN_CARD
            cards[i] = out
            costs[i] = method(outer, costs[b], out) + costs[a]
        elif opcode == _SORT:
            card = cards[i] = cards[a]
            costs[i] = method(card) + costs[a]
        elif opcode == _GROUP:
            in_card = cards[a]
            groups = cards[i] = max(1.0, min(x, in_card))
            costs[i] = method(in_card, groups) + costs[a]
        else:  # _SCALAR
            cards[i] = 1.0
            costs[i] = method(cards[a]) + costs[a]
        i += 1
    return costs[-1]


@dataclass
class ShrunkenMemo:
    """Cacheable re-costing representation of one physical plan.

    ``node_count`` vs the full memo's expression count quantifies the
    memo-shrinking step.  Instances of this class are what the plan
    cache stores alongside the executable plan (section 6.1 notes this
    is the dominant per-plan memory overhead).

    ``nodes`` is a tuple, so the prebound program derived from it
    cannot go stale.  The program is built on the first ``recost`` and
    rebuilt when a different cost model is passed; it is kept out of
    ``==``, ``repr``, persistence and pickles.  Two threads racing to
    build it build identical programs and the last single assignment
    wins.
    """

    template_name: str
    signature: str
    nodes: tuple[_RecostNode, ...]
    full_memo_groups: int = 0
    full_memo_expressions: int = 0
    #: ``(cost_model, program)`` of the last ``recost``; derived state.
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
            bound = self._bound = (cost_model, _bind(self.nodes, cost_model))
        return _run(bound[1], sv.values)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_bound"] = None
        return state


def shrink(plan: PhysicalPlan, memo_groups: int = 0, memo_expressions: int = 0) -> ShrunkenMemo:
    """Flatten a plan tree into its :class:`ShrunkenMemo`."""
    nodes: list[_RecostNode] = []

    def visit(node: PlanNode) -> int:
        if node.op is PhysicalOp.INDEX_NESTED_LOOPS_JOIN:
            # The inner index-scan leaf is folded into the join node.
            outer_idx = visit(node.children[0])
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
        child_idx = [visit(c) for c in node.children]
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

    visit(plan.root)
    return ShrunkenMemo(
        template_name=plan.template_name,
        signature=plan.signature(),
        nodes=tuple(nodes),
        full_memo_groups=memo_groups,
        full_memo_expressions=memo_expressions,
    )

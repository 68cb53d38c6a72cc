"""Rule-based logical optimizer (a small HepPlanner, after Calcite).

Rules are applied bottom-up to a fixpoint.  Everything here is a pure
plan-quality improvement — the unoptimized plan computes the same
result — but two rules matter enormously for streaming state size,
echoing the Section 5 lessons:

* **equi-key extraction** turns nested-loop probes into hash probes;
* **time-bound analysis** recognizes windowed join predicates (NEXMark
  Q7's ``bidtime >= wend - 10min AND bidtime < wend``) and attaches
  watermark-driven state expiry to the join, keeping join state finite
  on unbounded inputs.
"""

from __future__ import annotations

from operator import is_not
from typing import Callable, Optional

from ..core.schema import SqlType
from .logical import (
    FilterNode,
    JoinKind,
    JoinNode,
    LogicalNode,
    ProjectNode,
    SortNode,
    UnionNode,
    WindowNode,
)
from .planner import QueryPlan
from .rex import (
    Rex,
    RexCall,
    RexCase,
    RexCast,
    RexInput,
    RexLiteral,
    compile_rex,
    equi_pair,
    references,
    shift_inputs,
    split_conjuncts,
)

__all__ = ["join_residual", "optimize", "optimize_node"]

_MAX_PASSES = 20


def optimize(plan: QueryPlan) -> QueryPlan:
    """Optimize a planned query, preserving its EMIT clause."""
    return QueryPlan(root=optimize_node(plan.root), emit=plan.emit, sql=plan.sql)


def optimize_node(node: LogicalNode) -> LogicalNode:
    """Apply all rewrite rules to a fixpoint.

    A pass rewrites bottom-up and applies at most one rule per node:
    the first of its type's rules (:data:`_RULES`, in order) that fires.
    Rules are pure functions of the subtree they are given, so a node
    none of whose rules fired, over inputs that are themselves settled,
    is *settled*: any later pass would hand it back unchanged.  Settled
    nodes are remembered by identity for this call and not walked
    again, so a pass after a rule hit costs the path from the hit to the
    root, and no pass is made only to confirm the fixpoint.
    """
    settled: dict[int, LogicalNode] = {}
    for _ in range(_MAX_PASSES):
        if id(node) in settled:
            return node
        node = _rewrite(node, settled)
    return node


def _rewrite(node: LogicalNode, settled: dict[int, LogicalNode]) -> LogicalNode:
    if id(node) in settled:
        return node
    new_inputs = [_rewrite(child, settled) for child in node.inputs]
    if any(map(is_not, new_inputs, node.inputs)):
        node = node.with_inputs(new_inputs)
    for rule in _RULES.get(type(node), ()):
        replaced = rule(node)
        if replaced is not None:
            return replaced
    if all(map(settled.__contains__, map(id, node.inputs))):
        settled[id(node)] = node
    return node


# ---------------------------------------------------------------------------
# expression simplification
# ---------------------------------------------------------------------------


def fold_constants(rex: Rex) -> Rex:
    """Evaluate constant subtrees at plan time."""
    if isinstance(rex, (RexInput, RexLiteral)):
        return rex
    if isinstance(rex, RexCall):
        args = tuple(fold_constants(a) for a in rex.args)
        rex = RexCall(rex.op, args, function=rex.function, type=rex.type)
        if all(isinstance(a, RexLiteral) for a in args):
            try:
                value = compile_rex(rex)(())
            except Exception:
                return rex
            return RexLiteral(value, type=rex.type)
        return _simplify_bool(rex)
    if isinstance(rex, RexCase):
        whens = tuple(
            (fold_constants(c), fold_constants(v)) for c, v in rex.whens
        )
        else_ = fold_constants(rex.else_) if rex.else_ is not None else None
        return RexCase(whens, else_, type=rex.type)
    if isinstance(rex, RexCast):
        operand = fold_constants(rex.operand)
        folded = RexCast(operand, type=rex.type)
        if isinstance(operand, RexLiteral):
            try:
                value = compile_rex(folded)(())
            except Exception:
                return folded
            return RexLiteral(value, type=rex.type)
        return folded
    return rex


def _simplify_bool(rex: RexCall) -> Rex:
    """TRUE/FALSE identity simplifications for AND/OR/NOT."""
    if rex.op == "AND":
        left, right = rex.args
        if isinstance(left, RexLiteral) and left.value is True:
            return right
        if isinstance(right, RexLiteral) and right.value is True:
            return left
        if any(isinstance(a, RexLiteral) and a.value is False for a in rex.args):
            return RexLiteral(False, type=SqlType.BOOL)
    elif rex.op == "OR":
        left, right = rex.args
        if isinstance(left, RexLiteral) and left.value is False:
            return right
        if isinstance(right, RexLiteral) and right.value is False:
            return left
        if any(isinstance(a, RexLiteral) and a.value is True for a in rex.args):
            return RexLiteral(True, type=SqlType.BOOL)
    elif rex.op == "NOT":
        (operand,) = rex.args
        if isinstance(operand, RexLiteral) and operand.value is not None:
            return RexLiteral(not operand.value, type=SqlType.BOOL)
    return rex


def and_all(conjuncts: list[Rex]) -> Rex:
    """Rebuild a predicate from conjuncts."""
    if not conjuncts:
        return RexLiteral(True, type=SqlType.BOOL)
    result = conjuncts[0]
    for conjunct in conjuncts[1:]:
        result = RexCall("AND", (result, conjunct), type=SqlType.BOOL)
    return result


# ---------------------------------------------------------------------------
# rules (each returns a replacement node or None)
# ---------------------------------------------------------------------------


def _rule_fold_filter(node: LogicalNode) -> Optional[LogicalNode]:
    """Constant-fold filter predicates; drop always-true filters."""
    folded = fold_constants(node.condition)
    if isinstance(folded, RexLiteral) and folded.value is True:
        return node.input
    if folded != node.condition:
        return FilterNode(node.input, folded)
    return None


def _rule_fold_project(node: LogicalNode) -> Optional[LogicalNode]:
    folded = tuple(fold_constants(e) for e in node.exprs)
    if folded != node.exprs:
        return ProjectNode(node.input, folded, node.names)
    return None


def _rule_merge_filters(node: LogicalNode) -> Optional[LogicalNode]:
    """Filter(Filter(x)) → Filter(x, a AND b)."""
    if isinstance(node.input, FilterNode):
        inner = node.input
        combined = and_all(
            split_conjuncts(inner.condition) + split_conjuncts(node.condition)
        )
        return FilterNode(inner.input, combined)
    return None


def _substitute(rex: Rex, exprs: tuple[Rex, ...]) -> Rex:
    """Inline a lower projection's expressions into ``rex``."""
    if isinstance(rex, RexInput):
        return exprs[rex.index]
    if isinstance(rex, RexLiteral):
        return rex
    if isinstance(rex, RexCall):
        return RexCall(
            rex.op,
            tuple(_substitute(a, exprs) for a in rex.args),
            function=rex.function,
            type=rex.type,
        )
    if isinstance(rex, RexCase):
        return RexCase(
            tuple(
                (_substitute(c, exprs), _substitute(v, exprs)) for c, v in rex.whens
            ),
            _substitute(rex.else_, exprs) if rex.else_ is not None else None,
            type=rex.type,
        )
    if isinstance(rex, RexCast):
        return RexCast(_substitute(rex.operand, exprs), type=rex.type)
    return rex


def _rule_merge_projects(node: LogicalNode) -> Optional[LogicalNode]:
    """Project(Project(x)) → Project(x) by expression inlining."""
    if isinstance(node.input, ProjectNode):
        inner = node.input
        merged = tuple(_substitute(e, inner.exprs) for e in node.exprs)
        return ProjectNode(inner.input, merged, node.names)
    return None


def _rule_filter_through_project(node: LogicalNode) -> Optional[LogicalNode]:
    """Filter(Project(x)) → Project(Filter(x)): evaluate the predicate early."""
    if isinstance(node.input, ProjectNode):
        project = node.input
        pushed = _substitute(node.condition, project.exprs)
        return ProjectNode(
            FilterNode(project.input, pushed), project.exprs, project.names
        )
    return None


def _rule_filter_into_join(node: LogicalNode) -> Optional[LogicalNode]:
    """Push a filter over a join into the join sides and condition."""
    if not isinstance(node.input, JoinNode):
        return None
    join = node.input
    if join.kind not in (JoinKind.INNER, JoinKind.CROSS):
        return None
    left_width = len(join.left.schema)
    total = len(join.schema)
    left_only: list[Rex] = []
    right_only: list[Rex] = []
    mixed: list[Rex] = []
    for conjunct in split_conjuncts(node.condition):
        refs = references(conjunct)
        if refs and max(refs) < left_width:
            left_only.append(conjunct)
        elif refs and min(refs) >= left_width:
            right_only.append(
                shift_inputs(conjunct, {i: i - left_width for i in range(left_width, total)})
            )
        else:
            mixed.append(conjunct)
    if not left_only and not right_only and join.kind is not JoinKind.CROSS and not mixed:
        return None
    left = join.left
    if left_only:
        left = FilterNode(left, and_all(left_only))
    right = join.right
    if right_only:
        right = FilterNode(right, and_all(right_only))
    condition = join.condition
    if mixed:
        existing = split_conjuncts(condition) if condition is not None else []
        condition = and_all(existing + mixed)
    changed = (
        left is not join.left or right is not join.right or condition != join.condition
    )
    if not changed:
        return None
    new_join = JoinNode(
        left,
        right,
        JoinKind.INNER if condition is not None else join.kind,
        condition,
    )
    return new_join


def _rule_filter_through_window(node: LogicalNode) -> Optional[LogicalNode]:
    """Push predicates on data columns below a windowing TVF.

    The TVF only *adds* wstart/wend (and, for Hop, multiplies rows), so
    a conjunct that references only the original data columns filters
    the same rows more cheaply below the expansion.
    """
    if not isinstance(node.input, WindowNode):
        return None
    window = node.input
    pushable: list[Rex] = []
    kept: list[Rex] = []
    for conjunct in split_conjuncts(node.condition):
        refs = references(conjunct)
        if refs and min(refs) >= 2:  # wstart/wend are ordinals 0 and 1
            pushable.append(
                shift_inputs(conjunct, {i: i - 2 for i in refs})
            )
        else:
            kept.append(conjunct)
    if not pushable:
        return None
    pushed = window.with_inputs([FilterNode(window.input, and_all(pushable))])
    if kept:
        return FilterNode(pushed, and_all(kept))
    return pushed


def _rule_filter_through_union(node: LogicalNode) -> Optional[LogicalNode]:
    if isinstance(node.input, UnionNode):
        union = node.input
        return UnionNode(
            [FilterNode(child, node.condition) for child in union.inputs]
        )
    return None


def _rule_join_analysis(node: LogicalNode) -> Optional[LogicalNode]:
    """Derive hash keys and state-expiry bounds from a join condition."""
    if node.condition is None:
        return None
    if node.hash_left or node.expire_left or node.expire_right:
        return None  # already analyzed
    left_width = len(node.left.schema)
    hash_left: list[int] = []
    hash_right: list[int] = []
    # time-difference constraints: left_time - right_time in [lo, hi]
    lo: Optional[int] = None
    hi: Optional[int] = None
    time_pair: Optional[tuple[int, int]] = None

    for conjunct in split_conjuncts(node.condition):
        if not isinstance(conjunct, RexCall):
            continue
        if conjunct.op == "=":
            sides = equi_pair(conjunct, left_width)
            if sides is not None:
                left_idx, right_idx = sides
                hash_left.append(left_idx)
                hash_right.append(right_idx - left_width)
                continue
        bound = _time_bound_of(conjunct, node, left_width)
        if bound is not None:
            pair, is_lower, value = bound
            if time_pair is None:
                time_pair = pair
            if pair != time_pair:
                continue
            if is_lower:
                lo = value if lo is None else max(lo, value)
            else:
                hi = value if hi is None else min(hi, value)

    expire_left = expire_right = None
    if (
        node.kind is JoinKind.INNER
        and time_pair is not None
        and lo is not None
        and hi is not None
    ):
        left_time, right_time = time_pair
        # Left row l joins right rows r with r.time in
        # [l.time - hi, l.time - lo]; once the watermark passes
        # l.time - lo no such right row can still arrive, so the left
        # row expires at watermark >= l.time + max(-lo, 0).
        expire_left = (left_time, max(-lo, 0))
        expire_right = (right_time - left_width, max(hi, 0))

    if not hash_left and expire_left is None:
        return None
    clone = node.with_inputs(list(node.inputs))
    clone.hash_left = tuple(hash_left)
    clone.hash_right = tuple(hash_right)
    clone.expire_left = expire_left
    clone.expire_right = expire_right
    return clone if _join_meta_differs(node, clone) else None


def join_residual(join: JoinNode) -> Optional[Rex]:
    """The part of an analyzed join's condition its hash keys do not
    decide: every conjunct but the ``$l = $r`` pairs that became
    ``hash_left``/``hash_right``, or ``None`` when nothing is left.

    A hash bucket holds equal keys, so a probe's matches already satisfy
    the key equalities — except where a key part is NULL or NaN, where
    ``=`` is never TRUE; the join operator guards those itself.
    """
    if join.condition is None or not join.hash_left:
        return join.condition
    width = len(join.left.schema)
    keys = set(zip(join.hash_left, (r + width for r in join.hash_right)))
    residual = [c for c in split_conjuncts(join.condition) if not (
        equi_pair(c, width) in keys
    )]
    return and_all(residual) if residual else None


def _join_meta_differs(a: JoinNode, b: JoinNode) -> bool:
    return (
        a.hash_left != b.hash_left
        or a.hash_right != b.hash_right
        or a.expire_left != b.expire_left
        or a.expire_right != b.expire_right
    )


def _time_term(rex: Rex) -> Optional[tuple[int, int]]:
    """Match ``$i`` or ``$i ± INTERVAL`` over a TIMESTAMP column.

    Returns ``(ordinal, shift_millis)``.
    """
    if isinstance(rex, RexInput) and rex.type is SqlType.TIMESTAMP:
        return rex.index, 0
    if (
        isinstance(rex, RexCall)
        and rex.op in ("+", "-")
        and rex.type is SqlType.TIMESTAMP
        and isinstance(rex.args[0], RexInput)
        and isinstance(rex.args[1], RexLiteral)
        and rex.args[1].type is SqlType.INTERVAL
    ):
        shift = rex.args[1].value
        return rex.args[0].index, shift if rex.op == "+" else -shift

    return None


def _time_bound_of(
    conjunct: RexCall, join: JoinNode, left_width: int
) -> Optional[tuple[tuple[int, int], bool, int]]:
    """Extract a ``left_time - right_time >= / <= value`` constraint.

    Returns ``((left_ordinal, right_ordinal), is_lower_bound, value)``
    where both ordinals are event-time-aligned columns on opposite join
    sides.  Strict bounds are relaxed by a millisecond, which is always
    conservative for state expiry.
    """
    if conjunct.op not in ("<", "<=", ">", ">="):
        return None
    left_term = _time_term(conjunct.args[0])
    right_term = _time_term(conjunct.args[1])
    if left_term is None or right_term is None:
        return None
    (ai, ashift), (bi, bshift) = left_term, right_term
    schema = join.schema
    if not (schema.columns[ai].event_time and schema.columns[bi].event_time):
        return None
    # normalize to: a - b OP (bshift - ashift)
    value = bshift - ashift
    op = conjunct.op
    if ai < left_width <= bi:
        pair = (ai, bi)
    elif bi < left_width <= ai:
        # flip to left-minus-right form
        pair = (bi, ai)
        value = -value
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
    else:
        return None
    if op in (">", ">="):
        bound_value = value if op == ">=" else value + 1
        return pair, True, bound_value
    bound_value = value if op == "<=" else value - 1
    return pair, False, bound_value


def _rule_drop_trivial_sort(node: LogicalNode) -> Optional[LogicalNode]:
    if not node.keys and node.limit is None:
        return node.input
    return None


#: node class -> the rules that apply to it, in the order they are tried
_RULES: dict[type, tuple[Callable[[LogicalNode], Optional[LogicalNode]], ...]] = {
    FilterNode: (
        _rule_fold_filter,
        _rule_merge_filters,
        _rule_filter_through_project,
        _rule_filter_into_join,
        _rule_filter_through_window,
        _rule_filter_through_union,
    ),
    ProjectNode: (_rule_fold_project, _rule_merge_projects),
    JoinNode: (_rule_join_analysis,),
    SortNode: (_rule_drop_trivial_sort,),
}

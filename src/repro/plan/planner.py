"""Planner: validated AST → logical plan.

The planner resolves names against a catalog, types every expression,
enforces the paper's event-time legality rules, and produces a
:class:`QueryPlan` — a logical operator tree plus the query's
:class:`~repro.core.emit.EmitSpec`.

Streaming-specific planning decisions:

* **Windowing TVFs** in ``FROM`` become :class:`WindowNode`s.  Their
  ``wstart``/``wend`` outputs are watermark-aligned event time columns.
* **Extension 2 enforcement**: an aggregation whose input is unbounded
  must group by at least one watermark-aligned event time column,
  otherwise the grouping could never be declared complete and state
  could never be freed (the Section 5 lesson).
* **Window sibling keys**: grouping by ``wend`` implicitly also groups
  by ``wstart`` (and vice versa) — the two are in bijection, which is
  how the paper's Listing 2 can select ``wstart`` while grouping only
  by ``wend``.
* ``EMIT`` is accepted only at the top level of a statement, as the
  paper proposes (Section 8 discusses relaxing this as future work).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.emit import EmitSpec
from ..core.errors import ValidationError
from ..core.schema import Column, Schema, SqlType
from ..core.times import Duration
from ..sql import ast
from ..sql.functions import FunctionRegistry
from ..sql.parser import parse
from ..sql.validator import ExprTranslator, Scope, ScopeEntry
from . import rex
from .logical import (
    AggCall,
    AggregateNode,
    FilterNode,
    JoinKind,
    JoinNode,
    LogicalNode,
    OverNode,
    ProjectNode,
    ScanNode,
    SemiJoinNode,
    SetOpNode,
    SortNode,
    TemporalBound,
    TemporalFilterNode,
    TemporalJoinNode,
    UnionNode,
    WindowKind,
    WindowNode,
)

__all__ = ["Catalog", "QueryPlan", "Planner", "referenced_tables"]


class Catalog:
    """Registered relations (name → schema, boundedness) and views.

    A view is a named query expanded inline wherever it is referenced —
    Section 6.1's observation that views "map a query pointwise over a
    TVR" makes them streaming-ready for free: a view over a stream is
    just another time-varying relation.
    """

    def __init__(self) -> None:
        self._relations: dict[str, tuple[Schema, bool]] = {}
        self._views: dict[str, ast.Statement] = {}

    def register(self, name: str, schema: Schema, bounded: bool) -> None:
        self._relations[name.lower()] = (schema, bounded)
        self._views.pop(name.lower(), None)

    def register_view(self, name: str, statement: ast.Statement) -> None:
        if statement.emit is not None:
            raise ValidationError(
                "a view cannot carry an EMIT clause; EMIT belongs to the "
                "querying statement"
            )
        self._views[name.lower()] = statement
        self._relations.pop(name.lower(), None)

    def lookup(self, name: str) -> Optional[tuple[Schema, bool]]:
        return self._relations.get(name.lower())

    def lookup_view(self, name: str) -> Optional[ast.Statement]:
        return self._views.get(name.lower())

    def names(self) -> list[str]:
        return sorted(set(self._relations) | set(self._views))


@dataclass
class QueryPlan:
    """A planned query: the logical tree plus materialization intent."""

    root: LogicalNode
    emit: EmitSpec
    sql: Optional[str] = None

    @property
    def schema(self) -> Schema:
        return self.root.schema

    def explain(self, verbose: bool = False) -> str:
        header = str(self.emit)
        tree = self.root.explain(verbose=verbose)
        return f"{header}\n{tree}" if header else tree


# TVF signatures: canonical parameter order for positional arguments and
# accepted aliases for named arguments.
_TVF_PARAMS: dict[str, list[str]] = {
    "TUMBLE": ["data", "timecol", "size", "offset"],
    "HOP": ["data", "timecol", "size", "slide", "offset"],
    "SESSION": ["data", "timecol", "gap", "keycol"],
}
_TVF_ALIASES: dict[str, str] = {
    "dur": "size",
    "duration": "size",
    "hopsize": "slide",
    "key": "keycol",
    "partitionkeys": "keycol",
}


class Planner:
    """Plans parsed statements against a catalog."""

    def __init__(self, catalog: Catalog, registry: FunctionRegistry):
        self._catalog = catalog
        self._registry = registry
        self._sql: Optional[str] = None
        self._view_stack: list[str] = []

    def _expand_view(
        self, name: str, statement: ast.Statement, at: ast.Node
    ) -> LogicalNode:
        key = name.lower()
        if key in self._view_stack:
            chain = " -> ".join(self._view_stack + [key])
            raise self._error(f"circular view reference: {chain}", at)
        self._view_stack.append(key)
        try:
            return self._plan_statement(statement)
        finally:
            self._view_stack.pop()

    # -- public entry points ------------------------------------------------

    def plan_sql(self, sql: str) -> QueryPlan:
        """Parse and plan one SQL statement."""
        statement = parse(sql)
        return self.plan(statement, sql=sql)

    def plan(self, statement: ast.Statement, sql: Optional[str] = None) -> QueryPlan:
        """Plan a parsed statement."""
        self._sql = sql
        emit = statement.emit or EmitSpec.default()
        root = self._plan_statement(statement, top_level=True)
        return QueryPlan(root=root, emit=emit, sql=sql)

    # -- statements ---------------------------------------------------------

    def _error(self, message: str, node: ast.Node) -> ValidationError:
        return ValidationError(message, self._sql, node.pos)

    def _plan_statement(
        self, statement: ast.Statement, top_level: bool = False
    ) -> LogicalNode:
        if not top_level and statement.emit is not None:
            raise self._error(
                "EMIT is only allowed at the top level of a query", statement
            )
        if isinstance(statement, ast.Union_):
            left = self._plan_statement(statement.left)
            right = self._plan_statement(statement.right)
            if statement.op in ("INTERSECT", "EXCEPT"):
                return SetOpNode(left, right, statement.op, statement.all)
            union = UnionNode([left, right])
            if not statement.all:
                # UNION (distinct) deduplicates via a keyed aggregation.
                self._check_unbounded_grouping(union, statement)
                union_keys = tuple(range(len(union.schema)))
                return AggregateNode(union, union_keys, ())
            return union
        return self._plan_select(statement)

    def _plan_select(self, select: ast.Select) -> LogicalNode:
        node, scope = self._plan_from(select.from_items, select)

        if select.where is not None:
            plain_where, in_subqueries = self._split_in_subqueries(select.where)
            translator = ExprTranslator(scope, self._registry, self._sql)
            for operand_ast, query, negated in in_subqueries:
                subquery = self._plan_statement(query)
                if operand_ast is None:
                    # EXISTS: probe a constant against the subquery
                    # projected onto the same constant — membership is
                    # exactly non-emptiness.
                    probe: rex.Rex = rex.RexLiteral(1, type=SqlType.INT)
                    subquery = ProjectNode(
                        subquery,
                        [rex.RexLiteral(1, type=SqlType.INT)],
                        ["one"],
                    )
                else:
                    probe = translator.translate(operand_ast)
                node = SemiJoinNode(node, subquery, probe, negated)
            if plain_where is not None:
                condition = translator.translate(plain_where)
                if condition.type not in (SqlType.BOOL, SqlType.NULL):
                    raise self._error("WHERE must be BOOLEAN", select.where)
                bounds, residual = self._split_temporal(condition, select.where)
                if residual is not None:
                    node = FilterNode(node, residual)
                if bounds:
                    node = TemporalFilterNode(node, bounds)

        over_calls = self._collect_over_calls(select)
        agg_calls = self._collect_aggregates(select)
        if over_calls:
            if select.group_by or agg_calls or select.having is not None:
                raise self._error(
                    "OVER windows cannot be combined with GROUP BY / "
                    "HAVING in the same query block",
                    select,
                )
            node = self._plan_over(node, scope, select, over_calls)
        elif select.group_by or agg_calls or select.having is not None:
            node = self._plan_aggregate(node, scope, select, agg_calls)
        else:
            node = self._plan_plain_projection(node, scope, select)

        if select.distinct:
            self._check_unbounded_grouping(node, select)
            node = AggregateNode(node, tuple(range(len(node.schema))), ())

        if select.order_by or select.limit is not None:
            keys = []
            for item in select.order_by:
                keys.append((self._resolve_order_key(item, node.schema), item.ascending))
            node = SortNode(node, keys, select.limit)
        return node

    # -- FROM planning --------------------------------------------------------

    def _plan_from(
        self, items: Sequence[ast.FromItem], select: ast.Select
    ) -> tuple[LogicalNode, Scope]:
        if not items:
            raise self._error("queries without FROM are not supported", select)
        node, entries = self._plan_from_item(items[0], offset=0)
        for item in items[1:]:
            right, right_entries = self._plan_from_item(
                item, offset=len(node.schema)
            )
            node = JoinNode(node, right, JoinKind.CROSS, None)
            entries = entries + right_entries
        self._check_duplicate_aliases(entries, select)
        return node, Scope(entries, sql=self._sql)

    def _check_duplicate_aliases(
        self, entries: Sequence[ScopeEntry], node: ast.Node
    ) -> None:
        seen: set[str] = set()
        for entry in entries:
            if entry.alias is None:
                continue
            key = entry.alias.lower()
            if key in seen:
                raise self._error(f"duplicate table alias {entry.alias!r}", node)
            seen.add(key)

    def _plan_from_item(
        self, item: ast.FromItem, offset: int
    ) -> tuple[LogicalNode, list[ScopeEntry]]:
        if isinstance(item, ast.TableRef):
            view = self._catalog.lookup_view(item.name)
            if view is not None:
                node = self._expand_view(item.name, view, item)
                alias = item.alias or item.name
                return node, [ScopeEntry(alias, node.schema, offset)]
            node = self._scan(item.name, item)
            alias = item.alias or item.name
            return node, [ScopeEntry(alias, node.schema, offset)]
        if isinstance(item, ast.SubqueryRef):
            node = self._plan_statement(item.query)
            return node, [ScopeEntry(item.alias, node.schema, offset)]
        if isinstance(item, ast.TvfCall):
            node = self._plan_tvf(item)
            return node, [
                ScopeEntry(item.alias, node.schema, offset, is_window_tvf=True)
            ]
        if isinstance(item, ast.ValuesRef):
            node = self._plan_values(item)
            return node, [ScopeEntry(item.alias, node.schema, offset)]
        if isinstance(item, ast.MatchRecognize):
            node = self._plan_match_recognize(item)
            alias = item.alias or item.input.name
            return node, [ScopeEntry(alias, node.schema, offset)]
        if isinstance(item, ast.JoinClause):
            left, left_entries = self._plan_from_item(item.left, offset)
            right, right_entries = self._plan_from_item(
                item.right, offset + len(left.schema)
            )
            scope = Scope(left_entries + right_entries, sql=self._sql)
            if item.as_of is not None:
                node = self._plan_temporal_join(item, left, right, scope)
                return node, left_entries + right_entries
            condition = None
            if item.condition is not None:
                translator = ExprTranslator(scope, self._registry, self._sql)
                condition = translator.translate(item.condition)
                if condition.type not in (SqlType.BOOL, SqlType.NULL):
                    raise self._error("join condition must be BOOLEAN", item)
                self._forbid_current_time([condition], item)
            if item.kind == "RIGHT":
                # mirror into a LEFT join, then restore column order
                if condition is None:
                    raise self._error("RIGHT JOIN requires ON", item)
                left_width = len(left.schema)
                right_width = len(right.schema)
                swap = {i: i + right_width for i in range(left_width)}
                swap.update(
                    {left_width + i: i for i in range(right_width)}
                )
                mirrored = JoinNode(
                    right, left, JoinKind.LEFT, rex.shift_inputs(condition, swap)
                )
                reorder = [
                    rex.RexInput(right_width + i, type=c.type)
                    for i, c in enumerate(mirrored.schema.columns[right_width:])
                ] + [
                    rex.RexInput(i, type=c.type)
                    for i, c in enumerate(mirrored.schema.columns[:right_width])
                ]
                names = [c.name for c in left.schema.columns] + [
                    c.name for c in right.schema.columns
                ]
                node = ProjectNode(mirrored, reorder, _uniquify(names))
                return node, left_entries + right_entries
            kind = {
                "INNER": JoinKind.INNER,
                "CROSS": JoinKind.CROSS,
                "LEFT": JoinKind.LEFT,
                "FULL": JoinKind.FULL,
            }.get(item.kind)
            if kind is None:
                raise self._error(
                    f"{item.kind} JOIN is not supported", item
                )
            node = JoinNode(left, right, kind, condition)
            return node, left_entries + right_entries
        raise self._error(f"cannot plan {type(item).__name__}", item)

    def _scan(self, name: str, node: ast.Node) -> ScanNode:
        found = self._catalog.lookup(name)
        if found is None:
            raise ValidationError(
                f"unknown table {name!r}; registered: "
                f"{', '.join(self._catalog.names()) or '(none)'}",
                self._sql, node.pos, code="unknown_table",
            )
        schema, bounded = found
        return ScanNode(name, schema, bounded)

    # -- IN (SELECT ...) semi/anti joins -----------------------------------------

    def _split_in_subqueries(
        self, where: ast.Expr
    ) -> tuple[Optional[ast.Expr], list[tuple[ast.Expr, ast.Select, bool]]]:
        """Pull top-level [NOT] IN (SELECT ...) conjuncts out of WHERE.

        Only AND-ed top-level occurrences are supported; a subquery
        nested under OR/NOT has no semi-join factorization and is
        rejected with guidance.
        """
        subqueries: list[tuple[ast.Expr, ast.Select, bool]] = []

        def strip(expr: ast.Expr) -> Optional[ast.Expr]:
            if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
                left = strip(expr.left)
                right = strip(expr.right)
                if left is None:
                    return right
                if right is None:
                    return left
                return ast.BinaryOp("AND", left, right, pos=expr.pos)
            if isinstance(expr, ast.InSubquery):
                subqueries.append((expr.operand, expr.query, expr.negated))
                return None
            if isinstance(expr, ast.Exists):
                subqueries.append((None, expr.query, expr.negated))
                return None
            if (
                isinstance(expr, ast.UnaryOp)
                and expr.op == "NOT"
                and isinstance(expr.operand, ast.Exists)
            ):
                subqueries.append(
                    (None, expr.operand.query, not expr.operand.negated)
                )
                return None
            # `x = (SELECT agg FROM ...)` — the shape CQL's Listing 1
            # uses — plans as a semi join.  With a single-row subquery
            # (any global aggregate) this is exactly scalar equality;
            # a multi-row subquery acts as IN rather than erroring.
            if isinstance(expr, ast.BinaryOp) and expr.op == "=":
                if isinstance(expr.right, ast.ScalarSubquery):
                    subqueries.append((expr.left, expr.right.query, False))
                    return None
                if isinstance(expr.left, ast.ScalarSubquery):
                    subqueries.append((expr.right, expr.left.query, False))
                    return None
            self._forbid_nested_in_subquery(expr)
            return expr

        remaining = strip(where)
        return remaining, subqueries

    def _forbid_nested_in_subquery(self, expr: ast.Expr) -> None:
        for child in _children(expr):
            if isinstance(child, ast.InSubquery):
                raise self._error(
                    "[NOT] IN (SELECT ...) is only supported as a "
                    "top-level AND-ed conjunct of WHERE",
                    child,
                )
            self._forbid_nested_in_subquery(child)

    # -- inline VALUES relations -----------------------------------------------

    def _plan_values(self, item: ast.ValuesRef) -> LogicalNode:
        from .logical import ValuesNode
        from .rex import compile_rex

        empty_scope = Scope([], sql=self._sql)
        translator = ExprTranslator(empty_scope, self._registry, self._sql)
        rows: list[tuple] = []
        col_types: Optional[list[SqlType]] = None
        for row_exprs in item.rows:
            translated = [translator.translate(e) for e in row_exprs]
            values = []
            for translated_expr in translated:
                try:
                    values.append(compile_rex(translated_expr)(()))
                except Exception:
                    raise self._error(
                        "VALUES rows must be constant expressions", item
                    ) from None
            if col_types is None:
                col_types = [e.type for e in translated]
            elif len(translated) != len(col_types):
                raise self._error("VALUES rows must have the same arity", item)
            else:
                for i, expr in enumerate(translated):
                    if col_types[i] is SqlType.NULL:
                        col_types[i] = expr.type
            rows.append(tuple(values))
        assert col_types is not None
        schema = Schema(
            [
                Column(f"col{i}", t if t is not SqlType.NULL else SqlType.INT)
                for i, t in enumerate(col_types)
            ]
        )
        return ValuesNode(schema, rows)

    # -- OVER windows -------------------------------------------------------------

    def _collect_over_calls(self, select: ast.Select) -> list[ast.OverCall]:
        calls: list[ast.OverCall] = []

        def visit(expr: ast.Expr) -> None:
            if isinstance(expr, ast.OverCall):
                if expr not in calls:
                    calls.append(expr)
                return
            for child in _children(expr):
                visit(child)

        for item in select.items:
            if not isinstance(item.expr, ast.Star):
                visit(item.expr)
        return calls

    def _plan_over(
        self,
        node: LogicalNode,
        scope: Scope,
        select: ast.Select,
        over_calls: list[ast.OverCall],
    ) -> LogicalNode:
        spec = over_calls[0]
        for other in over_calls[1:]:
            if (
                other.partition_by != spec.partition_by
                or other.order_by != spec.order_by
                or other.rows_preceding != spec.rows_preceding
            ):
                raise self._error(
                    "all OVER clauses in a query must share the same "
                    "PARTITION BY / ORDER BY / frame",
                    other,
                )
        translator = ExprTranslator(scope, self._registry, self._sql)

        def ordinal_of(ref: ast.ColumnRef) -> int:
            translated = translator.translate(ref)
            if not isinstance(translated, rex.RexInput):
                raise self._error("OVER keys must be plain columns", ref)
            return translated.index

        partition = [ordinal_of(ref) for ref in spec.partition_by]
        order_index = ordinal_of(spec.order_by)
        order_col = node.schema.columns[order_index]
        if order_col.type is not SqlType.TIMESTAMP or (
            not order_col.event_time and not node.bounded
        ):
            raise self._error(
                "OVER on an unbounded input requires ORDER BY a "
                "watermarked event time column",
                spec.order_by,
            )

        # pre-project computed aggregate arguments after the input columns
        width = len(node.schema)
        pre_exprs: list[rex.Rex] = [
            rex.RexInput(i, type=col.type)
            for i, col in enumerate(node.schema.columns)
        ]
        pre_names = list(node.schema.column_names())
        calls: list[AggCall] = []
        for i, over in enumerate(over_calls):
            func_ast = over.func
            if not self._registry.is_aggregate(func_ast.name):
                raise self._error(
                    f"{func_ast.name} is not an aggregate function",
                    func_ast,
                )
            if func_ast.distinct:
                raise self._error(
                    "DISTINCT is not supported in OVER aggregates", func_ast
                )
            if func_ast.is_star:
                arg_index: Optional[int] = None
                arg_type: Optional[SqlType] = None
            else:
                if len(func_ast.args) != 1:
                    raise self._error(
                        f"{func_ast.name} takes one argument", func_ast
                    )
                arg = translator.translate(func_ast.args[0])
                if isinstance(arg, rex.RexInput):
                    arg_index = arg.index
                else:
                    arg_index = len(pre_exprs)
                    pre_exprs.append(arg)
                    pre_names.append(f"$overarg{i}")
                arg_type = arg.type
            function = self._registry.aggregate(
                func_ast.name, star=func_ast.is_star
            )
            out_type = function.return_type(arg_type)
            calls.append(
                AggCall(
                    function,
                    arg_index,
                    Column(f"$over{i}", out_type),
                )
            )
        if len(pre_exprs) > width:
            node = ProjectNode(node, pre_exprs, _uniquify(pre_names))
        over_node = OverNode(
            node, partition, order_index, calls, spec.rows_preceding
        )

        base_width = len(over_node.input.schema)

        def interceptor(expr: ast.Expr) -> Optional[rex.Rex]:
            if isinstance(expr, ast.OverCall):
                idx = over_calls.index(expr)
                out_idx = base_width + idx
                return rex.RexInput(
                    out_idx, type=over_node.schema.columns[out_idx].type
                )
            return None

        return self._plan_plain_projection(over_node, scope, select, interceptor)

    # -- MATCH_RECOGNIZE --------------------------------------------------------

    def _plan_match_recognize(self, item: ast.MatchRecognize) -> LogicalNode:
        from .match import MatchMeasure, MatchRecognizeNode, translate_measure

        scan = self._scan(item.input.name, item.input)
        schema = scan.schema
        symbols = {element.symbol.upper() for element in item.pattern}

        def resolve(ref: ast.ColumnRef) -> int:
            name = ref.parts[-1]
            try:
                return schema.index_of(name)
            except Exception:
                raise self._error(
                    f"{item.input.name} has no column {name!r}", ref
                ) from None

        partition = [resolve(ref) for ref in item.partition_by]
        order_index = resolve(item.order_by)
        if not schema.columns[order_index].event_time:
            raise self._error(
                "MATCH_RECOGNIZE ORDER BY must name a watermarked event "
                "time column (the pattern is defined over event-time "
                "order)",
                item.order_by,
            )

        # DEFINE predicates see the current row; a pattern-symbol
        # qualifier (UP.price) refers to that row too.
        scope = Scope.single(schema, alias=item.input.name, sql=self._sql)

        def strip_symbol(expr: ast.Expr) -> Optional[rex.Rex]:
            if (
                isinstance(expr, ast.ColumnRef)
                and len(expr.parts) == 2
                and expr.parts[0].upper() in symbols
            ):
                index = resolve(expr)
                return rex.RexInput(index, type=schema.columns[index].type)
            return None

        translator = ExprTranslator(
            scope, self._registry, self._sql, interceptor=strip_symbol
        )
        defines: dict[str, object] = {}
        for symbol, predicate_ast in item.defines:
            if symbol.upper() not in symbols:
                raise self._error(
                    f"DEFINE names {symbol!r}, which is not in PATTERN",
                    item,
                )
            predicate = translator.translate(predicate_ast)
            if predicate.type not in (SqlType.BOOL, SqlType.NULL):
                raise self._error(
                    f"DEFINE {symbol} must be BOOLEAN", predicate_ast
                )
            defines[symbol.upper()] = rex.compile_rex(predicate)

        measures: list[MatchMeasure] = []
        for measure_ast, name in item.measures:
            evaluate, out_type = translate_measure(
                measure_ast, schema, symbols, self._sql
            )
            measures.append(MatchMeasure(name, out_type, evaluate))

        pattern = [(e.symbol.upper(), e.quantifier) for e in item.pattern]
        return MatchRecognizeNode(
            scan,
            partition,
            order_index,
            measures,
            pattern,
            defines,
            item.after_match,
        )

    # -- temporal (AS OF) joins (Section 8) ------------------------------------

    def _plan_temporal_join(
        self,
        item: ast.JoinClause,
        left: LogicalNode,
        right: LogicalNode,
        scope: Scope,
    ) -> LogicalNode:
        if item.kind != "INNER":
            raise self._error(
                "FOR SYSTEM_TIME AS OF only supports INNER joins", item
            )
        translator = ExprTranslator(scope, self._registry, self._sql)
        as_of = translator.translate(item.as_of)
        left_width = len(left.schema)
        if not isinstance(as_of, rex.RexInput) or as_of.index >= left_width:
            raise self._error(
                "FOR SYSTEM_TIME AS OF must reference a column of the "
                "left (probe) side",
                item,
            )
        if item.condition is None:
            raise self._error("temporal joins require an ON condition", item)
        condition = translator.translate(item.condition)
        left_keys: list[int] = []
        right_keys: list[int] = []
        for conjunct in rex.split_conjuncts(condition):
            pair = rex.equi_pair(conjunct, left_width)
            if pair is None:
                raise self._error(
                    "temporal join conditions must be AND-ed equality "
                    "comparisons between the two sides (the version key)",
                    item,
                )
            left_keys.append(pair[0])
            right_keys.append(pair[1] - left_width)
        version_cols = [
            i
            for i, col in enumerate(right.schema.columns)
            if col.event_time
        ]
        if len(version_cols) != 1:
            raise self._error(
                "a temporal table needs exactly one event time column "
                "(the version timestamp); found "
                f"{len(version_cols)}",
                item,
            )
        return TemporalJoinNode(
            left,
            right,
            left_time_index=as_of.index,
            right_time_index=version_cols[0],
            left_keys=left_keys,
            right_keys=right_keys,
        )

    # -- time-progressing predicates (Section 8) ------------------------------

    def _split_temporal(
        self, condition: rex.Rex, at: ast.Node
    ) -> tuple[list[TemporalBound], Optional[rex.Rex]]:
        """Separate CURRENT_TIME conjuncts from an ordinary predicate.

        Supported shape per conjunct: a comparison between a TIMESTAMP
        column (optionally shifted by an interval literal) and
        CURRENT_TIME (optionally shifted) — the tail-of-stream pattern
        of Section 8.  Any other use of CURRENT_TIME is rejected.
        """
        bounds: list[TemporalBound] = []
        residual: list[rex.Rex] = []
        for conjunct in rex.split_conjuncts(condition):
            if not _mentions_current_time(conjunct):
                residual.append(conjunct)
                continue
            bound = self._temporal_bound_of(conjunct)
            if bound is None:
                raise self._error(
                    "CURRENT_TIME is only supported in tail-of-stream "
                    "predicates of the form "
                    "'<timestamp column> <op> CURRENT_TIME [± INTERVAL]'",
                    at,
                )
            bounds.append(bound)
        combined = None
        if residual:
            combined = residual[0]
            for extra in residual[1:]:
                combined = rex.RexCall(
                    "AND", (combined, extra), type=SqlType.BOOL
                )
        return bounds, combined

    def _temporal_bound_of(self, conjunct: rex.Rex) -> Optional[TemporalBound]:
        if not isinstance(conjunct, rex.RexCall) or conjunct.op not in (
            "<", "<=", ">", ">=",
        ):
            return None
        left = _shifted_term(conjunct.args[0])
        right = _shifted_term(conjunct.args[1])
        if left is None or right is None:
            return None
        op = conjunct.op
        (lbase, lshift), (rbase, rshift) = left, right
        # normalize to: column OP CURRENT_TIME + c
        if isinstance(lbase, rex.RexInput) and isinstance(
            rbase, rex.RexCurrentTime
        ):
            column, c = lbase, rshift - lshift
        elif isinstance(lbase, rex.RexCurrentTime) and isinstance(
            rbase, rex.RexInput
        ):
            column, c = rbase, lshift - rshift
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
        else:
            return None
        if column.type is not SqlType.TIMESTAMP:
            return None
        # column OP now + c  ==>  visibility edge at column - c
        if op == ">":
            # visible while now < column - c
            return TemporalBound(column.index, -c, "before")
        if op == ">=":
            # visible while now <= column - c, i.e. now < column - c + 1
            return TemporalBound(column.index, -c + 1, "before")
        if op == "<":
            # visible once now > column - c, i.e. from column - c + 1
            return TemporalBound(column.index, -c + 1, "from")
        # "<=": visible once now >= column - c
        return TemporalBound(column.index, -c, "from")

    def _forbid_current_time(self, exprs: Sequence[rex.Rex], at: ast.Node) -> None:
        for expr in exprs:
            if _mentions_current_time(expr):
                raise self._error(
                    "CURRENT_TIME is only allowed in WHERE tail-of-stream "
                    "predicates",
                    at,
                )

    # -- windowing TVFs ----------------------------------------------------------

    def _plan_tvf(self, call: ast.TvfCall) -> WindowNode:
        name = call.name.upper()
        params = _TVF_PARAMS.get(name)
        if params is None:
            raise self._error(
                f"unknown table-valued function {call.name!r} "
                f"(supported: Tumble, Hop, Session)",
                call,
            )
        bound: dict[str, ast.Expr] = {}
        positional = 0
        for arg in call.args:
            if isinstance(arg, ast.NamedArg):
                key = arg.name.lower()
                key = _TVF_ALIASES.get(key, key)
                if key not in params:
                    raise self._error(
                        f"{call.name} has no parameter {arg.name!r}", arg
                    )
                if key in bound:
                    raise self._error(f"duplicate argument {arg.name!r}", arg)
                bound[key] = arg.value
            else:
                if positional >= len(params):
                    raise self._error(f"too many arguments to {call.name}", arg)
                bound[params[positional]] = arg
                positional += 1

        data = bound.get("data")
        if not isinstance(data, ast.TableArg):
            raise self._error(
                f"{call.name} requires data => TABLE(name)", call
            )
        input_node = self._scan(data.name, data)

        timecol = bound.get("timecol")
        if not isinstance(timecol, ast.Descriptor):
            raise self._error(
                f"{call.name} requires timecol => DESCRIPTOR(column)", call
            )
        try:
            time_index = input_node.schema.index_of(timecol.column)
        except Exception:
            raise self._error(
                f"{data.name} has no column {timecol.column!r}", timecol
            ) from None
        if not input_node.schema.columns[time_index].event_time:
            raise self._error(
                f"{timecol.column!r} is not a watermarked event time column "
                f"(Extension 1)",
                timecol,
            )

        def interval_of(key: str, required: bool) -> Optional[Duration]:
            expr = bound.get(key)
            if expr is None:
                if required:
                    raise self._error(
                        f"{call.name} requires {key} => INTERVAL ...", call
                    )
                return None
            if not isinstance(expr, ast.IntervalLiteral):
                raise self._error(f"{key} must be an INTERVAL literal", expr)
            return expr.millis

        if name == "TUMBLE":
            size = interval_of("size", required=True)
            offset = interval_of("offset", required=False) or 0
            return WindowNode(
                input_node, WindowKind.TUMBLE, time_index, size, offset=offset
            )
        if name == "HOP":
            size = interval_of("size", required=True)
            slide = interval_of("slide", required=True)
            offset = interval_of("offset", required=False) or 0
            return WindowNode(
                input_node, WindowKind.HOP, time_index, size, slide, offset
            )
        # SESSION
        gap = interval_of("gap", required=True)
        keycol = bound.get("keycol")
        key_indices: tuple[int, ...] = ()
        if keycol is not None:
            if not isinstance(keycol, ast.Descriptor):
                raise self._error("keycol must be DESCRIPTOR(column)", keycol)
            key_indices = (input_node.schema.index_of(keycol.column),)
        return WindowNode(
            input_node,
            WindowKind.SESSION,
            time_index,
            gap,
            key_indices=key_indices,
        )

    # -- aggregation ----------------------------------------------------------------

    def _collect_aggregates(self, select: ast.Select) -> list[ast.FunctionCall]:
        """All distinct aggregate calls in the select list and HAVING."""
        calls: list[ast.FunctionCall] = []

        def visit(expr: ast.Expr, inside_agg: bool) -> None:
            if isinstance(expr, ast.FunctionCall) and self._registry.is_aggregate(
                expr.name
            ):
                if inside_agg:
                    raise self._error("aggregates cannot nest", expr)
                if expr not in calls:
                    calls.append(expr)
                for arg in expr.args:
                    visit(arg, True)
                return
            for child in _children(expr):
                visit(child, inside_agg)

        for item in select.items:
            visit(item.expr, False)
        if select.having is not None:
            visit(select.having, False)
        return calls

    def _check_unbounded_grouping(
        self, node: LogicalNode, at: ast.Node, group_cols: Sequence[Column] = ()
    ) -> None:
        """Extension 2: unbounded grouping requires an event-time key."""
        if node.bounded:
            return
        cols = group_cols if group_cols else node.schema.columns
        if not any(c.event_time for c in cols):
            raise self._error(
                "grouping on an unbounded input requires at least one "
                "watermarked event time column as a grouping key "
                "(Extension 2); window the stream with Tumble/Hop or "
                "query a recorded table instead",
                at,
            )

    def _plan_aggregate(
        self,
        input_node: LogicalNode,
        scope: Scope,
        select: ast.Select,
        agg_calls: list[ast.FunctionCall],
    ) -> LogicalNode:
        translator = ExprTranslator(scope, self._registry, self._sql)

        # Translate the grouping keys and add window sibling columns
        # (grouping by wend implies grouping by wstart, and vice versa).
        group_rexes: list[rex.Rex] = []
        for g in select.group_by:
            translated = translator.translate(g)
            if translated not in group_rexes:
                group_rexes.append(translated)
        for sibling in self._window_siblings(scope, group_rexes):
            if sibling not in group_rexes:
                group_rexes.append(sibling)

        # Resolve the aggregate calls' argument expressions.
        resolved_aggs: list[tuple[ast.FunctionCall, Optional[rex.Rex]]] = []
        for call in agg_calls:
            if call.is_star:
                resolved_aggs.append((call, None))
                continue
            if len(call.args) != 1:
                raise self._error(
                    f"{call.name} takes exactly one argument", call
                )
            resolved_aggs.append((call, translator.translate(call.args[0])))

        # Pre-projection: group keys first, then aggregate arguments.
        pre_exprs: list[rex.Rex] = list(group_rexes)
        pre_names = [
            self._derived_name(g, scope, i) for i, g in enumerate(group_rexes)
        ]
        agg_arg_index: list[Optional[int]] = []
        for _, arg in resolved_aggs:
            if arg is None:
                agg_arg_index.append(None)
            else:
                agg_arg_index.append(len(pre_exprs))
                pre_exprs.append(arg)
                pre_names.append(f"$agg{len(pre_exprs)}")
        pre_names = _uniquify(pre_names)
        self._forbid_current_time(pre_exprs, select)
        pre_project = ProjectNode(input_node, pre_exprs, pre_names)

        # Extension 2 governs GROUP BY *keys*; a global aggregate has no
        # grouping clause, its accumulator state is O(1) per aggregate,
        # and continuously updating queries like SELECT COUNT(*) FROM S
        # (or Section 8's tail-of-stream counts) are legitimate.
        if group_rexes:
            group_cols = [
                pre_project.schema.columns[i] for i in range(len(group_rexes))
            ]
            self._check_unbounded_grouping(pre_project, select, group_cols)

        calls: list[AggCall] = []
        for i, (call, _) in enumerate(resolved_aggs):
            function = self._registry.aggregate(call.name, star=call.is_star)
            arg_idx = agg_arg_index[i]
            arg_type = (
                pre_project.schema.columns[arg_idx].type
                if arg_idx is not None
                else None
            )
            out_type = function.return_type(arg_type)
            calls.append(
                AggCall(
                    function,
                    arg_idx,
                    Column(f"${call.name.lower()}{i}", out_type),
                    distinct=call.distinct,
                )
            )
        agg_node = AggregateNode(pre_project, tuple(range(len(group_rexes))), calls)

        # Everything above the aggregate is expressed over its output.
        post = self._post_agg_translator(
            scope, translator, group_rexes, agg_calls, agg_node
        )

        node: LogicalNode = agg_node
        if select.having is not None:
            condition = post.translate(select.having)
            if condition.type not in (SqlType.BOOL, SqlType.NULL):
                raise self._error("HAVING must be BOOLEAN", select.having)
            node = FilterNode(node, condition)

        exprs: list[rex.Rex] = []
        names: list[str] = []
        for item in select.items:
            if isinstance(item.expr, ast.Star):
                raise self._error(
                    "SELECT * cannot be combined with GROUP BY", item
                )
            translated = post.translate(item.expr)
            exprs.append(translated)
            names.append(item.alias or self._derived_name_ast(item.expr, len(names)))
        self._forbid_current_time(exprs, select)
        return ProjectNode(node, exprs, _uniquify(names))

    def _window_siblings(
        self, scope: Scope, group_rexes: Sequence[rex.Rex]
    ) -> list[rex.Rex]:
        """wstart ↔ wend sibling keys for grouped window TVF columns."""
        siblings: list[rex.Rex] = []
        for entry in scope.entries:
            if not entry.is_window_tvf:
                continue
            wstart = entry.offset + WindowNode.WSTART
            wend = entry.offset + WindowNode.WEND
            indices = {
                g.index
                for g in group_rexes
                if isinstance(g, rex.RexInput)
            }
            if wstart in indices and wend not in indices:
                siblings.append(
                    rex.RexInput(wend, type=SqlType.TIMESTAMP)
                )
            elif wend in indices and wstart not in indices:
                siblings.append(
                    rex.RexInput(wstart, type=SqlType.TIMESTAMP)
                )
        return siblings

    def _post_agg_translator(
        self,
        scope: Scope,
        base: ExprTranslator,
        group_rexes: Sequence[rex.Rex],
        agg_calls: Sequence[ast.FunctionCall],
        agg_node: AggregateNode,
    ) -> ExprTranslator:
        """Translator for expressions over the aggregate's output."""
        out_schema = agg_node.schema
        n_groups = len(group_rexes)

        def interceptor(expr: ast.Expr) -> Optional[rex.Rex]:
            # aggregate call → aggregate output column
            if isinstance(expr, ast.FunctionCall) and self._registry.is_aggregate(
                expr.name
            ):
                idx = agg_calls.index(expr) if expr in agg_calls else -1
                if idx < 0:
                    raise self._error(
                        f"aggregate {expr.name} not collected", expr
                    )
                out_idx = n_groups + idx
                return rex.RexInput(out_idx, type=out_schema.columns[out_idx].type)
            # whole expression matches a grouping key → group output column
            try:
                candidate = base.translate(expr)
            except ValidationError:
                return None
            for gi, group in enumerate(group_rexes):
                if candidate == group:
                    return rex.RexInput(gi, type=out_schema.columns[gi].type)
            if isinstance(expr, ast.ColumnRef):
                raise self._error(
                    f"column {expr} must appear in GROUP BY or inside an "
                    f"aggregate",
                    expr,
                )
            return None

        return ExprTranslator(
            scope, self._registry, self._sql, interceptor=interceptor
        )

    # -- plain (non-aggregate) projection -------------------------------------------

    def _plan_plain_projection(
        self, node: LogicalNode, scope: Scope, select: ast.Select, interceptor=None
    ) -> LogicalNode:
        """The SELECT list over ``node`` — over an OVER node, with the
        ``interceptor`` that reads its aggregate columns."""
        translator = ExprTranslator(
            scope, self._registry, self._sql, interceptor=interceptor
        )
        exprs: list[rex.Rex] = []
        names: list[str] = []
        for item in select.items:
            if isinstance(item.expr, ast.Star):
                for ordinal in scope.expand_star(item.expr.qualifier, item.pos):
                    column = scope.column_at(ordinal)
                    exprs.append(rex.RexInput(ordinal, type=column.type))
                    names.append(column.name)
                continue
            exprs.append(translator.translate(item.expr))
            names.append(item.alias or self._derived_name_ast(item.expr, len(names)))
        self._forbid_current_time(exprs, select)
        return ProjectNode(node, exprs, _uniquify(names))

    # -- helpers -------------------------------------------------------------------

    def _derived_name(self, expr: rex.Rex, scope: Scope, i: int) -> str:
        if isinstance(expr, rex.RexInput):
            return scope.column_at(expr.index).name
        return f"$expr{i}"

    def _derived_name_ast(self, expr: ast.Expr, i: int) -> str:
        if isinstance(expr, ast.ColumnRef):
            return expr.parts[-1]
        if isinstance(expr, ast.FunctionCall):
            return expr.name.lower()
        return f"EXPR${i}"

    def _resolve_order_key(self, item: ast.OrderItem, schema: Schema) -> int:
        expr = item.expr
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            if not (1 <= expr.value <= len(schema)):
                raise self._error(
                    f"ORDER BY ordinal {expr.value} out of range", expr
                )
            return expr.value - 1
        if isinstance(expr, ast.ColumnRef) and len(expr.parts) == 1:
            try:
                return schema.index_of(expr.parts[0])
            except Exception:
                raise self._error(
                    f"ORDER BY column {expr.parts[0]!r} is not in the select "
                    f"list",
                    expr,
                ) from None
        raise self._error(
            "ORDER BY supports output column names and ordinals", expr
        )


def _mentions_current_time(expr: rex.Rex) -> bool:
    if isinstance(expr, (rex.RexInput, rex.RexLiteral)):
        return False  # most select-list and key expressions: no walk
    return any(isinstance(n, rex.RexCurrentTime) for n in rex.walk(expr))


def _shifted_term(
    expr: rex.Rex,
) -> Optional[tuple[rex.Rex, int]]:
    """Match ``base`` or ``base ± INTERVAL`` where base is an input or
    CURRENT_TIME; returns (base, shift_millis)."""
    if isinstance(expr, (rex.RexInput, rex.RexCurrentTime)):
        return expr, 0
    if (
        isinstance(expr, rex.RexCall)
        and expr.op in ("+", "-")
        and isinstance(expr.args[0], (rex.RexInput, rex.RexCurrentTime))
        and isinstance(expr.args[1], rex.RexLiteral)
        and expr.args[1].type is SqlType.INTERVAL
    ):
        shift = expr.args[1].value
        return expr.args[0], shift if expr.op == "+" else -shift
    return None


def _children(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, ast.UnaryOp):
        return [expr.operand]
    if isinstance(expr, ast.BinaryOp):
        return [expr.left, expr.right]
    if isinstance(expr, ast.FunctionCall):
        return list(expr.args)
    if isinstance(expr, ast.Case):
        out = [child for pair in expr.whens for child in pair]
        if expr.else_ is not None:
            out.append(expr.else_)
        return out
    if isinstance(expr, ast.Cast):
        return [expr.operand]
    if isinstance(expr, ast.Between):
        return [expr.operand, expr.low, expr.high]
    if isinstance(expr, ast.InList):
        return [expr.operand, *expr.items]
    if isinstance(expr, ast.IsNull):
        return [expr.operand]
    if isinstance(expr, ast.InSubquery):
        return [expr.operand]
    if isinstance(expr, ast.OverCall):
        return []
    return []


def _uniquify(names: Sequence[str]) -> list[str]:
    seen: set[str] = set()
    out: list[str] = []
    for name in names:
        candidate = name
        n = 0
        while candidate.lower() in seen:
            candidate = f"{name}{n}"
            n += 1
        seen.add(candidate.lower())
        out.append(candidate)
    return out


def referenced_tables(
    statement: ast.Statement, catalog: Optional[Catalog] = None
) -> set[str]:
    """Every relation name a statement references, lowercased.

    Walks the whole AST — FROM items, joins, TVF ``TABLE(...)``
    arguments, MATCH_RECOGNIZE inputs, and subqueries in any clause.
    With a ``catalog``, names that resolve to views are expanded
    recursively so the result also names the views' underlying base
    relations — the set an admission layer must check ACLs against
    *before* any plan is built.
    """
    names: set[str] = set()
    expanding: set[str] = set()

    def visit(root) -> None:
        stack = [root]
        while stack:
            node = stack.pop()
            fields = _CHILD_FIELDS.get(type(node))
            if fields is not None:
                for field in fields:
                    stack.append(getattr(node, field))
            elif isinstance(node, (ast.TableRef, ast.TableArg)):
                name = node.name.lower()
                names.add(name)
                view = catalog.lookup_view(name) if catalog is not None else None
                if view is not None and name not in expanding:
                    expanding.add(name)
                    visit(view)
                    expanding.discard(name)
            elif isinstance(node, (tuple, list)):
                stack.extend(node)

    visit(statement)
    return names


#: AST class -> the fields :func:`referenced_tables` descends into:
#: every field but ``pos``, so no field can hide a table from the walk
#: (a leaf value and a table reference have no entry here)
_CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    cls: cls.__match_args__
    for cls in vars(ast).values()
    if isinstance(cls, type) and issubclass(cls, ast.Node)
    and cls not in (ast.TableRef, ast.TableArg)
}

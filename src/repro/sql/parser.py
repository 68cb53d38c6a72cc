"""Recursive-descent parser for the streaming SQL dialect.

Grammar (informally)::

    statement   := select { UNION [ALL] select } [emit] [";"]
    select      := SELECT [DISTINCT] items [FROM from_list] [WHERE expr]
                   [GROUP BY exprs] [HAVING expr] [ORDER BY keys]
                   [LIMIT n] [emit]
    from_list   := join_chain { "," join_chain }
    join_chain  := from_primary { join_kind JOIN from_primary [ON expr] }
    from_primary:= table [alias] | "(" select ")" [alias]
                 | ident "(" tvf_args ")" [alias]
    emit        := EMIT [STREAM] [after {AND after}]
    after       := AFTER WATERMARK | AFTER DELAY interval

Expressions use conventional precedence:
``OR < AND < NOT < comparison/IS/IN/BETWEEN/LIKE < +,-,|| < *,/,% < unary``.
"""

from __future__ import annotations

from typing import Optional

from ..core.emit import EmitSpec
from ..core.errors import ParseError
from ..core.times import (
    MILLIS_PER_DAY,
    MILLIS_PER_HOUR,
    MILLIS_PER_MINUTE,
    MILLIS_PER_SECOND,
)
from . import ast
from .lexer import Token, TokenType, tokenize

__all__ = ["parse", "parse_expression"]

_INTERVAL_UNITS = {
    "MILLISECOND": 1,
    "MILLISECONDS": 1,
    "SECOND": MILLIS_PER_SECOND,
    "SECONDS": MILLIS_PER_SECOND,
    "MINUTE": MILLIS_PER_MINUTE,
    "MINUTES": MILLIS_PER_MINUTE,
    "HOUR": MILLIS_PER_HOUR,
    "HOURS": MILLIS_PER_HOUR,
    "DAY": MILLIS_PER_DAY,
    "DAYS": MILLIS_PER_DAY,
}

# expression precedence levels, loosest first (see ``_Parser._expr``)
_OR, _AND, _NOT, _COMPARE, _ADD, _MUL, _UNARY = range(1, 8)
#: the level of each operator token that continues an expression
_OP_LEVELS = {
    "=": _COMPARE, "<>": _COMPARE, "!=": _COMPARE, "<": _COMPARE,
    "<=": _COMPARE, ">": _COMPARE, ">=": _COMPARE,
    "+": _ADD, "-": _ADD, "||": _ADD,
    "*": _MUL, "/": _MUL, "%": _MUL,
}
#: ... and of each keyword that does (NOT only before IN/BETWEEN/LIKE)
_KEYWORD_LEVELS = {
    "OR": _OR, "AND": _AND, "IS": _COMPARE, "NOT": _COMPARE,
    "BETWEEN": _COMPARE, "IN": _COMPARE, "LIKE": _COMPARE, "MOD": _MUL,
}
_LITERAL_KEYWORDS = {"TRUE": True, "FALSE": False, "NULL": None}


def parse(sql: str) -> ast.Statement:
    """Parse one SQL statement, raising :class:`ParseError` on failure."""
    return _Parser(sql).parse_statement()


def parse_expression(sql: str) -> ast.Expr:
    """Parse a standalone expression (used by tests and the REPL)."""
    parser = _Parser(sql)
    expr = parser._expr()
    parser._expect_eof()
    return expr


class _Parser:
    def __init__(self, sql: str):
        self._sql = sql
        self._tokens = tokenize(sql)
        self._i = 0

    # -- token plumbing -------------------------------------------------
    #
    # Each helper reads ``self._tokens[self._i]`` itself; a keyword test
    # is a membership test of the token's ``keyword`` field (``None``
    # for every non-keyword token, EOF included), so accepting one never
    # needs an EOF check before the step.

    def _peek(self, ahead: int = 1) -> Token:
        j = min(self._i + ahead, len(self._tokens) - 1)
        return self._tokens[j]

    def _advance(self) -> Token:
        token = self._tokens[self._i]
        if token.type is not TokenType.EOF:
            self._i += 1
        return token

    def _error(self, message: str, token: Token | None = None) -> ParseError:
        if token is None:
            token = self._tokens[self._i]
        return ParseError(message, self._sql, token.pos)

    def _at_keyword(self, *words: str) -> bool:
        return self._tokens[self._i].keyword in words

    def _accept_keyword(self, *words: str) -> bool:
        if self._tokens[self._i].keyword in words:
            self._i += 1
            return True
        return False

    def _expect_keyword(self, word: str) -> Token:
        token = self._tokens[self._i]
        if token.keyword != word:
            raise self._error(f"expected {word}, found {token}")
        self._i += 1
        return token

    def _at_op(self, *ops: str) -> bool:
        token = self._tokens[self._i]
        return token.type is TokenType.OP and token.value in ops

    def _accept_op(self, op: str) -> bool:
        token = self._tokens[self._i]
        if token.type is TokenType.OP and token.value == op:
            self._i += 1
            return True
        return False

    def _expect_op(self, op: str) -> None:
        if not self._accept_op(op):
            raise self._error(f"expected {op!r}, found {self._tokens[self._i]}")

    def _expect_ident(self, what: str = "identifier") -> Token:
        token = self._tokens[self._i]
        if token.type is not TokenType.IDENT:
            raise self._error(f"expected {what}, found {token}")
        self._i += 1
        return token

    def _expect_eof(self) -> None:
        token = self._tokens[self._i]
        if token.type is not TokenType.EOF:
            raise self._error(f"unexpected trailing input: {token}")

    # -- statements -------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        stmt: ast.Statement = self._union_term()
        while self._at_keyword("UNION", "INTERSECT", "EXCEPT"):
            op_token = self._advance()
            is_all = self._accept_keyword("ALL")
            right = self._union_term()
            # A trailing EMIT binds to the whole set operation, not its
            # last arm, so hoist it (EMIT is top-level only).
            hoisted = right.emit
            if hoisted is not None:
                right = _with_emit(right, None)
            stmt = ast.Union_(
                stmt,
                right,
                all=is_all,
                emit=hoisted,
                op=op_token.keyword,
                pos=op_token.pos,
            )
        emit = self._emit_clause()
        if emit is not None:
            if isinstance(stmt, ast.Select):
                if stmt.emit is not None:
                    raise self._error("duplicate EMIT clause")
                stmt = _with_emit(stmt, emit)
            else:
                stmt = ast.Union_(
                    stmt.left,
                    stmt.right,
                    all=stmt.all,
                    emit=emit,
                    op=stmt.op,
                    pos=stmt.pos,
                )
        self._accept_op(";")
        self._expect_eof()
        return stmt

    def _union_term(self) -> ast.Select:
        if self._accept_op("("):
            inner = self._select()
            self._expect_op(")")
            return inner
        return self._select()

    def _select(self) -> ast.Select:
        pos = self._expect_keyword("SELECT").pos
        distinct = False
        if self._accept_keyword("DISTINCT"):
            distinct = True
        else:
            self._accept_keyword("ALL")
        items = [self._select_item()]
        while self._accept_op(","):
            items.append(self._select_item())

        from_items: list[ast.FromItem] = []
        if self._accept_keyword("FROM"):
            from_items.append(self._join_chain())
            while self._accept_op(","):
                from_items.append(self._join_chain())

        where = self._expr() if self._accept_keyword("WHERE") else None

        group_by: list[ast.Expr] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._expr())
            while self._accept_op(","):
                group_by.append(self._expr())

        having = self._expr() if self._accept_keyword("HAVING") else None

        order_by: list[ast.OrderItem] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._order_item())
            while self._accept_op(","):
                order_by.append(self._order_item())

        limit: Optional[int] = None
        if self._accept_keyword("LIMIT"):
            token = self._advance()
            if token.type is not TokenType.NUMBER or "." in token.value:
                raise self._error("LIMIT expects an integer", token)
            limit = int(token.value)

        emit = self._emit_clause()
        return ast.Select(
            items=tuple(items),
            from_items=tuple(from_items),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            distinct=distinct,
            emit=emit,
            pos=pos,
        )

    def _select_item(self) -> ast.SelectItem:
        token = self._tokens[self._i]
        pos = token.pos
        # `*` and `alias.*`
        if token.type is TokenType.OP and token.value == "*":
            self._i += 1
            return ast.SelectItem(ast.Star(pos=pos), pos=pos)
        if (
            token.type is TokenType.IDENT
            and self._peek().type is TokenType.OP
            and self._peek().value == "."
            and self._peek(2).type is TokenType.OP
            and self._peek(2).value == "*"
        ):
            self._i += 3  # alias . *
            return ast.SelectItem(ast.Star(qualifier=token.value, pos=pos), pos=pos)
        expr = self._expr()
        return ast.SelectItem(expr, self._alias(), pos=pos)

    def _order_item(self) -> ast.OrderItem:
        pos = self._tokens[self._i].pos
        expr = self._expr()
        ascending = True
        if self._accept_keyword("DESC"):
            ascending = False
        else:
            self._accept_keyword("ASC")
        return ast.OrderItem(expr, ascending, pos=pos)

    # -- FROM clause ------------------------------------------------------

    def _join_chain(self) -> ast.FromItem:
        left = self._from_primary()
        while True:
            token = self._tokens[self._i]
            kind = token.keyword
            if kind in ("CROSS", "INNER"):
                self._i += 1
            elif kind in ("LEFT", "RIGHT", "FULL"):
                self._i += 1
                self._accept_keyword("OUTER")
            elif kind == "JOIN":
                kind = "INNER"
            else:
                return left
            pos = token.pos
            self._expect_keyword("JOIN")
            right = self._from_primary()
            # `FOR SYSTEM_TIME AS OF <expr>`: a correlated temporal join.
            as_of: Optional[ast.Expr] = None
            if self._accept_keyword("FOR"):
                self._expect_keyword("SYSTEM_TIME")
                self._expect_keyword("AS")
                self._expect_keyword("OF")
                as_of = self._expr()
                # the version-table alias follows the AS OF clause
                alias = self._alias()
                if alias is not None:
                    if isinstance(right, ast.TableRef):
                        right = ast.TableRef(right.name, alias, pos=right.pos)
                    else:
                        raise self._error(
                            "FOR SYSTEM_TIME AS OF requires a plain table"
                        )
            condition: Optional[ast.Expr] = None
            if kind != "CROSS":
                self._expect_keyword("ON")
                condition = self._expr()
            left = ast.JoinClause(left, right, kind, condition, as_of=as_of, pos=pos)

    def _from_primary(self) -> ast.FromItem:
        pos = self._tokens[self._i].pos
        if self._accept_op("("):
            if self._at_keyword("VALUES"):
                self._advance()
                rows = [self._values_row()]
                while self._accept_op(","):
                    rows.append(self._values_row())
                self._expect_op(")")
                alias = self._alias()
                return ast.ValuesRef(tuple(rows), alias, pos=pos)
            query = self._select()
            self._expect_op(")")
            alias = self._alias()
            return ast.SubqueryRef(query, alias, pos=pos)
        name_token = self._expect_ident("table name")
        if self._at_keyword("MATCH_RECOGNIZE"):
            return self._match_recognize(
                ast.TableRef(name_token.value, pos=name_token.pos)
            )
        # A TVF call looks like `Name ( ... )`.
        if self._at_op("("):
            self._advance()
            args: list[ast.Expr] = []
            if not self._at_op(")"):
                args.append(self._tvf_arg())
                while self._accept_op(","):
                    args.append(self._tvf_arg())
            self._expect_op(")")
            alias = self._alias()
            return ast.TvfCall(name_token.value, tuple(args), alias, pos=pos)
        alias = self._alias()
        return ast.TableRef(name_token.value, alias, pos=pos)

    def _values_row(self) -> tuple[ast.Expr, ...]:
        self._expect_op("(")
        exprs = [self._expr()]
        while self._accept_op(","):
            exprs.append(self._expr())
        self._expect_op(")")
        return tuple(exprs)

    def _alias(self) -> Optional[str]:
        token = self._tokens[self._i]
        if token.keyword == "AS":
            self._i += 1
            return self._expect_ident("alias").value
        if token.type is TokenType.IDENT:
            self._i += 1
            return token.value
        return None

    def _tvf_arg(self) -> ast.Expr:
        # `name => value` named argument
        token = self._tokens[self._i]
        if token.type is TokenType.IDENT:
            arrow = self._tokens[self._i + 1]
            if arrow.type is TokenType.OP and arrow.value == "=>":
                self._i += 2
                return ast.NamedArg(token.value, self._expr(), pos=token.pos)
        return self._expr()

    # -- OVER windows ----------------------------------------------------------

    def _over_clause(self, call: ast.FunctionCall) -> ast.OverCall:
        pos = self._expect_keyword("OVER").pos
        self._expect_op("(")
        partition_by: list[ast.ColumnRef] = []
        if self._accept_word("PARTITION"):
            self._expect_keyword("BY")
            partition_by.append(self._column_ref())
            while self._accept_op(","):
                partition_by.append(self._column_ref())
        self._expect_keyword("ORDER")
        self._expect_keyword("BY")
        order_by = self._column_ref()
        rows_preceding: Optional[int] = None
        if self._accept_word("ROWS"):
            self._expect_keyword("BETWEEN")
            if self._accept_word("UNBOUNDED"):
                self._expect_word("PRECEDING")
            else:
                count_token = self._advance()
                if count_token.type is not TokenType.NUMBER:
                    raise self._error("expected a row count", count_token)
                rows_preceding = int(count_token.value)
                self._expect_word("PRECEDING")
            self._expect_keyword("AND")
            self._expect_word("CURRENT")
            self._expect_word("ROW")
        self._expect_op(")")
        return ast.OverCall(
            call, tuple(partition_by), order_by, rows_preceding, pos=pos
        )

    # -- MATCH_RECOGNIZE -----------------------------------------------------

    def _at_word(self, word: str) -> bool:
        """Soft keyword: match an IDENT or KEYWORD by its text."""
        token = self._tokens[self._i]
        return (
            token.type in (TokenType.IDENT, TokenType.KEYWORD)
            and token.value.upper() == word
        )

    def _accept_word(self, word: str) -> bool:
        if self._at_word(word):
            self._advance()
            return True
        return False

    def _expect_word(self, word: str) -> None:
        if not self._accept_word(word):
            raise self._error(f"expected {word}, found {self._tokens[self._i]}")

    def _column_ref(self) -> ast.ColumnRef:
        expr = self._ident_expr()
        if not isinstance(expr, ast.ColumnRef):
            raise self._error("expected a column reference")
        return expr

    def _match_recognize(self, input_ref: ast.TableRef) -> ast.MatchRecognize:
        pos = self._expect_keyword("MATCH_RECOGNIZE").pos
        self._expect_op("(")

        partition_by: list[ast.ColumnRef] = []
        if self._accept_word("PARTITION"):
            self._expect_keyword("BY")
            partition_by.append(self._column_ref())
            while self._accept_op(","):
                partition_by.append(self._column_ref())

        self._expect_keyword("ORDER")
        self._expect_keyword("BY")
        order_by = self._column_ref()

        self._expect_word("MEASURES")
        measures: list[tuple[ast.Expr, str]] = []
        while True:
            expr = self._expr()
            self._expect_keyword("AS")
            alias = self._expect_ident("measure name").value
            measures.append((expr, alias))
            if not self._accept_op(","):
                break

        if self._accept_word("ONE"):
            self._expect_word("ROW")
            self._expect_word("PER")
            self._expect_word("MATCH")

        after_match = "PAST LAST ROW"
        if self._accept_keyword("AFTER"):
            self._expect_word("MATCH")
            self._expect_word("SKIP")
            if self._accept_word("PAST"):
                self._expect_word("LAST")
                self._expect_word("ROW")
            else:
                self._expect_word("TO")
                self._expect_word("NEXT")
                self._expect_word("ROW")
                after_match = "TO NEXT ROW"

        self._expect_word("PATTERN")
        self._expect_op("(")
        pattern: list[ast.PatternElement] = []
        while not self._at_op(")"):
            symbol = self._expect_ident("pattern symbol")
            quantifier = ""
            if self._at_op("?", "*", "+"):
                quantifier = self._advance().value
            pattern.append(
                ast.PatternElement(symbol.value, quantifier, pos=symbol.pos)
            )
        self._expect_op(")")
        if not pattern:
            raise self._error("PATTERN must contain at least one symbol")

        self._expect_word("DEFINE")
        defines: list[tuple[str, ast.Expr]] = []
        while True:
            symbol = self._expect_ident("pattern symbol").value
            self._expect_keyword("AS")
            defines.append((symbol, self._expr()))
            if not self._accept_op(","):
                break

        self._expect_op(")")
        alias = self._alias()
        return ast.MatchRecognize(
            input=input_ref,
            partition_by=tuple(partition_by),
            order_by=order_by,
            measures=tuple(measures),
            pattern=tuple(pattern),
            defines=tuple(defines),
            after_match=after_match,
            alias=alias,
            pos=pos,
        )

    # -- EMIT clause --------------------------------------------------------

    def _emit_clause(self) -> Optional[EmitSpec]:
        if not self._accept_keyword("EMIT"):
            return None
        stream = self._accept_keyword("STREAM")
        after_watermark = False
        delay: Optional[int] = None
        saw_after = False
        while self._accept_keyword("AFTER"):
            saw_after = True
            if self._accept_keyword("WATERMARK"):
                after_watermark = True
            elif self._accept_keyword("DELAY"):
                if not self._at_keyword("INTERVAL"):
                    raise self._error("AFTER DELAY expects an INTERVAL literal")
                delay = self._interval_literal().millis
            else:
                raise self._error("expected WATERMARK or DELAY after AFTER")
            if not self._accept_keyword("AND"):
                break
        if not stream and not saw_after:
            raise self._error("EMIT requires STREAM and/or AFTER clauses")
        return EmitSpec(stream=stream, after_watermark=after_watermark, delay=delay)

    # -- expressions ----------------------------------------------------------
    #
    # Precedence climbing over the levels of the module docstring:
    # ``_expr(floor)`` parses an expression whose binary operators all
    # bind at least as tightly as ``floor``.  ``ceiling`` caps the level
    # of the next operator this frame may take: it drops to 3 after a
    # comparison-level construct (they do not chain: ``a = b = c`` leaves
    # ``= c`` to the caller) and to 2 after a prefix NOT (whose operand
    # already took every tighter operator).  A lone operand costs one
    # ``_expr`` frame and its primary.

    def _expr(self, floor: int = _OR) -> ast.Expr:
        tokens = self._tokens
        token = tokens[self._i]
        ceiling = _MUL
        if token.keyword == "NOT" and floor <= _NOT:
            self._i += 1
            left: ast.Expr = ast.UnaryOp("NOT", self._expr(_NOT), pos=token.pos)
            ceiling = _AND
        elif token.type is TokenType.OP and token.value in ("-", "+"):
            self._i += 1
            left = self._expr(_UNARY)  # takes no binary operator
            if token.value == "-":
                left = ast.UnaryOp("-", left, pos=token.pos)
        else:
            left = self._primary()
        while True:
            token = tokens[self._i]
            if token.type is TokenType.OP:
                level = _OP_LEVELS.get(token.value)
            else:
                level = _KEYWORD_LEVELS.get(token.keyword)
            if level is None or not floor <= level <= ceiling:
                return left
            if level == _COMPARE:
                negated = token.keyword == "NOT"
                if negated:
                    if tokens[self._i + 1].keyword not in ("IN", "BETWEEN", "LIKE"):
                        return left
                    self._i += 1
                left = self._comparison(left, negated)
                ceiling = _NOT
                continue
            self._i += 1
            pos = token.pos
            if level == _MUL:
                op = "%" if token.keyword == "MOD" else token.value
                left = ast.BinaryOp(op, left, self._expr(_UNARY), pos=pos)
            elif level == _ADD:
                left = ast.BinaryOp(token.value, left, self._expr(_MUL), pos=pos)
            else:  # AND, OR: the right operand is one level tighter
                right = self._expr(level + 1)
                left = ast.BinaryOp(token.keyword, left, right, pos=pos)
            ceiling = level

    def _comparison(self, left: ast.Expr, negated: bool) -> ast.Expr:
        """The one comparison-level construct after ``left`` (a leading
        NOT of NOT IN/BETWEEN/LIKE already taken as ``negated``)."""
        token = self._advance()
        pos = token.pos
        if token.type is TokenType.OP:
            op = "<>" if token.value == "!=" else token.value
            return ast.BinaryOp(op, left, self._expr(_ADD), pos=pos)
        keyword = token.keyword
        if keyword == "IS":
            is_not = self._accept_keyword("NOT")
            self._expect_keyword("NULL")
            return ast.IsNull(left, is_not, pos=pos)
        if keyword == "BETWEEN":
            low = self._expr(_ADD)
            self._expect_keyword("AND")
            high = self._expr(_ADD)
            return ast.Between(left, low, high, negated, pos=pos)
        if keyword == "IN":
            self._expect_op("(")
            if self._at_keyword("SELECT"):
                query = self._select()
                self._expect_op(")")
                return ast.InSubquery(left, query, negated, pos=pos)
            items = [self._expr()]
            while self._accept_op(","):
                items.append(self._expr())
            self._expect_op(")")
            return ast.InList(left, tuple(items), negated, pos=pos)
        # LIKE
        expr: ast.Expr = ast.BinaryOp("LIKE", left, self._expr(_ADD), pos=pos)
        if negated:
            expr = ast.UnaryOp("NOT", expr, pos=pos)
        return expr

    def _primary(self) -> ast.Expr:
        token = self._tokens[self._i]
        pos = token.pos
        kind = token.type
        if kind is TokenType.IDENT:
            return self._ident_expr()
        if kind is TokenType.NUMBER:
            self._i += 1
            text = token.value
            value = float(text) if ("." in text or "e" in text or "E" in text) else int(text)
            return ast.Literal(value, pos=pos)
        if kind is TokenType.STRING:
            self._i += 1
            return ast.Literal(token.value, pos=pos)
        if kind is TokenType.OP:
            if token.value != "(":
                raise self._error(f"unexpected {token} in expression")
            self._i += 1
            if self._at_keyword("SELECT"):
                query = self._select()
                self._expect_op(")")
                return ast.ScalarSubquery(query, pos=pos)
            expr = self._expr()
            self._expect_op(")")
            return expr
        keyword = token.keyword
        if keyword in _LITERAL_KEYWORDS:
            self._i += 1
            return ast.Literal(_LITERAL_KEYWORDS[keyword], pos=pos)
        if keyword == "INTERVAL":
            return self._interval_literal()
        if keyword == "CASE":
            return self._case_expr()
        if keyword not in ("CAST", "EXISTS", "TABLE", "DESCRIPTOR"):
            raise self._error(f"unexpected {token} in expression")
        # KEYWORD ( ... )
        self._i += 1
        self._expect_op("(")
        if keyword == "CAST":
            operand = self._expr()
            self._expect_keyword("AS")
            expr = ast.Cast(operand, self._advance().value.upper(), pos=pos)
        elif keyword == "EXISTS":
            expr = ast.Exists(self._select(), pos=pos)
        elif keyword == "TABLE":
            expr = ast.TableArg(self._expect_ident("table name").value, pos=pos)
        else:
            expr = ast.Descriptor(self._expect_ident("column name").value, pos=pos)
        self._expect_op(")")
        return expr

    def _ident_expr(self) -> ast.Expr:
        tokens = self._tokens
        token = self._advance()
        pos = token.pos
        follower = tokens[self._i]
        opens = follower.type is TokenType.OP and follower.value == "("
        name = token.value.upper()
        if not opens and name in ("CURRENT_TIME", "CURRENT_TIMESTAMP"):
            return ast.CurrentTime(pos=pos)
        # function call?
        if opens and token.type is TokenType.IDENT:
            self._i += 1
            distinct = self._accept_keyword("DISTINCT")
            if self._accept_op("*"):
                self._expect_op(")")
                call = ast.FunctionCall(name, (), is_star=True, pos=pos)
            else:
                args: list[ast.Expr] = []
                if not self._at_op(")"):
                    args.append(self._expr())
                    while self._accept_op(","):
                        args.append(self._expr())
                self._expect_op(")")
                call = ast.FunctionCall(name, tuple(args), distinct=distinct, pos=pos)
            if self._at_keyword("OVER"):
                return self._over_clause(call)
            return call
        # qualified column reference
        parts = [token.value]
        while True:
            dot = tokens[self._i]
            if not (dot.type is TokenType.OP and dot.value == "."):
                break
            part = tokens[self._i + 1]
            if part.type is not TokenType.IDENT:
                break
            self._i += 2
            parts.append(part.value)
        return ast.ColumnRef(tuple(parts), pos=pos)

    def _interval_literal(self) -> ast.IntervalLiteral:
        pos = self._expect_keyword("INTERVAL").pos
        token = self._advance()
        if token.type is TokenType.STRING:
            text = token.value
        elif token.type is TokenType.NUMBER:
            text = token.value
        else:
            raise self._error("INTERVAL expects a quoted or numeric value", token)
        try:
            amount = float(text)
        except ValueError:
            raise self._error(f"bad INTERVAL value {text!r}", token) from None
        unit_token = self._advance()
        unit = unit_token.value.upper()
        if unit not in _INTERVAL_UNITS:
            raise self._error(f"unknown INTERVAL unit {unit_token.value!r}", unit_token)
        total = int(amount * _INTERVAL_UNITS[unit])
        return ast.IntervalLiteral(total, text=f"INTERVAL '{text}' {unit}", pos=pos)

    def _case_expr(self) -> ast.Case:
        pos = self._expect_keyword("CASE").pos
        whens: list[tuple[ast.Expr, ast.Expr]] = []
        base: Optional[ast.Expr] = None
        if not self._at_keyword("WHEN"):
            base = self._expr()  # simple CASE: CASE x WHEN v THEN ...
        while self._accept_keyword("WHEN"):
            cond = self._expr()
            if base is not None:
                cond = ast.BinaryOp("=", base, cond, pos=pos)
            self._expect_keyword("THEN")
            whens.append((cond, self._expr()))
        if not whens:
            raise self._error("CASE requires at least one WHEN")
        else_ = self._expr() if self._accept_keyword("ELSE") else None
        self._expect_keyword("END")
        return ast.Case(tuple(whens), else_, pos=pos)


def _with_emit(select: ast.Select, emit: Optional[EmitSpec]) -> ast.Select:
    return ast.Select(
        items=select.items,
        from_items=select.from_items,
        where=select.where,
        group_by=select.group_by,
        having=select.having,
        order_by=select.order_by,
        limit=select.limit,
        distinct=select.distinct,
        emit=emit,
        pos=select.pos,
    )

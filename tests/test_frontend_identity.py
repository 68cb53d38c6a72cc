"""The SQL front end's output is pinned, byte for byte.

Two referees hold the lexer, parser, planner and optimizer to what they
produced before the front end was rewritten to cost per token and per
node:

* ``reference_tokenize`` below is a verbatim copy of the character-loop
  tokenizer; hypothesis draws SQL-like strings (keywords in any case,
  identifiers, odd numbers, string escapes, quoted identifiers,
  comments, every operator, stray characters) and the token lists —
  ``(type, value, pos)`` — and any ``LexError`` message and position
  must be identical;
* ``fixtures/frontend_golden.json`` (written on the parent commit by
  ``fixtures/make_frontend_golden.py``) holds, for the SQL of the
  paper-listing, parser, planner and CQL tests, the NEXMark queries and
  the suite workloads: the tokens, the AST ``repr``, the EXPLAIN texts
  and plan fingerprints (or the error), plus the ``ParseError`` message
  and position of every token-boundary prefix and one-token deletion of
  a few base statements, and the parse of a list of expressions.
"""

from __future__ import annotations

import importlib.util
import json
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import LexError
from repro.sql.lexer import KEYWORDS, TokenType, tokenize

HERE = os.path.dirname(os.path.abspath(__file__))


def _maker():
    path = os.path.join(HERE, "fixtures", "make_frontend_golden.py")
    spec = importlib.util.spec_from_file_location("make_frontend_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


maker = _maker()
with open(maker.GOLDEN) as _fh:
    GOLDEN = json.load(_fh)


# -- the character-loop tokenizer, as it was --------------------------------

_SIMPLE_OPS = {
    "(", ")", ",", ".", ";", "+", "-", "*", "/", "%", "=", "?", "[", "]",
}
_WORD_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$"
)
_WORD_CONT = _WORD_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")


def reference_tokenize(sql: str) -> list[tuple[TokenType, str, int]]:
    tokens = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "-" and sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if ch == "/" and sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            if end == -1:
                raise LexError("unterminated block comment", sql, i)
            i = end + 2
            continue
        if ch in _WORD_START:
            start = i
            while i < n and sql[i] in _WORD_CONT:
                i += 1
            word = sql[start:i]
            kind = TokenType.KEYWORD if word.upper() in KEYWORDS else TokenType.IDENT
            tokens.append((kind, word, start))
            continue
        if ch in _DIGITS or (ch == "." and i + 1 < n and sql[i + 1] in _DIGITS):
            start = i
            seen_dot = False
            seen_exp = False
            while i < n:
                c = sql[i]
                if c in _DIGITS:
                    i += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    i += 1
                elif c in "eE" and not seen_exp and i + 1 < n and (
                    sql[i + 1] in _DIGITS
                    or (sql[i + 1] in "+-" and i + 2 < n and sql[i + 2] in _DIGITS)
                ):
                    seen_exp = True
                    i += 2 if sql[i + 1] in "+-" else 1
                else:
                    break
            tokens.append((TokenType.NUMBER, sql[start:i], start))
            continue
        if ch == "'":
            start = i
            i += 1
            parts: list[str] = []
            while True:
                if i >= n:
                    raise LexError("unterminated string literal", sql, start)
                if sql[i] == "'":
                    if i + 1 < n and sql[i + 1] == "'":  # escaped quote
                        parts.append("'")
                        i += 2
                        continue
                    i += 1
                    break
                parts.append(sql[i])
                i += 1
            tokens.append((TokenType.STRING, "".join(parts), start))
            continue
        if ch == '"':
            start = i
            end = sql.find('"', i + 1)
            if end == -1:
                raise LexError("unterminated quoted identifier", sql, start)
            tokens.append((TokenType.IDENT, sql[i + 1 : end], start))
            i = end + 1
            continue
        for op in ("=>", "<>", "!=", "<=", ">=", "||"):
            if sql.startswith(op, i):
                tokens.append((TokenType.OP, op, i))
                i += len(op)
                break
        else:
            if ch in _SIMPLE_OPS or ch in "<>":
                tokens.append((TokenType.OP, ch, i))
                i += 1
            else:
                raise LexError(f"unexpected character {ch!r}", sql, i)
    tokens.append((TokenType.EOF, "", n))
    return tokens


def lexed(tokenizer, sql: str):
    try:
        tokens = tokenizer(sql)
    except LexError as exc:
        return ("LexError", exc.message, exc.pos, str(exc))
    if tokenizer is reference_tokenize:
        return tokens
    return [(t.type, t.value, t.pos) for t in tokens]


# -- the lexer against its referee -------------------------------------------

_words = st.one_of(
    st.sampled_from(sorted(KEYWORDS)).flatmap(
        lambda w: st.sampled_from([w, w.lower(), w.title(), w[:1].lower() + w[1:]])
    ),
    st.from_regex(r"[A-Za-z_$][A-Za-z0-9_$]{0,6}", fullmatch=True),
)
_numbers = st.one_of(
    st.sampled_from(["1.2.3", ".5", "1e", "2.5E-3", "1e+", "1e+5", "7.", "0.e1",
                     "1.e-", "3E", "12", "1..2", ".e5", "5e5e5", "1.2e3.4"]),
    st.from_regex(r"[0-9]{0,3}\.?[0-9]{0,3}([eE][+-]?[0-9]{0,2})?", fullmatch=True),
)
_strings = st.one_of(
    st.sampled_from(["''", "''''", "'it''s'", "'a''", "'", "'x'''"]),
    st.from_regex(r"'([^']|''){0,5}'?", fullmatch=True),
)
_quoted = st.from_regex(r'"[^"]{0,5}"?', fullmatch=True)
_comments = st.one_of(
    st.sampled_from(["--", "-- c\n", "--x", "/**/", "/*", "/* a\n*/", "/*/",
                     "*/", "/* * /", "-", "/"]),
    st.from_regex(r"--[^\n]{0,5}\n?", fullmatch=True),
    st.from_regex(r"/\*[^*]{0,5}(\*/)?", fullmatch=True),
)
_ops = st.sampled_from(
    ["=>", "<>", "!=", "<=", ">=", "||", "(", ")", ",", ".", ";", "+", "-",
     "*", "/", "%", "=", "?", "[", "]", "<", ">", "!", "|", "=>>", "<=>"]
)
_stray = st.sampled_from(["@", "#", "&", "~", "^", "`", "{", "}", "\\", ":",
                          "é", "٣", "\x00", " ", "\f", "\v"])
_gaps = st.sampled_from(["", " ", "  ", "\t", "\n", "\r\n"])
_pieces = st.one_of(_words, _numbers, _strings, _quoted, _comments, _ops,
                    _stray, _gaps)


@settings(max_examples=1500, deadline=None)
@given(st.lists(st.tuples(_pieces, _gaps), max_size=14))
def test_the_lexer_matches_the_character_loop(pieces):
    sql = "".join(piece + gap for piece, gap in pieces)
    assert lexed(tokenize, sql) == lexed(reference_tokenize, sql)


@settings(max_examples=500, deadline=None)
@given(st.text(max_size=40))
def test_the_lexer_matches_the_character_loop_on_any_text(sql):
    assert lexed(tokenize, sql) == lexed(reference_tokenize, sql)


@pytest.mark.parametrize("head", ["", "select a", "x -- c\n"])
@pytest.mark.parametrize("bad", ["!", "'abc", '"abc', "/* x", "@ y"])
def test_a_lex_error_costs_linear_time_in_the_text_before_it(head, bad):
    # searching for the next token instead of matching at it retries
    # every later start and backtracks through the whitespace run
    # there: quadratic in the run, minutes for a 64 KiB request line
    sql = head + " " * 60_000 + bad
    start = time.perf_counter()
    with pytest.raises(LexError) as caught:
        tokenize(sql)
    elapsed = time.perf_counter() - start
    assert caught.value.pos == len(head) + 60_000
    assert lexed(tokenize, sql) == lexed(reference_tokenize, sql)
    assert elapsed < 1.0, f"{elapsed:.2f} s to reject {len(sql)} characters"


def test_the_table_walk_reads_every_field_but_pos():
    # the admission ACL check rests on this walk: a node in any field,
    # even one typed ``Any``, must not hide its tables from it
    from repro.plan.planner import referenced_tables
    from repro.sql import ast
    from repro.sql.parser import parse

    inner = parse("SELECT a FROM hidden WHERE b IN (SELECT c FROM deeper)")
    assert referenced_tables(ast.Literal(inner)) == {"hidden", "deeper"}


def test_every_token_carries_its_keyword_once():
    for token in tokenize("select Max(x) FROM t where y IS not null"):
        expected = token.value.upper() if token.type is TokenType.KEYWORD else None
        assert token.keyword == expected
        assert token.is_keyword(token.value.upper()) == (expected is not None)


# -- the golden ---------------------------------------------------------------

STATEMENTS = GOLDEN["statements"]


@pytest.fixture(scope="module")
def engines():
    return maker.engines()


@pytest.mark.parametrize("index", range(len(STATEMENTS)))
def test_tokens_and_ast_match_the_golden(index):
    entry = STATEMENTS[index]
    sql = entry["sql"]
    assert maker.tokens_of(sql) == entry["tokens"]
    assert maker.outcome(lambda: repr(maker.parse(sql))) == entry["ast"]
    assert maker.outcome(lambda: repr(maker.parse_expression(sql))) == entry["expression"]


def test_plans_match_the_golden(engines):
    for entry in STATEMENTS:
        if "plan" in entry:
            got = maker.record(entry["catalog"], entry["sql"], engines[entry["catalog"]])
            assert got["plan"] == entry["plan"], entry["sql"]


@pytest.mark.parametrize("base", GOLDEN["mutated"], ids=lambda m: m["sql"][:40])
def test_malformed_statements_fail_where_they_did(base):
    sqls = maker.mutants(base["sql"], base["positions"])
    got = [maker.parse_outcome(sql) for sql in sqls]
    expected = [o if isinstance(o, str) else tuple(o) for o in base["outcomes"]]
    assert [o if isinstance(o, str) else tuple(o) for o in got] == expected


@pytest.mark.parametrize("entry", GOLDEN["expressions"], ids=lambda e: e["sql"])
def test_expressions_parse_as_they_did(entry):
    sql = entry["sql"]
    assert maker.outcome(lambda: repr(maker.parse_expression(sql))) == entry["expression"]


def test_the_golden_covers_the_corpus():
    """Every statement the maker collects today is in the golden (a new
    test string joins the corpus only when the golden is re-recorded on
    the same code)."""
    recorded = {(e["catalog"], e["sql"]) for e in STATEMENTS}
    assert len(recorded) >= 150
    assert {("suite", sql) for _, sql in maker.corpus() if _ == "suite"} <= recorded


class TestAstNodes:
    """The AST nodes keep the frozen-dataclass behaviour the golden's
    ``repr`` and the planner rely on, written once on ``ast.Node``."""

    def test_equality_ignores_the_position(self):
        from repro.sql import ast

        assert ast.ColumnRef(("Bid", "price"), pos=3) == ast.ColumnRef(
            ("Bid", "price"), pos=40
        )
        assert ast.Literal(1) != ast.Literal(2)
        assert ast.TableRef("Bid") != ast.TableArg("Bid")

    def test_equal_nodes_hash_equal(self):
        from repro.sql import ast

        one = ast.BinaryOp("+", ast.Literal(1, pos=0), ast.ColumnRef(("v",)), pos=2)
        other = ast.BinaryOp("+", ast.Literal(1, pos=7), ast.ColumnRef(("v",)), pos=9)
        assert one == other and hash(one) == hash(other)
        assert ast.CurrentTime(pos=1) == ast.CurrentTime(pos=5)
        assert hash(ast.CurrentTime(pos=1)) == hash(ast.CurrentTime(pos=5))

    def test_assignment_and_deletion_raise(self):
        from dataclasses import FrozenInstanceError

        from repro.sql import ast

        node = ast.Literal(1)
        with pytest.raises(FrozenInstanceError):
            node.value = 2
        with pytest.raises(FrozenInstanceError):
            node.pos = 2
        with pytest.raises(FrozenInstanceError):
            del node.value
        assert node.value == 1

    def test_a_nan_literal_equals_itself(self):
        from repro.sql import ast

        nan = ast.Literal(float("nan"))
        assert nan == nan
        assert ast.Literal(float("nan")) != ast.Literal(float("nan"))

    def test_match_args_are_the_fields(self):
        from repro.sql import ast

        assert ast.Select.__match_args__ == (
            "items", "from_items", "where", "group_by", "having",
            "order_by", "limit", "distinct", "emit",
        )
        assert ast.CurrentTime.__match_args__ == ()
        match ast.BinaryOp("=", ast.Literal(1), ast.Literal(2)):
            case ast.BinaryOp(op, ast.Literal(left), _):
                assert (op, left) == ("=", 1)

    def test_keyword_and_default_construction(self):
        from repro.sql import ast

        select = ast.Select(items=(), where=ast.Literal(True), pos=4)
        assert (select.from_items, select.limit, select.emit) == ((), None, None)
        assert select.pos == 4 and ast.Star().pos == -1
        assert repr(ast.TableRef("Bid", "b", pos=7)) == (
            "TableRef(pos=7, name='Bid', alias='b')"
        )
        with pytest.raises(TypeError):
            ast.TableRef()
        with pytest.raises(TypeError):
            ast.Literal(1, 7)  # ``pos`` is keyword-only

    def test_pickle_round_trips(self):
        import pickle

        from repro.sql.parser import parse

        statement = parse(
            "SELECT item, COUNT(*) FROM Bid WHERE price > 2 GROUP BY item"
        )
        restored = pickle.loads(pickle.dumps(statement))
        assert restored == statement and repr(restored) == repr(statement)

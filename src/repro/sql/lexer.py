"""SQL tokenizer.

Produces a flat list of :class:`Token` for the parser, one compiled
pattern match per token.  The dialect is
standard SQL plus the paper's extensions, which need three lexical
additions over a textbook SQL lexer: the named-argument arrow ``=>``
(used by the windowing table-valued functions), and the ``EMIT`` family
of keywords.  Keywords are recognized case-insensitively; identifiers
keep their original spelling (matching is case-insensitive throughout
the engine).
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple, Optional

from ..core.errors import LexError

__all__ = ["TokenType", "Token", "tokenize", "KEYWORDS"]


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "identifier"
    NUMBER = "number"
    STRING = "string"
    OP = "operator"
    EOF = "eof"


#: Reserved words of the dialect.  Words not in this set lex as
#: identifiers even when they appear in SQL:2016 (we reserve only what
#: the grammar needs, so NEXMark column names like ``category`` work).
KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
        "ASC", "DESC", "LIMIT", "AS", "AND", "OR", "NOT",
        "IN", "IS", "NULL", "TRUE", "FALSE", "BETWEEN", "LIKE", "CASE",
        "WHEN", "THEN", "ELSE", "END", "CAST", "JOIN", "INNER", "LEFT",
        "RIGHT", "FULL", "OUTER", "CROSS", "ON", "UNION", "ALL",
        "DISTINCT", "INTERVAL", "TABLE", "DESCRIPTOR", "EMIT", "STREAM",
        "INTERSECT", "EXCEPT",
        "AFTER", "WATERMARK", "DELAY", "EXISTS", "VALUES", "MOD",
        "FOR", "SYSTEM_TIME", "OF", "MATCH_RECOGNIZE", "OVER",
    }
)

#: One pattern per token: the whitespace before it, then a word, a
#: number, an operator, a string literal, a quoted identifier, or a
#: comment or the end of the text (``skip``: no token).  An
#: unterminated comment, string or quoted identifier and a stray
#: character match nothing, and :func:`tokenize` reports them where
#: they start.
_MASTER = re.compile(
    r"""
    [ \t\r\n]*
    (?:
      (?P<word> [A-Za-z_$][A-Za-z0-9_$]* )
    | (?P<number> (?: [0-9]+ \.? [0-9]* | \.[0-9]+ ) (?: [eE][+-]?[0-9]+ )? )
    | (?P<op> => | <> | != | <= | >= | \|\| | /(?!\*) | -(?!-) | [(),.;+*%=?\[\]<>] )
    | (?P<string> '(?: [^'] | '' )*'(?!') )
    | (?P<quoted> "[^"]*" )
    | (?P<skip> --[^\n]*\n? | /\*.*?\*/ | \Z )
    )
    """,
    re.VERBOSE | re.DOTALL,
)
_SPACE = re.compile(r"[ \t\r\n]*")
_PLAIN = {"op": TokenType.OP, "number": TokenType.NUMBER}

_UNTERMINATED = {
    "/": "unterminated block comment",
    "'": "unterminated string literal",
    '"': "unterminated quoted identifier",
}


class Token(NamedTuple):
    """One lexical token with its position in the source text.

    ``keyword`` is the upper-cased word of a ``KEYWORD`` token and
    ``None`` for every other token, so a keyword test is one membership
    test of a field.
    """

    type: TokenType
    value: str
    pos: int
    keyword: Optional[str] = None

    @property
    def upper(self) -> str:
        return self.value.upper()

    def is_keyword(self, *words: str) -> bool:
        return self.keyword in words

    def __str__(self) -> str:
        if self.type is TokenType.EOF:
            return "end of input"
        return repr(self.value)


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql``, raising :class:`LexError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # Token(...) without its Python-level __new__
    # an anchored match per token: a search would retry every later
    # start and backtrack through each whitespace run it finds there
    match = _MASTER.match
    n = len(sql)
    end = 0
    while True:
        m = match(sql, end)
        if m is None:
            break  # nothing matches at ``end``
        end = m.end()
        kind = m.lastgroup
        if kind == "skip":
            if end == n:
                break  # the end of the text, or a comment that reaches it
            continue
        text = m.group(kind)
        pos = m.start(kind)
        if kind == "word":
            upper = text.upper()
            if upper in KEYWORDS:
                append(new(Token, (TokenType.KEYWORD, text, pos, upper)))
            else:
                append(new(Token, (TokenType.IDENT, text, pos, None)))
        elif kind in _PLAIN:  # op, number
            append(new(Token, (_PLAIN[kind], text, pos, None)))
        elif kind == "string":
            value = text[1:-1].replace("''", "'")
            append(new(Token, (TokenType.STRING, value, pos, None)))
        else:  # quoted
            append(new(Token, (TokenType.IDENT, text[1:-1], pos, None)))
    if end != n:
        i = _SPACE.match(sql, end).end()
        ch = sql[i]
        if ch in _UNTERMINATED and (ch != "/" or sql.startswith("/*", i)):
            raise LexError(_UNTERMINATED[ch], sql, i)
        raise LexError(f"unexpected character {ch!r}", sql, i)
    append(Token(TokenType.EOF, "", n))
    return tokens

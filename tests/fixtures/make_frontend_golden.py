"""How ``frontend_golden.json`` in this directory was written.

The golden records what the SQL front end makes of a fixed corpus, so a
rewrite of the lexer, parser, planner or optimizer can be held to
byte-identical output.  It was written **with the parent commit of the
front-end rewrite on the path** (06018d9), from the repository root::

    PYTHONPATH=<checkout>/src python tests/fixtures/make_frontend_golden.py

The corpus (:func:`corpus`) is every string constant naming a ``SELECT``
in the paper-listing, parser, planner and CQL tests, the NEXMark
queries, and the five suite workloads' standing queries and late
joiners; each is planned against the catalog its tests use (the paper's
Bid stream, NEXMark streamed and recorded, the suite's Bid/Auction).
For each statement the golden holds the token list, the AST ``repr``
(or the error), and for a statement that plans, the EXPLAIN text
(logical, verbose logical, physical) and the plan fingerprint.

:func:`mutants` adds malformed statements: every token-boundary prefix
and every one-token deletion of a few base statements, whose
``ParseError`` message and position are recorded; ``EXPRESSIONS`` adds
expressions, each parsed alone.
"""

from __future__ import annotations

import ast as pyast
import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
GOLDEN = os.path.join(HERE, "frontend_golden.json")
sys.path.insert(0, os.path.join(ROOT, "benchmarks", "suite"))

from repro import StreamEngine  # noqa: E402
from repro.core.errors import ReproError, SqlError  # noqa: E402
from repro.nexmark import NexmarkConfig, generate, paper_bid_stream  # noqa: E402
from repro.nexmark import queries as nexmark  # noqa: E402
from repro.plan.fingerprint import plan_fingerprint  # noqa: E402
from repro.sql.lexer import tokenize  # noqa: E402
from repro.sql.parser import parse, parse_expression  # noqa: E402

#: test files whose SELECT strings join the corpus, with their catalog
TEST_FILES = {
    "test_paper_listings.py": "paper",
    "test_parser.py": "paper",
    "test_planner.py": "paper",
    "test_cql.py": "paper",
    "test_cql_parser.py": "paper",
}

#: statements whose prefixes and one-token deletions are recorded
MUTATED = [
    nexmark.q7_paper("EMIT STREAM AFTER DELAY INTERVAL '6' MINUTES"),
    nexmark.Q3_LOCAL_ITEM_SUGGESTION,
    nexmark.q5_hot_items(),
    "SELECT a, -b * 2 + c % 3 MOD 4 || 'x' AS s FROM T WHERE NOT a = 1 AND "
    "b BETWEEN 1 AND 2 OR c NOT IN (1, 2) AND d IS NOT NULL OR e NOT LIKE "
    "'a%' AND f IN (SELECT g FROM U) GROUP BY a HAVING COUNT(*) > 1 "
    "ORDER BY a DESC LIMIT 5",
    "SELECT CASE WHEN a > 1 THEN 'x' ELSE 'y' END, CASE a WHEN 1 THEN 2 END, "
    "CAST(a AS DOUBLE), EXISTS (SELECT 1 FROM T), (SELECT MAX(a) FROM T), "
    "T.x.y, CURRENT_TIME, f(DISTINCT a), COUNT(*) OVER (PARTITION BY a "
    "ORDER BY ts ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) FROM T "
    "LEFT OUTER JOIN U ON T.a = U.a JOIN R FOR SYSTEM_TIME AS OF T.ts r "
    "ON T.b = r.b, (VALUES (1, 'a'), (2, 'b')) v EMIT STREAM",
    "SELECT * FROM T MATCH_RECOGNIZE (PARTITION BY k ORDER BY ts MEASURES "
    "FIRST(A.ts) AS s, LAST(B.v) AS e ONE ROW PER MATCH AFTER MATCH SKIP "
    "TO NEXT ROW PATTERN (A B+ C? D*) DEFINE A AS A.v > 1, B AS B.v < 2) m "
    "UNION ALL (SELECT 1 FROM U) EXCEPT SELECT 2 FROM V EMIT AFTER WATERMARK",
]

#: expressions whose parse (or error) is recorded: precedence, the
#: non-associative comparison level, prefix NOT and minus, and what is
#: left to the caller when an operator cannot continue
EXPRESSIONS = [
    "1 + 2 * 3 - 4 / 5 % 6 MOD 7 || 8", "a OR b AND c OR NOT d",
    "a = b = c", "NOT a = b = c", "x AND a = b = c", "x OR a < b <= c",
    "a IS NULL + 1", "a IS NOT NULL IS NULL", "a NOT b", "a NOT IS NULL",
    "- - a", "+ + a", "-a * b", "a * -b", "+ NOT a", "a = NOT b",
    "NOT NOT a", "NOT a AND b", "NOT a + b * c", "(a = b) = c",
    "a = (b = c)", "a + b = c + d AND e", "a BETWEEN 1 AND 2 AND 3",
    "a BETWEEN b + 1 AND c * 2 = d", "a NOT IN (1) = 2", "a LIKE b LIKE c",
    "x NOT BETWEEN 1 AND 2 OR y", "NOT a IN (1, 2)", "a NOT LIKE b || c",
    "a IN (SELECT b FROM T) = c", "a IN ()", "a IN (1,)", "a BETWEEN 1",
    "a IS", "a IS NOT", "NOT", "a AND", "a OR OR b", "a MOD", "a = ",
    "CASE a WHEN 1 THEN 2 WHEN 3 THEN 4 ELSE 5 END * 2",
    "CAST(a AS INT) + 1 >= CURRENT_TIME - INTERVAL '1' HOUR",
    "f(a, b)(c)", "T.a.b.c", "T.*", "COUNT(DISTINCT *)", "x.y(1)",
    "EXISTS (SELECT 1 FROM T) AND NOT EXISTS (SELECT 2 FROM U)",
    "1 < 2 < 3", "a != b", "a <> b <> c", "TRUE AND FALSE OR NULL",
]


def _test_strings(path: str) -> list[str]:
    with open(path) as fh:
        tree = pyast.parse(fh.read())
    out = []
    for node in pyast.walk(tree):
        if isinstance(node, pyast.Constant) and isinstance(node.value, str):
            if "select" in node.value.lower() and node.value not in out:
                out.append(node.value)
    return out


def corpus() -> list[tuple[str, str]]:
    """``(catalog, sql)`` pairs, in a fixed order, without repeats."""
    import workloads

    pairs: list[tuple[str, str]] = []
    for name, catalog in TEST_FILES.items():
        for sql in _test_strings(os.path.join(ROOT, "tests", name)):
            pairs.append((catalog, sql))
    listing_emits = ["", "EMIT STREAM", "EMIT AFTER WATERMARK",
                     "EMIT STREAM AFTER WATERMARK",
                     "EMIT STREAM AFTER DELAY INTERVAL '6' MINUTES"]
    for emit in listing_emits:
        pairs.append(("paper", nexmark.q7_paper(emit)))
        pairs.append(("nexmark", nexmark.q7_highest_bid(emit=emit)))
    for sql in (nexmark.Q0_PASSTHROUGH, nexmark.Q1_CURRENCY,
                nexmark.q2_selection(), nexmark.Q3_LOCAL_ITEM_SUGGESTION,
                nexmark.q5_hot_items(), nexmark.q8_monitor_new_users()):
        pairs.append(("nexmark", sql))
    for sql in (nexmark.Q4_AVERAGE_PRICE_FOR_CATEGORY,
                nexmark.Q6_AVERAGE_SELLING_PRICE_BY_SELLER):
        pairs.append(("nexmark_recorded", sql))
    for spec in workloads.SPECS.values():
        for sql in list(spec.queries.values()) + list(spec.late_joiners):
            pairs.append(("suite", sql))
    seen: set = set()
    unique = []
    for pair in pairs:
        if pair not in seen:
            seen.add(pair)
            unique.append(pair)
    return unique


def mutants(sql: str, positions: list[int]) -> list[str]:
    """Every token-boundary prefix of ``sql`` and every one-token
    deletion, in that interleaved order; ``positions`` are its token
    starts (stored in the golden, so the mutants do not depend on the
    lexer under test)."""
    out: list[str] = []
    for k, start in enumerate(positions):
        end = positions[k + 1] if k + 1 < len(positions) else len(sql)
        out.append(sql[:start])
        out.append(sql[:start] + sql[end:])
    return out


def engines() -> dict:
    paper = StreamEngine()
    paper.register_stream("Bid", paper_bid_stream())
    streams = generate(NexmarkConfig(num_events=200, seed=7))
    streamed = StreamEngine()
    streams.register_on(streamed)
    nexmark.register_udfs(streamed)
    recorded = StreamEngine()
    streams.register_recorded_on(recorded)
    nexmark.register_udfs(recorded)
    import gen

    suite = StreamEngine()
    for name, tvr in gen.generate(gen.GenConfig(events=200, seed=42)).items():
        suite.register_stream(name, tvr)
    return {"paper": paper, "nexmark": streamed,
            "nexmark_recorded": recorded, "suite": suite}


def error_of(exc: Exception) -> dict:
    return {
        "error": type(exc).__name__,
        "message": getattr(exc, "message", str(exc)),
        "pos": getattr(exc, "pos", None),
        "text": str(exc),
    }


def parse_outcome(sql: str):
    """The AST's sha256, or the error's class, message and position."""
    try:
        text = repr(parse(sql))
    except SqlError as exc:
        return [type(exc).__name__, exc.message, exc.pos]
    return hashlib.sha256(text.encode()).hexdigest()


def outcome(thunk):
    try:
        return thunk()
    except (SqlError, ReproError) as exc:
        return error_of(exc)


def tokens_of(sql: str):
    return outcome(lambda: [[t.type.value, t.value, t.pos] for t in tokenize(sql)])


def record(catalog: str, sql: str, engine) -> dict:
    entry = {
        "catalog": catalog,
        "sql": sql,
        "tokens": tokens_of(sql),
        "ast": outcome(lambda: repr(parse(sql))),
        "expression": outcome(lambda: repr(parse_expression(sql))),
    }
    if isinstance(entry["ast"], str):

        def planned():
            query = engine.query(sql)
            return {
                "explain": query.explain(),
                "explain_verbose": query.explain(verbose=True),
                "explain_physical": query.explain(mode="physical"),
                "fingerprint": plan_fingerprint(query.plan),
            }

        entry["plan"] = outcome(planned)
    return entry


def build() -> dict:
    by_catalog = engines()
    mutated = []
    for sql in MUTATED:
        positions = [t.pos for t in tokenize(sql)[:-1]]
        mutated.append({
            "sql": sql,
            "positions": positions,
            "outcomes": [parse_outcome(m) for m in mutants(sql, positions)],
        })
    return {
        "statements": [record(c, sql, by_catalog[c]) for c, sql in corpus()],
        "mutated": mutated,
        "expressions": [
            {"sql": sql, "expression": outcome(lambda: repr(parse_expression(sql)))}
            for sql in EXPRESSIONS
        ],
    }


if __name__ == "__main__":
    data = build()
    with open(GOLDEN, "w") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(
        f"wrote {GOLDEN}: {len(data['statements'])} statements, "
        f"{sum(len(m['outcomes']) for m in data['mutated'])} mutants"
    )

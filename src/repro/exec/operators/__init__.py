"""Physical operators over changelogs."""

from ...lazy import lazy_exports

# (an operator's module loads when the first flow needing it is built)
__getattr__ = lazy_exports(__name__, {
    ".aggregate": "AggregateOperator",
    ".base": "Operator",
    ".join": "JoinOperator TimeBound",
    ".match": "MatchRecognizeOperator",
    ".outer_join": "LeftJoinOperator OuterJoinOperator",
    ".over": "OverOperator",
    ".semi_join": "SemiJoinOperator",
    ".session": "SessionOperator",
    ".stateless": "ScanOperator SortOperator UnionOperator",
    ".temporal": "TemporalFilterOperator",
    ".temporal_join": "TemporalJoinOperator",
    ".window": "HopOperator hop_windows",
})

__all__ = [
    "Operator",
    "ScanOperator",
    "UnionOperator",
    "SortOperator",
    "HopOperator",
    "hop_windows",
    "SessionOperator",
    "AggregateOperator",
    "JoinOperator",
    "TimeBound",
    "OuterJoinOperator",
    "LeftJoinOperator",
    "SemiJoinOperator",
    "TemporalFilterOperator",
    "TemporalJoinOperator",
    "MatchRecognizeOperator",
    "OverOperator",
]

"""Query planning: row expressions, logical operators, planner, optimizer.

Import :mod:`repro.plan.planner` / :mod:`repro.plan.optimizer` directly
where needed; this package namespace re-exports the logical algebra and
the physical aggregation planner (:mod:`repro.plan.physical`), which
decides whether a sharded run splits decomposable aggregates into
shard-local partials plus a merge-stage combine.
"""

from . import rex
from .fingerprint import (
    node_fingerprint,
    node_fingerprints,
    plan_fingerprint,
    subtree_size,
)
from .logical import (
    AggCall,
    AggregateNode,
    FilterNode,
    JoinKind,
    JoinNode,
    LogicalNode,
    PartialAggregateNode,
    ProjectNode,
    ScanNode,
    SortNode,
    UnionNode,
    ValuesNode,
    WindowKind,
    WindowNode,
)
from .physical import (
    PhysicalDecision,
    TwoPhaseSplit,
    plan_physical,
    split_eligibility,
)

__all__ = [
    "rex",
    "node_fingerprint",
    "node_fingerprints",
    "plan_fingerprint",
    "subtree_size",
    "LogicalNode",
    "ScanNode",
    "FilterNode",
    "ProjectNode",
    "WindowKind",
    "WindowNode",
    "AggCall",
    "AggregateNode",
    "PartialAggregateNode",
    "JoinKind",
    "JoinNode",
    "UnionNode",
    "SortNode",
    "ValuesNode",
    # physical aggregation planning (provisional surface)
    "PhysicalDecision",
    "TwoPhaseSplit",
    "plan_physical",
    "split_eligibility",
]

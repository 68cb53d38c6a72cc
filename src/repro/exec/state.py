"""State introspection: relating physical state back to the query.

Section 5 of the paper: "we need to consider … how to give the user
feedback about the state being consumed, relating the physical
computation back to their query."  A :class:`StateReport` does exactly
that — a per-operator breakdown of retained rows, late drops, and
expiries, rendered next to the operator names a user can recognize
from ``EXPLAIN``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..obs.metrics import MetricsReport
    from ..runtime.sharded import ShardedDataflow
    from .executor import Dataflow

__all__ = [
    "OperatorState",
    "StateReport",
    "collect_sharded_state",
    "collect_state",
    "state_of_run",
]


@dataclass(frozen=True)
class OperatorState:
    """State snapshot of one physical operator."""

    name: str
    retained_rows: int
    late_dropped: int = 0
    expired_rows: int = 0

    def __str__(self) -> str:
        extras = []
        if self.late_dropped:
            extras.append(f"late_dropped={self.late_dropped}")
        if self.expired_rows:
            extras.append(f"expired={self.expired_rows}")
        suffix = f" ({', '.join(extras)})" if extras else ""
        return f"{self.name}: {self.retained_rows} rows{suffix}"


@dataclass(frozen=True)
class StateReport:
    """State snapshot of a whole dataflow."""

    operators: tuple[OperatorState, ...]

    @property
    def total_rows(self) -> int:
        return sum(op.retained_rows for op in self.operators)

    @property
    def total_late_dropped(self) -> int:
        return sum(op.late_dropped for op in self.operators)

    @property
    def total_expired(self) -> int:
        return sum(op.expired_rows for op in self.operators)

    def __str__(self) -> str:
        lines = [f"total retained rows: {self.total_rows}"]
        lines.extend(f"  {op}" for op in self.operators if op.retained_rows
                     or op.late_dropped or op.expired_rows)
        return "\n".join(lines)


def collect_state(dataflow: "Dataflow") -> StateReport:
    """Snapshot every operator's retained state in plan order.

    The drop/expiry counters live uniformly on the operator base class,
    so the report simply reads them — no per-class ``isinstance``
    allowlist to fall out of date as operators gain counters.
    """
    return StateReport(
        tuple(
            OperatorState(
                name=op.name(),
                retained_rows=op.state_size(),
                late_dropped=op.late_dropped,
                expired_rows=op.expired_rows,
            )
            for op in dataflow.operators
        )
    )


def collect_sharded_state(sharded: "ShardedDataflow") -> StateReport:
    """Snapshot a sharded dataflow: per-operator counters summed over shards.

    Operator names come from each operator class (not the per-shard
    dynamic descriptions, which differ as each shard holds a different
    key subset) and are suffixed with the shard count, so the report
    still reads in plan order.  The operators of each two-phase output's
    combine flow follow, as :func:`collect_state` reports them.
    """
    shard_ops = [shard.operators for shard in sharded.shards]
    states = []
    for ops in zip(*shard_ops):
        states.append(
            OperatorState(
                name=f"{type(ops[0]).__name__} ×{sharded.shard_count} shards",
                retained_rows=sum(op.state_size() for op in ops),
                late_dropped=sum(op.late_dropped for op in ops),
                expired_rows=sum(op.expired_rows for op in ops),
            )
        )
    for combine in sharded.combines.values():
        states.extend(collect_state(combine).operators)
    return StateReport(tuple(states))


def state_of_run(metrics: "MetricsReport") -> StateReport:
    """The state report of a finished run, read off the metrics report
    its result already holds — no second run.  Operators come in plan
    order (inputs first), as :func:`collect_state` and
    :func:`collect_sharded_state` list them, a sharded run's shard
    operators summed and named by class and shard count."""

    def state(entry: dict) -> OperatorState:
        name = entry["operator"]
        if "shards" in entry:  # a merged shard entry
            name = f"{entry['type']} ×{metrics.shard_count} shards"
        return OperatorState(
            name, entry["state_rows"], entry["late_dropped"], entry["expired_rows"]
        )

    # The report is a pre-order with depths: an entry is done once the
    # walk leaves its subtree, and the done entries come out in post-order.
    states, pending = [], []
    for entry in metrics.operators + [{"depth": -1}]:
        while pending and pending[-1]["depth"] >= entry["depth"]:
            states.append(state(pending.pop()))
        pending.append(entry)
    return StateReport(tuple(states))

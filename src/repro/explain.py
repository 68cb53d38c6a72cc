"""One EXPLAIN API over every introspection surface.

Every way of asking "what will (did) this query do" — the engine's
``explain()``, a prepared query's ``explain()``, the shell's
``\\explain`` and ``EXPLAIN ...`` statements — renders through
:func:`render_explain`, parameterized by one ``mode``:

* ``logical`` — the optimized logical plan, plus the runtime note
  (sharded-by or the serial fallback reason) when parallelism is
  configured.
* ``physical`` — ``logical`` plus the physical aggregation shape: the
  merge-stage tree and the per-shard partial tree for a two-phase
  plan, or the single-phase reason; for a sharded plan also the run
  shape — whether a shard is fed its share of each instant's run whole
  (``runs: per instant, sequence-tagged``) or split at sequence gaps,
  and which operator forces that.
* ``costs`` — ``physical`` plus the cost-model inputs: the configured
  knob, the observed fan-in from counter feedback, the combine
  threshold, and the resulting decision.
* ``analyze`` — ``logical`` plus per-operator runtime counters from an
  actual execution.

SQL spellings map onto the same modes: ``EXPLAIN q`` is ``logical``,
``EXPLAIN (PHYSICAL) q`` / ``EXPLAIN (COSTS) q`` select a mode, and
``EXPLAIN ANALYZE q`` is ``analyze`` (:func:`parse_explain`).
"""

from __future__ import annotations

import re
from typing import Optional

from .core.errors import ValidationError
from .obs.lineage import LineageRecorder
from .plan.physical import MIN_COMBINE_FANIN
from .plan.pipeline import PipelineNode
from .runtime.sharded import ShardedDataflow

__all__ = ["EXPLAIN_MODES", "parse_explain", "render_explain"]

EXPLAIN_MODES = ("logical", "physical", "costs", "analyze")

_EXPLAIN_RE = re.compile(
    r"^explain(\s+analyze)?(?:\s*\(\s*([a-z]+)\s*\))?\s+(.+)$",
    re.IGNORECASE | re.DOTALL,
)


def parse_explain(sql: str) -> Optional[tuple[str, str]]:
    """Split an ``EXPLAIN`` statement into ``(mode, inner sql)``.

    Returns ``None`` when ``sql`` is not an EXPLAIN statement at all;
    raises :class:`ValidationError` for an unknown mode or the
    contradictory ``EXPLAIN ANALYZE (mode)`` spelling.
    """
    match = _EXPLAIN_RE.match(sql.strip())
    if match is None:
        return None
    analyze, mode, inner = match.groups()
    if mode is not None:
        mode = mode.lower()
        if mode not in EXPLAIN_MODES:
            raise ValidationError(
                f"unknown EXPLAIN mode {mode!r}; expected one of "
                f"{', '.join(EXPLAIN_MODES)}"
            )
        if analyze and mode != "analyze":
            raise ValidationError(
                "EXPLAIN ANALYZE takes no mode parenthetical; use "
                f"EXPLAIN ({mode.upper()}) instead"
            )
        return mode, inner
    return ("analyze" if analyze else "logical"), inner


def render_explain(query, mode: str = "logical", verbose: bool = False) -> str:
    """Render one explain ``mode`` for a prepared query.

    ``query`` is a :class:`~repro.engine.PreparedQuery`; ``analyze``
    executes it over the registered sources.  ``physical`` and
    ``costs`` build the flow a run would use, unrun and without side
    effects, and read the runtime's decisions off it — the operator
    each plan node became, the run shape, whether batches go columnar —
    so the tree shown is the tree that runs.
    """
    if mode not in EXPLAIN_MODES:
        raise ValidationError(
            f"unknown explain mode {mode!r}; expected one of "
            f"{', '.join(EXPLAIN_MODES)}"
        )
    text = _logical(query, verbose)
    if mode == "analyze":
        result = query.run()
        if result.metrics is not None:
            text = f"{text}\n{result.metrics.render()}"
        return text
    if mode in ("physical", "costs"):
        effective = query._effective()
        flow = query._flow(
            effective,
            query.partition_decision() if effective.parallelism > 1 else None,
        )
        text = f"{text}\n{_physical_section(query, flow, verbose)}"
        text = f"{text}\n{_columnar_section(query, flow)}"
    if mode == "costs":
        text = f"{text}\n{_costs_section(query)}"
    return text


def _logical(query, verbose: bool) -> str:
    """The optimized plan plus the runtime note (the historical text)."""
    text = query.plan.explain(verbose=verbose)
    effective = query._effective()
    if effective.parallelism > 1:
        decision = query.partition_decision()
        if decision.partitionable:
            note = (
                f"Runtime: sharded({effective.parallelism}) by "
                f"{decision.spec.description} [{effective.backend}]"
            )
        else:
            note = f"Runtime: serial — {decision.reason}"
        text = f"{text.rstrip()}\n{note}"
    return text.rstrip()


def _runs_line(flow) -> str:
    """The run shape the sharded ``flow`` feeds its shards, as the flow
    decides it (``ShardedDataflow.run_split_reason``) — and, where a
    standing query's flow gets a lineage recorder, as it decides with
    one installed (this flow is a throwaway)."""
    reason = flow.run_split_reason()
    if reason is not None:
        return f"  runs: split at sequence gaps — {reason}"
    line = "  runs: per instant, sequence-tagged"
    sample = flow.config.lineage_sample
    if sample > 0:
        flow.set_lineage(LineageRecorder(sample))
        line = (
            f"{line}; as a standing query (lineage_sample={sample}) split "
            f"at sequence gaps — {flow.run_split_reason()}"
        )
    return line


def _physical_section(query, flow, verbose: bool) -> str:
    physical = query.physical_decision()
    sharded = isinstance(flow, ShardedDataflow)
    split = flow.splits.get("main") if sharded else None
    if split is None:
        text = f"Physical: single-phase — {physical.reason}"
        if sharded:
            text = f"{text}\n{_runs_line(flow)}"
        return text
    payload = "delta" if split.partial.delta_mode else "replay"
    lines = [
        f"Physical: two-phase aggregation ({payload} payloads) — "
        f"{physical.reason}",
        _runs_line(flow),
        "  merge stage:",
        split.merge_plan.root.explain(2),
        f"  each of {flow.shard_count} shards:",
        split.shard_plan.root.explain(2, verbose).rstrip("\n"),
    ]
    return "\n".join(lines)


def _columnar_section(query, flow) -> str:
    """The columnar execution shape: the fused tree, annotated.

    ``[columnar]`` marks operators that consume column batches;
    ``[fused: ...]`` marks Filter/Project/Tumble chains collapsed into
    one generated pipeline loop, and an aggregate that absorbed a
    column-selecting Project shows its ``in=[...]`` (the input columns
    it reads) and ``out=[...]`` (the columns it emits).  Read off the
    serial flows that compiled the plan — ``flow`` or its first shard,
    and for a two-phase split the combine flow running the merge half
    above the partial half the shards run — one operator per plan node,
    in ``sharing_map``'s post-order.
    """
    effective = query._effective()
    combine = None
    if isinstance(flow, ShardedDataflow):
        sharded, flow = flow, flow.shards[0]
        combine = sharded.combines.get("main")
    if not flow._columnar_active:
        return (
            f"Columnar: off — row-at-a-time batches "
            f"(columnar={effective.columnar}, "
            f"batch_size={effective.batch_size})"
        )
    lines = [
        f"Columnar: on (columnar={effective.columnar}, "
        f"batch_size={effective.batch_size})"
    ]
    if combine is None:
        _annotated_tree(flow, 1, lines)
    else:
        lines.append("  merge stage:")
        _annotated_tree(combine, 2, lines)
        lines.append(f"  each of {sharded.shard_count} shards:")
        _annotated_tree(flow, 2, lines)
    return "\n".join(lines)


def _annotated_tree(flow, depth: int, lines: list[str]) -> None:
    """Append the plan tree ``flow`` compiled for its output ``"main"``,
    each node tagged by the operator it became."""
    root = flow._exec_root(flow.plan)
    operators = flow.operators
    ops = {
        id(node): operators[index]
        for node, index in zip(_post_order(root), flow.sharing_map()["main"])
    }

    def walk(node, depth: int) -> None:
        tags = ""
        if ops[id(node)].supports_columnar:
            tags += " [columnar]"
        if isinstance(node, PipelineNode):
            tags += f" [fused: {node.step_labels()}]"
        lines.append("  " * depth + node._describe() + tags)
        for child in node.inputs:
            walk(child, depth + 1)

    walk(root, depth)


def _post_order(node):
    for child in node.inputs:
        yield from _post_order(child)
    yield node


def _costs_section(query) -> str:
    effective = query._effective()
    physical = query.physical_decision()
    lines = [
        f"Costs: two_phase={effective.two_phase}, "
        f"parallelism={effective.parallelism}"
    ]
    if physical.fan_in is not None:
        lines.append(
            f"  observed fan-in: {physical.fan_in:.2f} rows/group "
            f"(combine threshold {MIN_COMBINE_FANIN:g})"
        )
    else:
        lines.append(
            f"  observed fan-in: no counter feedback yet "
            f"(combine threshold {MIN_COMBINE_FANIN:g}; run the query "
            "once to inform auto mode)"
        )
    lines.append(f"  decision: {physical.mode} — {physical.reason}")
    return "\n".join(lines)

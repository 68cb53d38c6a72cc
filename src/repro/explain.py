"""One EXPLAIN API over every introspection surface.

Every way of asking "what will (did) this query do" — the engine's
``explain()``, a prepared query's ``explain()``, the shell's
``\\explain`` and ``EXPLAIN ...`` statements — renders through
:func:`render_explain`, parameterized by one ``mode``:

* ``logical`` — the optimized logical plan, plus the runtime note
  (sharded-by or the serial fallback reason) when parallelism is
  configured.
* ``physical`` — ``logical`` plus the physical aggregation shape: the
  combine-stage tree and the per-shard partial tree for a two-phase
  plan, or the single-phase reason; for a sharded plan also the run
  shape — whether a shard is fed its share of each instant's run whole
  (``runs: per instant, sequence-tagged``) or split at sequence gaps,
  and which operator forces that.
* ``costs`` — ``physical`` plus the cost-model inputs: the configured
  knob, the observed fan-in from counter feedback, the combine
  threshold, and the resulting decision.
* ``analyze`` — ``logical`` plus per-operator runtime counters from an
  actual execution (the old ``explain_analyze``).

SQL spellings map onto the same modes: ``EXPLAIN q`` is ``logical``,
``EXPLAIN (PHYSICAL) q`` / ``EXPLAIN (COSTS) q`` select a mode, and
``EXPLAIN ANALYZE q`` is ``analyze`` (:func:`parse_explain`).
"""

from __future__ import annotations

import re
from typing import Optional

from .core.errors import ValidationError
from .plan.physical import MIN_COMBINE_FANIN, split_eligibility
from .plan.pipeline import PipelineNode, get_fused_root

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
    executes it over the registered sources, the other modes only plan.
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
        text = f"{text}\n{_physical_section(query, verbose)}"
        text = f"{text}\n{_columnar_section(query)}"
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


def _columnar_active(effective) -> bool:
    return effective.columnar == "on" or (
        effective.columnar == "auto" and effective.batch_size > 1
    )


def _runs_line(effective, shard_plan) -> str:
    """The run shape ``shard_plan`` gets on a shard, decided the way the
    runtime decides it: from the plan
    (:func:`~repro.exec.compile.why_runs_split`, as the shard's flow
    does) and, where a flow gets a lineage recorder, from that
    (``ShardedDataflow.run_split_reason``)."""
    from .exec.compile import (
        LINEAGE_SPLITS_RUNS,
        compile_plan,
        why_runs_split,
    )

    columnar = _columnar_active(effective)
    root = get_fused_root(shard_plan) if columnar else shard_plan.root
    reason = why_runs_split(
        columnar, [compile_plan(root, effective.allowed_lateness).operators]
    )
    if reason is not None:
        return f"  runs: split at sequence gaps — {reason}"
    line = "  runs: per instant, sequence-tagged"
    if effective.lineage_sample > 0:
        # Only a standing query's flow is given a recorder.
        line = (
            f"{line}; as a standing query (lineage_sample="
            f"{effective.lineage_sample}) split at sequence gaps — "
            f"{LINEAGE_SPLITS_RUNS}"
        )
    return line


def _physical_section(query, verbose: bool) -> str:
    physical = query.physical_decision()
    effective = query._effective()
    if not physical.use_two_phase:
        text = f"Physical: single-phase — {physical.reason}"
        if effective.parallelism > 1 and query.partition_decision().partitionable:
            text = f"{text}\n{_runs_line(effective, query.plan)}"
        return text
    split, _ = split_eligibility(query.plan)
    assert split is not None  # use_two_phase implies eligibility
    split.partial.delta_mode = effective.coalesce_updates
    payload = "delta" if effective.coalesce_updates else "replay"
    lines = [
        f"Physical: two-phase aggregation ({payload} payloads) — "
        f"{physical.reason}",
        _runs_line(effective, split.shard_plan),
        "  merge stage:",
    ]
    depth = 2
    for node in split.finish:
        lines.append("  " * depth + node._describe())
        depth += 1
    lines.append("  " * depth + "Combine" + split.aggregate._describe())
    lines.append(f"  each of {effective.parallelism} shards:")
    lines.append(split.shard_plan.root.explain(2, verbose).rstrip("\n"))
    return "\n".join(lines)


def _columnar_section(query) -> str:
    """The columnar execution shape: the fused tree, annotated.

    ``[columnar]`` marks operators that consume column batches;
    ``[fused: ...]`` marks Filter/Project chains collapsed into one
    generated pipeline loop.  Rendered only from the plan — the same
    fusion the executor applies (:func:`get_fused_root`), so the tree
    shown is the tree that runs.
    """
    effective = query._effective()
    if not _columnar_active(effective):
        return (
            f"Columnar: off — row-at-a-time batches "
            f"(columnar={effective.columnar}, "
            f"batch_size={effective.batch_size})"
        )
    from .exec.compile import compile_plan

    root = get_fused_root(query.plan)
    compiled = compile_plan(
        root, allowed_lateness=effective.allowed_lateness
    )
    ops = {id(node): op for node, op in compiled.node_ops}
    lines = [
        f"Columnar: on (columnar={effective.columnar}, "
        f"batch_size={effective.batch_size})"
    ]

    def walk(node, depth: int) -> None:
        tags = ""
        if ops[id(node)].supports_columnar:
            tags += " [columnar]"
        if isinstance(node, PipelineNode):
            tags += f" [fused: {node.step_kinds()}]"
        lines.append("  " * depth + node._describe() + tags)
        for child in node.inputs:
            walk(child, depth + 1)

    walk(root, 1)
    return "\n".join(lines)


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

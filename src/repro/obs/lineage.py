"""Delta lineage, recomputed on read.

The paper's central claim is that a stream is a time-varying relation:
a standing query's changelog is a deterministic function of the source
history the service records.  So the provenance of a delta — which
source event made the pipeline produce it, and through which operators
— need not be recorded while events flow; it is recomputed when someone
asks.  :func:`explain_delta` builds a fresh flow of the one query (serial
or sharded like the resident one, under its config), replays the
recorded sources up to the delta's instant, then delivers the remaining
events one at a time until the output grows past the delta's position.
That event is the cause; the operators whose ``rows_out`` counters moved
while it was delivered are the path.  Nothing rides the live path, and
the resident flow is only read.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

from ..core.tvr import RowEvent, TimeVaryingRelation
from ..exec.executor import Dataflow, merge_source_events

__all__ = ["explain_delta"]


def explain_delta(
    resident,
    output_id: str,
    plan,
    sources: dict[str, TimeVaryingRelation],
    seq: int,
) -> Optional[dict]:
    """The provenance of changelog position ``seq`` of ``output_id``.

    ``resident`` is the flow serving the query, ``plan`` the plan it
    attached for it, ``sources`` the recorded source TVRs.  Returns
    ``None`` for a position outside ``[0, length)``.  Otherwise a dict:
    the cause's ordinal in the merged source order (``trace_id``), the
    cause itself (``sources``: one row or watermark, with its per-source
    ordinal as ``seq``), and the operator ``path`` leaf to root — per
    step its name, its ``shard`` (``None`` serial and in a two-phase
    flow's merge half), the queries reading the resident operator
    (``shared_by``) and the changes it produced during the delivery.
    """
    if not 0 <= seq < resident.output_size_of(output_id):
        return None
    events = merge_source_events(sources)
    instant = resident.output_slice_of(output_id, seq)[0].ptime
    # A change carries the instant of the event that caused it, or an
    # earlier one (a timer fires on the first event at or past its
    # deadline), so everything before that instant is settled history.
    start = bisect_left(events, instant, key=lambda pair: pair[0].ptime)
    fresh = _fresh_flow(resident, output_id, plan, sources)
    for _ in fresh.replay(events[:start]):
        pass
    steps = _steps(fresh, resident, output_id)
    for ordinal in range(start, len(events)):
        event, source = events[ordinal]
        before = [op.counters.rows_out for _, op, _ in steps]
        fresh.process(event, source)
        if fresh.output_size_of(output_id) <= seq:
            continue
        if isinstance(event, RowEvent):
            kind, values = "source", event.change.values
        else:
            kind, values = "watermark", event.value
        cause = {
            "kind": kind,
            "source": source,
            "seq": sum(1 for _, name in events[:ordinal] if name == source),
            "values": values,
            "ptime": event.ptime,
        }
        path = [
            {
                "operator": op.name(),
                "shard": shard,
                "shared_by": shared_by,
                "produced": op.counters.rows_out - rows,
            }
            for (shard, op, shared_by), rows in zip(steps, before)
            if op.counters.rows_out != rows
        ]
        return {
            "output_id": output_id,
            "seq": seq,
            "trace_id": ordinal,
            "sources": [cause],
            "path": path,
        }
    return None


def _fresh_flow(resident, output_id: str, plan, sources):
    """A flow of ``plan`` alone, shaped like ``resident``: its config,
    and for a sharded one its partition spec and two-phase switch."""
    if resident.sharded:
        return type(resident)(
            plan, sources, resident.config, output_id,
            spec=resident.spec, two_phase=resident.two_phase,
        )
    return Dataflow(plan, sources, resident.config, output_id)


def _steps(fresh, resident, output_id: str) -> list[tuple]:
    """``(shard, fresh operator, shared_by)`` per plan node of the fresh
    flow, in post-order (leaf to root): the shards' nodes in shard
    order, then a two-phase output's merge half.  ``shared_by`` is read
    off the resident operator at the same post-order index."""
    sharded = fresh.sharded
    reference = resident.shards[0] if sharded else resident
    refs = reference.operators
    shared = [
        reference.shared_by(refs[index])
        for index in reference.sharing_map()[output_id]
    ]
    flows = list(enumerate(fresh.shards)) if sharded else [(None, fresh)]
    steps = []
    for shard, flow in flows:
        ops = flow.operators
        steps += [
            (shard, ops[index], count)
            for index, count in zip(flow.sharing_map()[output_id], shared)
        ]
    combine = fresh.combines.get(output_id) if sharded else None
    if combine is not None:
        ops = combine.operators
        steps += [(None, ops[index], 1) for index in combine.sharing_map()["main"]]
    return steps

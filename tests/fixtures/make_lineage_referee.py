"""How ``lineage_referee.json`` in this directory was written.

The referee records, for every delta of a few generated standing-query
runs, the explanation the live lineage recorder gave at
``lineage_sample=1`` — the recorder the replayed explanation replaced.
It was written **with the parent commit of that replacement on the
path** (398018c), from the repository root::

    PYTHONPATH=<checkout>/src python tests/fixtures/make_lineage_referee.py

:func:`scenarios` builds the runs; the maker passes
``lineage_sample=1`` through ``extra`` (the field that commit had), the
test passes nothing and explains the same positions by replay.  Runs:
serial at ``batch_size`` 1 and 64; an MQO-shared pair plus a late
joiner grafted onto it; a two-source filtered join; and single-output
sharded flows (two ``sync`` shards, ``two_phase`` off).  A position the
recorder could not explain is recorded as ``null``.
"""

from __future__ import annotations

import json
import os

from repro import ExecutionConfig
from repro.core.schema import Schema, int_col, timestamp_col
from repro.core.tvr import TimeVaryingRelation, ins, wm
from repro.service import StandingQueryService
from repro.service.admission import TenantPolicy

HERE = os.path.dirname(os.path.abspath(__file__))
REFEREE = os.path.join(HERE, "lineage_referee.json")

MINUTE = 60_000
SCHEMA = Schema([int_col("k"), timestamp_col("ts", event_time=True), int_col("v")])
TUMBLE = (
    "Tumble(data => TABLE(S), timecol => DESCRIPTOR(ts), "
    "dur => INTERVAL '2' MINUTE)"
)
Q_SUM = f"SELECT k, wend, SUM(v) AS total FROM {TUMBLE} TS GROUP BY k, wend EMIT STREAM"
Q_SUM_ALIASED = (
    f"SELECT k, wend, SUM(v) AS sum_of_v FROM {TUMBLE} TS GROUP BY k, wend EMIT STREAM"
)
Q_MAX = f"SELECT k, wend, MAX(v) AS mx FROM {TUMBLE} TS GROUP BY k, wend EMIT STREAM"
Q_FILTER = "SELECT k, v FROM S WHERE v > 20 EMIT STREAM"
Q_JOIN = (
    "SELECT S.k, S.v, T.v AS w FROM S JOIN T ON S.k = T.k "
    "WHERE S.v > 10 EMIT STREAM"
)


def events(n: int, start: int = 1_000_000, sources=("S",)) -> list:
    """``(event, source)`` pairs, one instant each: keyed rows
    round-robin over ``sources``, event times trailing the clock by up
    to 90 s, and every fifth event a watermark two minutes behind it
    (so some rows arrive late)."""
    out, ptime = [], start
    for i in range(n):
        ptime += 15_000
        if i % 5 == 4:
            for source in sources:
                out.append((wm(ptime, max(0, i * 15_000 - 2 * MINUTE)), source))
        else:
            ts = max(0, i * 15_000 - (i * 37_000) % 90_000)
            out.append((ins(ptime, (i % 3, ts, i)), sources[i % len(sources)]))
    return out


def service(config: ExecutionConfig, sources=("S",)) -> StandingQueryService:
    svc = StandingQueryService(
        config=config,
        default_policy=TenantPolicy(name="*", max_standing_queries=8),
    )
    for source in sources:
        svc.register_stream(source, TimeVaryingRelation(SCHEMA))
    return svc


def scenarios(extra: dict) -> dict:
    """Every run, driven to its end: name -> ``(service, query ids)``."""
    runs = {}
    for batch in (1, 64):
        svc = service(ExecutionConfig(batch_size=batch, share_plans=False, **extra))
        ids = [svc.submit("t", sql).query_id for sql in (Q_SUM, Q_MAX, Q_FILTER)]
        for event, source in events(80):
            svc.ingest(event, source)
        runs[f"serial_batch{batch}"] = (svc, ids)

    svc = service(ExecutionConfig(share_plans=True, **extra))
    ids = [svc.submit("t", sql).query_id for sql in (Q_SUM, Q_MAX)]
    feed = events(80)
    for event, source in feed[:40]:
        svc.ingest(event, source)
    ids.append(svc.submit("t", Q_SUM_ALIASED).query_id)  # the late joiner
    for event, source in feed[40:]:
        svc.ingest(event, source)
    runs["mqo_pair_late_joiner"] = (svc, ids)

    svc = service(ExecutionConfig(**extra), sources=("S", "T"))
    ids = [svc.submit("t", Q_JOIN).query_id]
    for event, source in events(60, sources=("S", "T")):
        svc.ingest(event, source)
    runs["join_two_sources"] = (svc, ids)

    config = ExecutionConfig(
        parallelism=2, backend="sync", two_phase="off", share_plans=False, **extra
    )
    svc = service(config)
    ids = [svc.submit("t", sql).query_id for sql in (Q_SUM, Q_FILTER)]
    for event, source in events(80):
        svc.ingest(event, source)
    runs["sharded_two_sync_shards"] = (svc, ids)
    return runs


def explained(svc: StandingQueryService, query_id: str) -> list:
    """Every position of the query's changelog, explained (JSON form)."""
    query = svc.session.get(query_id)
    size = query.flow.output_size_of(query.output_id)
    return json.loads(
        json.dumps([svc.explain_delta(query_id, seq) for seq in range(size)])
    )


def main() -> None:
    referee = {
        name: {qid: explained(svc, qid) for qid in ids}
        for name, (svc, ids) in scenarios({"lineage_sample": 1}).items()
    }
    with open(REFEREE, "w") as fh:
        json.dump(referee, fh, indent=None, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

"""How the ``parent_*`` fixtures in this directory were written.

Two generations, each written **with that parent commit on the path**,
from the repository root::

    PYTHONPATH=<checkout>/src python tests/fixtures/make_parent_fixtures.py <generation>

``pr15`` — checkout ad9282f (before the shard drive loop took shard
output and before sharded session queries got an append-only log): a
sharded flow blob that carries a private output history per shard and
its merged changelog inline, and a session directory whose sharded
query has ``"log": null``.

``pr17`` — checkout 4495e0c (before histories stayed encoded at rest:
restore decoded every changelog and every source event eagerly): a
serial flow blob (``parent_serial_flow.ckpt``) and a session directory
grown by two cuts (``parent_two_cuts``: two ``RSEG`` frames per log,
one serial and one sharded query).

They pin the on-disk compatibility promises: all of it must keep
restoring, byte-identically continued.  The inputs are the paper's Bid
stream, cut at the half-way event (the two-cut directory: after a third
and after two thirds); the tests regenerate the same stream.
"""

import os
import shutil
import sys

from repro import ExecutionConfig, StreamEngine
from repro.core.tvr import TimeVaryingRelation
from repro.nexmark import paper_bid_stream
from repro.service import StandingQueryService

HERE = os.path.dirname(os.path.abspath(__file__))

TUMBLED_BY_ITEM = (
    "SELECT item, wend, MAX(price) AS maxprice "
    "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTE) TB "
    "GROUP BY item, wend"
)


def pr15() -> None:
    bids = paper_bid_stream()
    events = bids.events()
    half = len(events) // 2
    for name, two_phase in (("single", "off"), ("two_phase", "on")):
        engine = StreamEngine(
            config=ExecutionConfig(parallelism=3, two_phase=two_phase)
        )
        engine.register_stream("Bid", bids)
        flow = engine.query(TUMBLED_BY_ITEM).sharded_dataflow()
        for event in events[:half]:
            flow.process(event, "Bid")
        with open(os.path.join(HERE, f"parent_sharded_flow_{name}.ckpt"), "wb") as fh:
            fh.write(flow.checkpoint())

    directory = os.path.join(HERE, "parent_sharded_cut")
    shutil.rmtree(directory, ignore_errors=True)
    service = StandingQueryService(config=ExecutionConfig(parallelism=2))
    service.register_stream("Bid", TimeVaryingRelation(bids.schema))
    query = service.submit("alice", TUMBLED_BY_ITEM + " EMIT STREAM")
    assert query.sharded
    for event in events[:half]:
        service.ingest(event, "Bid")
    service.checkpoint(directory)


def pr17() -> None:
    bids = paper_bid_stream()
    events = bids.events()
    engine = StreamEngine()
    engine.register_stream("Bid", bids)
    flow = engine.query(TUMBLED_BY_ITEM).dataflow()
    for event in events[: len(events) // 2]:
        flow.process(event, "Bid")
    with open(os.path.join(HERE, "parent_serial_flow.ckpt"), "wb") as fh:
        fh.write(flow.checkpoint())

    directory = os.path.join(HERE, "parent_two_cuts")
    shutil.rmtree(directory, ignore_errors=True)
    service = StandingQueryService()
    service.register_stream("Bid", TimeVaryingRelation(bids.schema))
    service.submit("alice", TUMBLED_BY_ITEM + " EMIT STREAM", query_id="serial")
    sharded = service.submit(
        "bob",
        TUMBLED_BY_ITEM + " EMIT STREAM",
        query_id="sharded",
        config=ExecutionConfig(parallelism=2),
    )
    assert sharded.sharded
    third = len(events) // 3
    for event in events[:third]:
        service.ingest(event, "Bid")
    service.checkpoint(directory)
    for event in events[third:2 * third]:
        service.ingest(event, "Bid")
    service.checkpoint(directory)


if __name__ == "__main__":
    {"pr15": pr15, "pr17": pr17}[sys.argv[1]]()

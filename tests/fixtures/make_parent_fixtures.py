"""How the ``parent_*`` fixtures in this directory were written.

Run **with the parent commit of PR 15 on the path** (ad9282f: before the
shard drive loop took shard output and before sharded session queries
got an append-only log), from the repository root::

    PYTHONPATH=<checkout of ad9282f>/src python tests/fixtures/make_parent_fixtures.py

They pin the on-disk compatibility promises: a sharded flow blob that
carries a private output history per shard and its merged changelog
inline, and a session directory whose sharded query has ``"log": null``,
must keep restoring.  The inputs are the paper's Bid stream, cut at the
half-way event; the tests regenerate the same stream.
"""

import os
import shutil

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


def main() -> None:
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


if __name__ == "__main__":
    main()

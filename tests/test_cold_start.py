"""A fresh process loads only the layers it runs.

The shard runtime, the shell, EXPLAIN, lineage, the HTTP scrape plane,
``asyncio`` with the service, and the operators few queries need are
imported where they are first built (DESIGN.md, "What loads when").  So
every check here runs in a fresh interpreter — this test process has
long since imported everything:

* ``import repro`` loads none of the deferred layers;
* resuming a small checkpoint through ``StandingQueryService.resume``
  stays within a module and a dataclass budget (the restart a user
  waits for, docs/SERVICE.md "What a restart costs");
* each deferred layer works on its first use, its result equal to the
  one this (fully loaded) process computes.
"""

import http.client
import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro import ExecutionConfig, StreamEngine
from repro.nexmark import paper_bid_stream
from repro.service import StandingQueryService

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: repro modules (and ``asyncio``) a process loads only when it runs them
DEFERRED = (
    "asyncio",
    "repro.explain",
    "repro.shell",
    "repro.obs.lineage",
    "repro.plan.match",
    "repro.service",
    "repro.service.http",
    "repro.runtime.faults",
    "repro.runtime.frontier",
    "repro.runtime.merge",
    "repro.runtime.routing",
    "repro.runtime.sharded",
    "repro.runtime.supervisor",
) + tuple(
    f"repro.exec.operators.{name}"
    for name in (
        "join", "match", "outer_join", "over", "semi_join", "session",
        "setop", "temporal", "temporal_join",
    )
)

#: the resumed serial server's budget: ``repro`` modules loaded and
#: dataclasses created until it listens (84 and 82 when every layer
#: loaded eagerly)
RESUME_MODULES_MAX = 63
RESUME_DATACLASSES_MAX = 42

#: run first in every fresh interpreter: count the dataclasses created,
#: and ``report(**extra)`` prints the loaded modules as the last line
PRELUDE = """
import dataclasses, json, sys
_made = []
_process_class = dataclasses._process_class
def _counting(cls, *args, **kwargs):
    _made.append(cls.__qualname__)
    return _process_class(cls, *args, **kwargs)
dataclasses._process_class = _counting
def report(**extra):
    loaded = sorted(
        name for name in sys.modules
        if name in ("repro", "asyncio") or name.startswith("repro.")
    )
    print(json.dumps(dict(modules=loaded, dataclasses=len(_made), **extra)))
"""

BIDS = """
from repro import ExecutionConfig, StreamEngine
from repro.nexmark import paper_bid_stream
engine = StreamEngine()
engine.register_stream("Bid", paper_bid_stream())
"""

TUMBLE = (
    "SELECT TB.item, TB.wend, COUNT(*) AS n FROM Tumble(data => TABLE(Bid), "
    "timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTES) TB "
    "GROUP BY TB.item, TB.wend"
)
QUERIES = {
    "join": "SELECT a.item, a.price, b.price AS other "
            "FROM Bid a JOIN Bid b ON a.item = b.item",
    "over": "SELECT item, price, SUM(price) OVER "
            "(PARTITION BY item ORDER BY bidtime) AS total FROM Bid",
    "match": "SELECT * FROM Bid MATCH_RECOGNIZE (ORDER BY bidtime "
             "MEASURES FIRST(A.price) AS first, LAST(B.price) AS last "
             "ONE ROW PER MATCH PATTERN (A B+) "
             "DEFINE A AS price < 4, B AS price >= 4)",
}


def run_fresh(code: str, stdin: str = "") -> dict:
    """Run ``code`` after :data:`PRELUDE` in a fresh interpreter; the
    JSON its last ``report`` printed."""
    done = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(code)],
        input=stdin, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def changes(query) -> list[str]:
    return [str(change) for change in query.run().changes]


def bid_engine() -> StreamEngine:
    engine = StreamEngine()
    engine.register_stream("Bid", paper_bid_stream())
    return engine


def test_import_repro_loads_no_deferred_layer():
    loaded = run_fresh("import repro\nreport()")["modules"]
    assert [name for name in DEFERRED if name in loaded] == []


def test_resume_stays_within_the_budget(tmp_path):
    config = ExecutionConfig(batch_size=64)
    service = StandingQueryService(config=config)
    service.register_stream("Bid", paper_bid_stream())
    service.submit("acme", TUMBLE + " EMIT STREAM", query_id="hot")
    service.checkpoint(str(tmp_path))
    result = run_fresh(f"""
        from repro import ExecutionConfig
        from repro.service import StandingQueryService
        service = StandingQueryService(config=ExecutionConfig(batch_size=64))
        restored = service.resume({str(tmp_path)!r})
        report(restored=restored, runtime=service.list_queries()[0]["runtime"])
    """)
    assert (result["restored"], result["runtime"]) == (1, "serial")
    repro_modules = [name for name in result["modules"] if name != "asyncio"]
    assert len(repro_modules) <= RESUME_MODULES_MAX, repro_modules
    assert result["dataclasses"] <= RESUME_DATACLASSES_MAX
    deferred = [name for name in DEFERRED if name in repro_modules]
    assert deferred == ["repro.service"]


@pytest.mark.parametrize("backend", ["sync", "processes"])
def test_a_sharded_flow_loads_the_shard_runtime(backend):
    config = ExecutionConfig(parallelism=2, backend=backend)
    result = run_fresh(BIDS + f"""
query = engine.query({TUMBLE!r})
flow = query.sharded_dataflow(ExecutionConfig(parallelism=2, backend={backend!r}))
report(changes=[str(change) for change in flow.run().changes])
""")
    query = bid_engine().query(TUMBLE)
    assert result["changes"] == [
        str(change) for change in query.sharded_dataflow(config).run().changes
    ]
    assert result["changes"] == changes(query)
    assert "repro.runtime.sharded" in result["modules"]


def test_explain_loads_on_first_use():
    result = run_fresh(BIDS + f"""
report(text=engine.explain({TUMBLE!r}, mode="physical"))
""")
    assert result["text"] == bid_engine().explain(TUMBLE, mode="physical")
    assert "repro.explain" in result["modules"]


def test_explain_delta_loads_lineage_on_first_use():
    code = """
        from repro.nexmark import paper_bid_stream
        from repro.service import StandingQueryService
        service = StandingQueryService()
        bids = paper_bid_stream()
        service.register_stream("Bid", type(bids)(bids.schema))
        query = service.submit("acme", "SELECT item, price FROM Bid")
        for event in bids.events():
            service.ingest(event, "Bid")
        report(lineage=service.explain_delta(query.query_id, 0))
    """
    result = run_fresh(code)
    assert result["lineage"] is not None
    assert result["lineage"]["seq"] == 0
    assert "repro.obs.lineage" in result["modules"]


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_a_cold_operator_loads_in_its_build_branch(name):
    result = run_fresh(BIDS + f"""
report(changes=[str(change) for change in engine.query({QUERIES[name]!r}).run().changes])
""")
    assert result["changes"] == changes(bid_engine().query(QUERIES[name]))
    assert result["changes"] != []
    assert f"repro.exec.operators.{name}" in result["modules"]


def test_a_fault_plan_spec_loads_the_fault_harness():
    result = run_fresh("""
        from repro import ExecutionConfig
        config = ExecutionConfig(fault_plan="crash-after-checkpoint:shard=1,at=2")
        report(plan=[fault.spec_string() for fault in config.fault_plan.faults],
               kind=type(config.fault_plan).__module__)
    """)
    assert result["plan"] == ["crash-after-checkpoint:shard=1,at=2,times=1"]
    assert result["kind"] == "repro.runtime.faults"


def test_the_shell_runs_without_the_service():
    result = run_fresh("""
        from repro.__main__ import main
        main([])
        report()
    """, stdin="\\help\n\\q\n")
    assert "repro.shell" in result["modules"]
    assert "asyncio" not in result["modules"]
    assert "repro.service" not in result["modules"]


def test_metrics_flag_serves_healthz():
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--listen", "127.0.0.1:0",
         "--metrics", "127.0.0.1:0"],
        stdout=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=SRC),
    )
    try:
        assert server.stdout.readline().startswith("listening on 127.0.0.1:")
        line = server.stdout.readline()
        assert line.startswith("serving /metrics and /healthz on 127.0.0.1:")
        port = int(line.rsplit(":", 1)[1])
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        assert response.status == 200
        assert "queries" in json.loads(response.read())
    finally:
        server.terminate()
        server.wait(timeout=10)
        server.stdout.close()

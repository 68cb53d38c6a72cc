"""CI service smoke check: live tail, two tenants, oracle-verified deltas.

Boots a :class:`~repro.service.server.ServiceServer` on a loopback
port, submits two tenant queries through the wire protocol — one
admitted, one rejected at the ACL gate with a structured error — then
tails a JSONL fixture that is still being appended to, and:

* asserts the deltas streamed to the admitted tenant's subscriber are
  **byte-identical** to the recorded-replay oracle (the same SQL run
  one-shot over the full recording with ``query.run()``);
* runs the same query a second time under ``parallelism=3`` and
  asserts the sharded resident flow publishes the identical delta
  sequence (the service-mode restatement of the runtime's determinism
  guarantee);
* scrapes the ``repro_service_*`` exposition over the wire, validates
  it with :func:`repro.obs.export.parse_exposition`, and writes it to
  ``SERVICE_smoke.prom`` for CI to upload;
* hits the HTTP plane next to the line-JSON listener: ``GET /metrics``
  must serve a parseable exposition, ``GET /healthz`` a JSON liveness
  document, and unknown routes a 404.

Runs under plain pytest and as a script::

    PYTHONPATH=src python benchmarks/service_smoke.py
"""

from __future__ import annotations

import argparse
import asyncio
import json
import tempfile
from pathlib import Path

from repro import ExecutionConfig, StreamEngine
from repro.core.tvr import TimeVaryingRelation
from repro.io import format_jsonl
from repro.nexmark import NexmarkConfig, generate
from repro.obs.export import parse_exposition
from repro.service import ServiceServer, StandingQueryService, TenantPolicy

NUM_EVENTS = 800
SHARDS = 3

SQL = """
    SELECT TB.wend, MAX(TB.price) AS maxPrice
    FROM Tumble(
      data    => TABLE(Bid),
      timecol => DESCRIPTOR(bidtime),
      dur     => INTERVAL '10' SECONDS) TB
    GROUP BY TB.wend
    EMIT STREAM
"""

ROOT = Path(__file__).resolve().parents[1]
PROM_ARTIFACT = ROOT / "SERVICE_smoke.prom"

# The stable families the smoke check insists on; a rename here must be
# deliberate and documented in docs/SERVICE.md.
REQUIRED_FAMILIES = {
    "repro_service_active_queries",
    "repro_service_admitted_total",
    "repro_service_admission_rejects_total",
    "repro_service_events_ingested_total",
    "repro_service_delivered_deltas_total",
    "repro_service_encoded_frames_total",
    "repro_service_log_retained",
    "repro_service_subscribers",
    "repro_service_checkpoints_total",
    "repro_service_checkpoint_seconds",
    "repro_service_checkpoint_bytes_total",
    "repro_service_resume_seconds",
    "repro_service_history_items",
    "repro_service_requests_total",
    "repro_service_request_batches_total",
    "repro_service_push_writes_total",
}


def recorded_bids() -> TimeVaryingRelation:
    """The full NEXMark Bid recording the oracle and the feed share."""
    staging = StreamEngine()
    generate(NexmarkConfig(num_events=NUM_EVENTS, seed=17)).register_on(staging)
    return staging.source("Bid")


def oracle_changes(bids: TimeVaryingRelation) -> list:
    """The one-shot changelog: what every live path must reproduce."""
    engine = StreamEngine()
    engine.register_stream("Bid", bids)
    return engine.query(SQL).run().changes


async def http_get(host: str, port: int, path: str) -> tuple[str, str]:
    """One raw HTTP/1.1 GET; returns (status line, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: smoke\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    return head.split(b"\r\n", 1)[0].decode(), body.decode()


async def drive(service, feed_path: Path, tail_lines: list[str]):
    """Submit, subscribe, tail; return (deltas, rejection, exposition)."""
    server = ServiceServer(service, "127.0.0.1", 0)
    await server.start()
    http = await server.serve_http("127.0.0.1", 0)
    host, port = server.address
    reader, writer = await asyncio.open_connection(host, port)

    async def rpc(payload):
        writer.write((json.dumps(payload) + "\n").encode())
        await writer.drain()
        return json.loads(await reader.readline())

    try:
        admitted = await rpc(
            {"op": "submit", "tenant": "reporting", "sql": SQL}
        )
        assert admitted["ok"], admitted
        rejected = await rpc(
            {"op": "submit", "tenant": "intruder", "sql": "SELECT * FROM Bid"}
        )
        assert not rejected["ok"], "the locked-down tenant must be rejected"
        assert rejected["error"]["code"] == "acl_denied", rejected
        subscribed = await rpc(
            {"op": "subscribe", "query": admitted["query"],
             "subscriber": "smoke"}
        )
        assert subscribed["ok"] and subscribed["cursor"] == 0, subscribed

        server.add_tail("Bid", str(feed_path), poll_interval=0.01)
        server.start_pump()
        await asyncio.sleep(0.05)
        with open(feed_path, "a") as handle:
            handle.write("".join(tail_lines))
        await server.drain()

        deltas = []
        while True:
            try:
                raw = await asyncio.wait_for(reader.readline(), timeout=0.2)
            except asyncio.TimeoutError:
                break
            if not raw:
                break
            message = json.loads(raw)
            if "delta" in message:
                deltas.append(message["delta"])
        scrape = await rpc({"op": "metrics"})

        # The HTTP plane must serve the same exposition plus liveness.
        http_host, http_port = http.address
        status, metrics_body = await http_get(http_host, http_port, "/metrics")
        assert status == "HTTP/1.1 200 OK", status
        parse_exposition(metrics_body)  # raises on malformed output
        status, health_body = await http_get(http_host, http_port, "/healthz")
        assert status == "HTTP/1.1 200 OK", status
        health = json.loads(health_body)
        assert health["status"] == "ok" and health["queries"] >= 1, health
        status, _ = await http_get(http_host, http_port, "/nope")
        assert status == "HTTP/1.1 404 Not Found", status

        return deltas, rejected, scrape["exposition"]
    finally:
        writer.close()
        await server.stop()


def run_smoke() -> dict:
    bids = recorded_bids()
    expected = oracle_changes(bids)
    assert expected, "the oracle run produced no changes — bad fixture"

    service = StandingQueryService(
        policies={
            "reporting": TenantPolicy(name="reporting"),
            "intruder": TenantPolicy(
                name="intruder", allowed_tables=frozenset()
            ),
        },
    )
    service.register_stream("Bid", TimeVaryingRelation(bids.schema))

    # A second resident copy of the query, sharded, fed by the same
    # pump: its delta sequence must match the serial one byte for byte.
    sharded = service.submit(
        "reporting", SQL,
        config=ExecutionConfig(parallelism=SHARDS, backend="sync"),
    )
    assert sharded.sharded, "parallelism=3 should build a sharded flow"
    sharded_sub = service.subscribe(sharded.query_id, "smoke-sharded")

    lines = format_jsonl(bids).splitlines(keepends=True)
    split = len(lines) // 2
    with tempfile.TemporaryDirectory() as tmp:
        feed_path = Path(tmp) / "bids.jsonl"
        feed_path.write_text("".join(lines[:split]))
        deltas, rejected, exposition = asyncio.run(
            drive(service, feed_path, lines[split:])
        )

    want = [
        (c.ptime, "insert" if c.is_insert else "retract", tuple(c.values))
        for c in expected
    ]
    got = [(d["ptime"], d["kind"], tuple(d["values"])) for d in deltas]
    if got != want:
        raise AssertionError(
            f"streamed deltas diverged from the recorded-replay oracle "
            f"({len(got)} streamed vs {len(want)} expected)"
        )
    assert [d["seq"] for d in deltas] == list(range(len(deltas)))

    got_sharded = [
        (d.change.ptime,
         "insert" if d.change.is_insert else "retract",
         tuple(d.change.values))
        for d in sharded_sub.take()
    ]
    if got_sharded != want:
        raise AssertionError(
            "the sharded resident flow diverged from the serial oracle"
        )

    families = parse_exposition(exposition)
    missing = REQUIRED_FAMILIES - set(families)
    assert not missing, f"exposition lost families: {sorted(missing)}"
    assert 'repro_service_admission_rejects_total{code="acl_denied"} 1' in (
        exposition
    )
    PROM_ARTIFACT.write_text(exposition)

    return {
        "deltas": deltas,
        "rejected": rejected,
        "families": families,
        "events": service.session.events_ingested,
    }


def test_service_smoke():
    """The smoke check is also a test: oracle match and artifact land."""
    pieces = run_smoke()
    assert len(pieces["deltas"]) > 0
    assert PROM_ARTIFACT.exists() and PROM_ARTIFACT.stat().st_size > 0


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    pieces = run_smoke()
    print(
        f"ok: {pieces['events']} events tailed, "
        f"{len(pieces['deltas'])} deltas streamed (serial == sharded == "
        f"oracle), 1 tenant rejected "
        f"[{pieces['rejected']['error']['code']}], "
        f"{len(pieces['families'])} metric families, "
        f"/metrics + /healthz served over HTTP"
    )
    print(f"wrote {PROM_ARTIFACT}")


if __name__ == "__main__":
    main()

"""Tests for the latency-telemetry layer (``repro.obs``) and exporters.

Covers the four legs of the telemetry tentpole:

* :class:`Histogram` — bucketing, percentiles, and (via hypothesis) the
  merge associativity/commutativity that makes per-shard histograms
  safe to combine in any order;
* serial vs. sharded agreement — by routing invariance the shard-merged
  histograms must hold exactly the serial run's samples, checked on
  NEXMark Q3 (partitionable join), Q7 (serial fallback), and the
  per-auction tumbling-window count (partitionable, windowed);
* the Prometheus text exposition — rendered, re-parsed with the
  dependency-free validator, and pinned to the stable family names;
* the JSON-lines event log — one valid JSON object per trace event,
  round-tripping back to equal :class:`TraceEvent` objects.
"""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionConfig, StreamEngine
from repro.core.errors import ValidationError
from repro.core.schema import Schema, int_col, timestamp_col
from repro.core.times import t
from repro.core.tvr import TimeVaryingRelation, ins, wm
from repro.obs import BUCKET_BOUNDS, Histogram, RunTelemetry, TraceCollector
from repro.obs.export import (
    JsonLinesExporter,
    PrometheusExporter,
    make_exporter,
    parse_exposition,
    read_events,
    render_exposition,
)
from repro.nexmark import NexmarkConfig, generate
from repro.nexmark.queries import (
    Q3_LOCAL_ITEM_SUGGESTION,
    q7_highest_bid,
    register_udfs,
)

KEYED_SCHEMA = Schema(
    [int_col("k"), timestamp_col("ts", event_time=True), int_col("v")]
)

TUMBLE_SQL = """
    SELECT k, wend, COUNT(*) AS n
    FROM Tumble(data => TABLE(S),
                timecol => DESCRIPTOR(ts),
                dur => INTERVAL '2' MINUTE) TS
    GROUP BY k, wend
"""

NEXMARK_TUMBLE_SQL = """
    SELECT TB.auction, TB.wend, COUNT(*) AS bids
    FROM Tumble(
      data    => TABLE(Bid),
      timecol => DESCRIPTOR(bidtime),
      dur     => INTERVAL '10' SECONDS) TB
    GROUP BY TB.auction, TB.wend
"""


def keyed_engine(events, parallelism=1, **kwargs):
    engine = StreamEngine(
        config=ExecutionConfig(parallelism=parallelism, backend="sync", **kwargs)
    )
    engine.register_stream("S", TimeVaryingRelation(KEYED_SCHEMA, events))
    return engine


def windowed_events():
    return [
        ins(100, (1, t("8:00"), 10)),
        ins(200, (2, t("8:01"), 20)),
        wm(300, t("8:02")),
        ins(400, (1, t("8:03"), 30)),
        wm(500, t("8:10")),
    ]


def nexmark_engine(parallelism=1, backend="sync", num_events=1500):
    engine = StreamEngine(
        config=ExecutionConfig(parallelism=parallelism, backend=backend)
    )
    generate(NexmarkConfig(num_events=num_events, seed=11)).register_on(engine)
    register_udfs(engine)
    return engine


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------


def test_histogram_basics():
    h = Histogram()
    for value in (0, 1, 2, 3, 1000, 5000):
        h.observe(value)
    assert h.count == 6
    assert h.sum == 6006
    assert h.min == 0
    assert h.max == 5000
    summary = h.summary()
    assert summary["count"] == 6
    assert summary["p50"] <= summary["p95"] <= summary["p99"] <= h.max


def test_histogram_empty_summary():
    summary = Histogram().summary()
    assert summary["count"] == 0
    assert summary["p50"] is None and summary["p99"] is None


def test_histogram_negative_values_clamp_to_zero():
    h = Histogram()
    h.observe(-5)
    assert h.count == 1 and h.min == 0 and h.sum == 0


def test_histogram_percentile_exact_on_single_value():
    h = Histogram()
    for _ in range(100):
        h.observe(42)
    # The bucket upper bound would be 64; the observed max clamps it.
    assert h.percentile(0.5) == 42
    assert h.percentile(0.99) == 42


def test_histogram_overflow_bucket():
    h = Histogram()
    h.observe(2 ** 50)  # beyond the largest finite bound
    assert h.count == 1
    le, cumulative = h.cumulative_buckets()[-1]
    assert le == "+Inf" and cumulative == 1
    assert h.cumulative_buckets()[-2][1] == 0  # not in any finite bucket


def test_bucket_bounds_are_log2():
    assert BUCKET_BOUNDS[0] == 1
    assert all(b == 2 * a for a, b in zip(BUCKET_BOUNDS, BUCKET_BOUNDS[1:]))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=2 ** 44), max_size=40),
    st.lists(st.integers(min_value=0, max_value=2 ** 44), max_size=40),
    st.lists(st.integers(min_value=0, max_value=2 ** 44), max_size=40),
)
def test_histogram_merge_associative_and_commutative(xs, ys, zs):
    def hist(values):
        h = Histogram()
        for value in values:
            h.observe(value)
        return h

    left = hist(xs).merge(hist(ys)).merge(hist(zs))
    right = hist(xs).merge(hist(ys).merge(hist(zs)))
    swapped = hist(zs).merge(hist(xs)).merge(hist(ys))
    assert left == right == swapped
    # And merging equals observing the concatenation.
    assert left == hist(xs + ys + zs)


def test_histogram_snapshot_roundtrip():
    h = Histogram()
    for value in (1, 7, 300):
        h.observe(value)
    assert Histogram.from_snapshot(h.snapshot()) == h


# ---------------------------------------------------------------------------
# serial vs. sharded telemetry
# ---------------------------------------------------------------------------


def test_windowed_query_records_emit_latency():
    engine = keyed_engine(windowed_events())
    report = engine.query(TUMBLE_SQL).metrics()
    assert report.telemetry is not None
    assert report.telemetry.emit_latency.count > 0
    assert report.telemetry.watermark_lag.count > 0


def test_sharded_telemetry_matches_serial_on_tumble():
    serial = keyed_engine(windowed_events()).query(TUMBLE_SQL).metrics()
    sharded = keyed_engine(windowed_events(), parallelism=4).query(TUMBLE_SQL)
    assert sharded.partition_decision().partitionable
    merged = sharded.metrics()
    assert merged.telemetry.summary() == serial.telemetry.summary()


@pytest.mark.parametrize(
    "sql", [Q3_LOCAL_ITEM_SUGGESTION, q7_highest_bid(), NEXMARK_TUMBLE_SQL]
)
def test_nexmark_latency_samples_match_serial(sql):
    """Q3 shards (join), Q7 falls back to serial, the tumble count shards
    with real emit-latency samples — all must agree with the serial run."""
    serial = nexmark_engine().query(sql).metrics().telemetry
    sharded = nexmark_engine(parallelism=4).query(sql).metrics().telemetry
    assert sharded.emit_latency.count == serial.emit_latency.count
    assert sharded.watermark_lag.count == serial.watermark_lag.count
    assert sharded.summary() == serial.summary()


def test_nexmark_tumble_actually_shards_with_samples():
    query = nexmark_engine(parallelism=4).query(NEXMARK_TUMBLE_SQL)
    assert query.partition_decision().partitionable
    telemetry = query.metrics().telemetry
    assert telemetry.emit_latency.count > 0


def test_explain_analyze_has_latency_section():
    engine = keyed_engine(windowed_events())
    text = engine.explain(TUMBLE_SQL, mode="analyze")
    assert "emit latency" in text
    assert "watermark lag" in text
    assert "p99" in text


def test_telemetry_survives_checkpoint():
    engine = keyed_engine(windowed_events())
    flow = engine.query(TUMBLE_SQL).dataflow()
    flow.run()
    restored = engine.query(TUMBLE_SQL).dataflow()
    restored.restore(flow.checkpoint())
    assert (
        restored.telemetry_of("main").summary()
        == flow.telemetry_of("main").summary()
    )


def test_run_telemetry_merge():
    a, b = RunTelemetry(), RunTelemetry()
    # (one change each; the row's only column is its completion bound)
    a.record_emit_run([ins(1000, (400,)).change], (0,), root_watermark=300)
    b.record_emit_run([ins(2000, (2500,)).change], (0,), root_watermark=1500)
    merged = RunTelemetry.merged([a, b])
    assert merged.emit_latency.count == 2
    assert merged.early_emits == 1  # b emitted before its completion time
    assert merged.watermark_lag.count == 2


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------


def test_exposition_parses_and_has_stable_families():
    engine = keyed_engine(windowed_events())
    report = engine.query(TUMBLE_SQL).metrics()
    families = parse_exposition(render_exposition(report))
    for name, kind in {
        "repro_operator_rows_in_total": "counter",
        "repro_operator_rows_out_total": "counter",
        "repro_operator_retracts_out_total": "counter",
        "repro_operator_late_dropped_total": "counter",
        "repro_operator_expired_rows_total": "counter",
        "repro_operator_wm_advances_total": "counter",
        "repro_operator_state_rows": "gauge",
        "repro_operator_peak_state_rows": "gauge",
        "repro_operator_watermark_lag_ms": "gauge",
        "repro_emit_latency_ms": "histogram",
        "repro_root_watermark_lag_ms": "histogram",
        "repro_early_emits_total": "counter",
    }.items():
        assert families[name]["type"] == kind, name
        assert families[name]["samples"], name


def test_exposition_histogram_buckets_are_cumulative():
    engine = keyed_engine(windowed_events())
    families = parse_exposition(
        render_exposition(engine.query(TUMBLE_SQL).metrics())
    )
    buckets = [
        value
        for metric, labels, value in families["repro_emit_latency_ms"]["samples"]
        if metric == "repro_emit_latency_ms_bucket"
    ]
    assert buckets == sorted(buckets)
    count = next(
        value
        for metric, _, value in families["repro_emit_latency_ms"]["samples"]
        if metric == "repro_emit_latency_ms_count"
    )
    assert buckets[-1] == count


def test_exposition_labels_unique_per_operator():
    engine = keyed_engine(windowed_events())
    families = parse_exposition(
        render_exposition(engine.query(TUMBLE_SQL).metrics())
    )
    label_sets = [
        tuple(sorted(labels.items()))
        for _, labels, _ in families["repro_operator_rows_out_total"]["samples"]
    ]
    assert len(label_sets) == len(set(label_sets))


def test_parse_exposition_rejects_malformed():
    with pytest.raises(ValueError):
        parse_exposition("repro_thing 1\n")  # sample without TYPE
    with pytest.raises(ValueError):
        parse_exposition("# TYPE x sparkline\nx 1\n")  # unknown type
    with pytest.raises(ValueError):
        parse_exposition(
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\nh_bucket{le="+Inf"} 3\nh_sum 1\nh_count 3\n'
        )  # non-cumulative buckets
    with pytest.raises(ValueError):
        parse_exposition(
            "# TYPE h histogram\n" 'h_bucket{le="+Inf"} 3\nh_count 3\n'
        )  # missing _sum


def test_prometheus_exporter_writes_file(tmp_path):
    path = tmp_path / "metrics.prom"
    engine = keyed_engine(
        windowed_events(), telemetry=f"prometheus:{path}"
    )
    engine.query(TUMBLE_SQL).run()
    families = parse_exposition(path.read_text())
    assert "repro_emit_latency_ms" in families


# ---------------------------------------------------------------------------
# JSONL exporter
# ---------------------------------------------------------------------------


def test_jsonl_roundtrip_matches_collector():
    buffer = io.StringIO()
    engine = keyed_engine(
        windowed_events(), telemetry=JsonLinesExporter(buffer)
    )
    flow = engine.query(TUMBLE_SQL).dataflow()
    collector = TraceCollector()
    exporter = engine.telemetry

    def tee(event):
        collector(event)
        exporter.on_event(event)

    flow.trace = tee
    flow.run()
    lines = [line for line in buffer.getvalue().splitlines() if line]
    for line in lines:
        assert isinstance(json.loads(line), dict)  # one JSON object per line
    buffer.seek(0)
    assert read_events(buffer) == collector.events


def test_jsonl_exporter_via_engine(tmp_path):
    path = tmp_path / "events.jsonl"
    engine = keyed_engine(windowed_events(), telemetry=f"jsonl:{path}")
    engine.query(TUMBLE_SQL).run()
    engine.telemetry.close()
    events = read_events(str(path))
    assert events
    kinds = {event.kind for event in events}
    assert "batch" in kinds and "watermark" in kinds
    assert all(event.operator for event in events if event.kind == "batch")


def test_sharded_jsonl_tags_shards(tmp_path):
    path = tmp_path / "events.jsonl"
    engine = keyed_engine(
        windowed_events(), parallelism=2, telemetry=f"jsonl:{path}"
    )
    engine.query(TUMBLE_SQL).run()
    engine.telemetry.close()
    events = read_events(str(path))
    shards = {event.shard for event in events if event.kind == "batch"}
    assert shards <= {0, 1} and shards
    assert any(event.kind == "frontier" for event in events)


# ---------------------------------------------------------------------------
# exporter resolution
# ---------------------------------------------------------------------------


def test_make_exporter_specs(tmp_path):
    assert make_exporter(None) is None
    jsonl = make_exporter(f"jsonl:{tmp_path / 'a.jsonl'}")
    assert isinstance(jsonl, JsonLinesExporter)
    jsonl.close()
    assert isinstance(make_exporter(f"prom:{tmp_path / 'a.prom'}"), PrometheusExporter)
    passthrough = PrometheusExporter()
    assert make_exporter(passthrough) is passthrough
    with pytest.raises(ValueError):
        make_exporter("jsonl:")
    with pytest.raises(ValueError):
        make_exporter("csv:/tmp/x")


def test_engine_rejects_bad_telemetry_spec():
    with pytest.raises(ValidationError):
        StreamEngine(config=ExecutionConfig(telemetry="sparkline:/tmp/x"))

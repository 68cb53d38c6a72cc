"""Service-mode residency: incremental feeding is replay-equivalent.

The load-bearing guarantee: a standing query fed event-by-event through
:meth:`SessionManager.ingest` produces a changelog byte-identical —
values, ``ptime``, change kind, ordering — to a one-shot ``run()``
over the same recorded events, on both the serial and the sharded
runtime.  Plus the session plumbing around it: catch-up, fan-out,
eviction, checkpoint/restore.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionConfig, StreamEngine
from repro.core.codec import encode_changes
from repro.core.schema import Schema, int_col, timestamp_col
from repro.core.tvr import TimeVaryingRelation, ins, wm
from repro.service import StandingQueryService
from repro.service.subscriptions import SubscriptionRegistry

MINUTE = 60_000

SCHEMA = Schema([int_col("k"), timestamp_col("ts", event_time=True), int_col("v")])

KEYED_WINDOW_SUM = """
    SELECT k, wend, SUM(v) AS total
    FROM Tumble(data => TABLE(S),
                timecol => DESCRIPTOR(ts),
                dur => INTERVAL '2' MINUTE) TS
    GROUP BY k, wend
    EMIT STREAM
"""

WINDOWED_MAX = (
    "SELECT TB.wend, MAX(TB.price) maxPrice "
    "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTES) TB GROUP BY TB.wend EMIT STREAM"
)


@st.composite
def event_histories(draw):
    """A random keyed stream: rows with jittered event times + watermarks."""
    steps = draw(
        st.lists(
            st.tuples(
                st.booleans(),
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=-3, max_value=3),
                st.integers(min_value=0, max_value=99),
            ),
            min_size=1,
            max_size=40,
        )
    )
    events = []
    ptime = 1_000_000
    wm_value = 0
    for is_row, a, b, c in steps:
        ptime += MINUTE // 4
        if is_row:
            events.append(ins(ptime, (a, max(0, wm_value + b * MINUTE), c)))
        else:
            wm_value += a * MINUTE
            events.append(wm(ptime, wm_value))
    return events


WINDOWED_BY_ITEM = (
    "SELECT item, wend, MAX(price) AS maxprice "
    "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTE) TB "
    "GROUP BY item, wend EMIT STREAM"
)


def steady_events(n):
    """Insert-only keyed history, a watermark every 8 events closing all
    but the latest windows — live state stays flat as history grows."""
    events = []
    for i in range(n):
        ptime = 1_000_000 + i * 3_000
        if i % 8 == 7:
            events.append(wm(ptime, max(0, (i // 8 - 1) * MINUTE)))
        else:
            events.append(ins(ptime, (i % 4, (i // 8) * MINUTE + i % 50, i % 13)))
    return events


def oneshot_changes(events, sql, parallelism=1):
    eng = StreamEngine(
        config=ExecutionConfig(parallelism=parallelism, backend="sync")
    )
    eng.register_stream("S", TimeVaryingRelation(SCHEMA, events))
    return eng.query(sql).run().changes


def service_with_empty_source(config=None, schema=SCHEMA, name="S"):
    svc = StandingQueryService(config=config)
    svc.register_stream(name, TimeVaryingRelation(schema))
    return svc


class TestIncrementalEquivalence:
    def test_serial_matches_oneshot_paper_stream(self, bid_stream):
        svc = service_with_empty_source(schema=bid_stream.schema, name="Bid")
        query = svc.submit("alice", WINDOWED_MAX)
        for event in bid_stream.events():
            svc.ingest(event, "Bid")
        eng = StreamEngine()
        eng.register_stream("Bid", bid_stream)
        expected = eng.query(WINDOWED_MAX).run().changes
        assert query.flow.output_slice_of(query.output_id) == expected

    def test_sharded_matches_oneshot_paper_stream(self, bid_stream):
        svc = service_with_empty_source(schema=bid_stream.schema, name="Bid")
        query = svc.submit(
            "alice", WINDOWED_MAX, config=ExecutionConfig(parallelism=3)
        )
        assert query.sharded
        for event in bid_stream.events():
            svc.ingest(event, "Bid")
        eng = StreamEngine()
        eng.register_stream("Bid", bid_stream)
        expected = eng.query(WINDOWED_MAX).run().changes
        assert query.flow.output_slice_of(query.output_id) == expected

    @settings(max_examples=25, deadline=None)
    @given(
        events=event_histories(),
        parallelism=st.sampled_from([1, 2, 4]),
    )
    def test_service_feeding_equals_oneshot(self, events, parallelism):
        """The acceptance property: serve-mode ingest == one-shot replay."""
        svc = service_with_empty_source(
            config=ExecutionConfig(parallelism=parallelism, backend="sync")
        )
        query = svc.submit("t", KEYED_WINDOW_SUM)
        assert query.sharded == (parallelism > 1)
        for event in events:
            svc.ingest(event, "S")
        assert query.flow.output_slice_of(query.output_id) == oneshot_changes(
            events, KEYED_WINDOW_SUM, parallelism
        )

    def test_unrelated_source_events_keep_equivalence(self, bid_stream):
        """Events of sources a query never scans still advance its clock."""
        svc = service_with_empty_source(schema=bid_stream.schema, name="Bid")
        svc.register_stream("Other", TimeVaryingRelation(SCHEMA))
        query = svc.submit("t", WINDOWED_MAX)
        for i, event in enumerate(bid_stream.events()):
            svc.ingest(event, "Bid")
            if i == 3:
                svc.ingest(ins(event.ptime, (1, event.ptime, 5)), "Other")
        eng = StreamEngine()
        eng.register_stream("Bid", bid_stream)
        expected = eng.query(WINDOWED_MAX).run().changes
        assert query.flow.output_slice_of(query.output_id) == expected

    def test_late_registration_catches_up(self, bid_stream):
        """A query admitted mid-stream replays history before going live."""
        events = bid_stream.events()
        svc = service_with_empty_source(schema=bid_stream.schema, name="Bid")
        for event in events[: len(events) // 2]:
            svc.ingest(event, "Bid")
        query = svc.submit("late", WINDOWED_MAX)
        for event in events[len(events) // 2 :]:
            svc.ingest(event, "Bid")
        eng = StreamEngine()
        eng.register_stream("Bid", bid_stream)
        expected = eng.query(WINDOWED_MAX).run().changes
        assert query.flow.output_slice_of(query.output_id) == expected

    def test_coalesce_config_flows_through(self, bid_stream):
        config = ExecutionConfig(coalesce_updates=True)
        svc = service_with_empty_source(
            config=config, schema=bid_stream.schema, name="Bid"
        )
        query = svc.submit("t", WINDOWED_MAX)
        for event in bid_stream.events():
            svc.ingest(event, "Bid")
        eng = StreamEngine(config=config)
        eng.register_stream("Bid", bid_stream)
        with pytest.warns(UserWarning):
            expected = eng.query(WINDOWED_MAX).run().changes
        assert query.flow.output_slice_of(query.output_id) == expected


class TestSubscriptions:
    def test_subscribers_see_only_live_deltas(self, bid_stream):
        events = bid_stream.events()
        svc = service_with_empty_source(schema=bid_stream.schema, name="Bid")
        query = svc.submit("t", WINDOWED_MAX)
        for event in events[:6]:
            svc.ingest(event, "Bid")
        early_deltas = query.subscriptions.next_seq
        subscriber = svc.subscribe(query.query_id, "late-joiner")
        assert subscriber.cursor == early_deltas
        for event in events[6:]:
            svc.ingest(event, "Bid")
        taken = subscriber.take()
        assert [d.seq for d in taken] == list(
            range(early_deltas, query.subscriptions.next_seq)
        )
        assert subscriber.cursor == query.subscriptions.next_seq

    def test_delta_sequence_is_gap_free_and_changelog_aligned(self, bid_stream):
        svc = service_with_empty_source(schema=bid_stream.schema, name="Bid")
        query = svc.submit("t", WINDOWED_MAX)
        subscriber = svc.subscribe(query.query_id, "s")
        for event in bid_stream.events():
            svc.ingest(event, "Bid")
        deltas = subscriber.take()
        assert [d.seq for d in deltas] == list(range(len(deltas)))
        changes = query.flow.output_slice_of(query.output_id)
        assert [d.change for d in deltas] == changes

    def test_slow_consumer_is_evicted(self, bid_stream):
        svc = service_with_empty_source(
            config=ExecutionConfig(subscriber_capacity=2),
            schema=bid_stream.schema,
            name="Bid",
        )
        query = svc.submit("t", WINDOWED_MAX)
        slow = svc.subscribe(query.query_id, "slow")
        fast = svc.subscribe(query.query_id, "fast")
        for event in bid_stream.events():
            svc.ingest(event, "Bid")
            fast.take()  # drains every round; never evicted
        assert slow.evicted
        assert slow.depth == 0  # buffer released on eviction
        assert not fast.evicted
        assert query.subscriptions.evictions == 1
        assert query.subscriptions.live_count == 1

    def test_registry_publish_and_cursors_standalone(self):
        registry = SubscriptionRegistry(default_capacity=8)
        a = registry.subscribe("a")
        from repro.core.changelog import Change, ChangeKind

        changes = [Change(ChangeKind.INSERT, (i,), 1000 + i) for i in range(3)]
        registry.publish(changes)
        b = registry.subscribe("b")  # joins at the live edge
        assert b.cursor == 3
        assert [d.seq for d in a.take(2)] == [0, 1]
        assert a.cursor == 2
        assert [d.seq for d in a.take()] == [2]
        assert registry.delivered == 3


class TestDurability:
    def test_checkpoint_restore_resumes_byte_identical(
        self, bid_stream, tmp_path
    ):
        events = bid_stream.events()
        half = len(events) // 2
        svc = service_with_empty_source(schema=bid_stream.schema, name="Bid")
        query = svc.submit("alice", WINDOWED_MAX)
        for event in events[:half]:
            svc.ingest(event, "Bid")
        svc.checkpoint(str(tmp_path))

        resumed = StandingQueryService()
        assert resumed.resume(str(tmp_path)) == 1
        restored = resumed.session.get(query.query_id)
        assert restored.tenant == "alice"
        assert resumed.session.source_offsets == {"bid": half}
        for event in events[half:]:
            resumed.ingest(event, "Bid")
        eng = StreamEngine()
        eng.register_stream("Bid", bid_stream)
        assert restored.flow.output_slice_of(restored.output_id) == (
            eng.query(WINDOWED_MAX).run().changes
        )

    def test_restore_preserves_delta_sequence(self, bid_stream, tmp_path):
        events = bid_stream.events()
        half = len(events) // 2
        svc = service_with_empty_source(schema=bid_stream.schema, name="Bid")
        query = svc.submit("t", WINDOWED_MAX)
        for event in events[:half]:
            svc.ingest(event, "Bid")
        seq_before = query.subscriptions.next_seq
        svc.checkpoint(str(tmp_path))

        resumed = StandingQueryService()
        resumed.resume(str(tmp_path))
        restored = resumed.session.get(query.query_id)
        subscriber = resumed.subscribe(query.query_id, "s")
        assert subscriber.cursor == seq_before
        for event in events[half:]:
            resumed.ingest(event, "Bid")
        # post-restore deltas continue the pre-crash numbering, gap-free
        assert [d.seq for d in subscriber.take()] == list(
            range(seq_before, restored.subscriptions.next_seq)
        )

    def test_restore_reapplies_current_policies(self, bid_stream, tmp_path):
        from repro.service import AdmissionError, TenantPolicy

        svc = service_with_empty_source(schema=bid_stream.schema, name="Bid")
        svc.submit("alice", WINDOWED_MAX)
        svc.checkpoint(str(tmp_path))

        locked = StandingQueryService(
            policies={
                "alice": TenantPolicy(
                    name="alice", allowed_tables=frozenset()
                )
            }
        )
        with pytest.raises(AdmissionError) as exc_info:
            locked.resume(str(tmp_path))
        assert exc_info.value.code == "acl_denied"

    def test_auto_checkpoint_on_interval(self, bid_stream, tmp_path):
        from repro.runtime.supervisor import RetryPolicy

        config = ExecutionConfig(
            retry=RetryPolicy(checkpoint_interval=4),
            checkpoint_dir=str(tmp_path),
        )
        svc = service_with_empty_source(
            config=config, schema=bid_stream.schema, name="Bid"
        )
        svc.submit("t", WINDOWED_MAX)
        for event in bid_stream.events():
            svc.ingest(event, "Bid")
        assert svc.session.checkpoints_taken == len(bid_stream.events()) // 4
        assert os.path.exists(tmp_path / "manifest.json")

    def _sharded_service_cut_twice(self, directory, history, tail=16):
        """A sharded standing query cut after ``history`` events and again
        ``tail`` events later; returns (service, query, events, bytes
        the second cut wrote)."""
        events = steady_events(history + tail + 64)
        svc = service_with_empty_source(
            config=ExecutionConfig(parallelism=2, backend="sync")
        )
        query = svc.submit("t", KEYED_WINDOW_SUM)
        assert query.sharded
        for event in events[:history]:
            svc.ingest(event, "S")
        svc.checkpoint(str(directory))
        before = svc.session.checkpoint_bytes_total
        for event in events[history:history + tail]:
            svc.ingest(event, "S")
        svc.checkpoint(str(directory))
        return svc, query, events, svc.session.checkpoint_bytes_total - before

    def test_sharded_cuts_append_and_cost_what_they_gained(self, tmp_path):
        """A sharded query's second cut into one directory costs O(events
        since the first), not O(history) (ROADMAP 1(c)): its changelog
        rides the same segment log as a serial query's, and its flow
        blob carries no changelog at any level."""
        import json
        import pickle

        short = tmp_path / "short"
        svc, query, events, short_cost = self._sharded_service_cut_twice(
            short, history=160
        )
        _, long_query, _, long_cost = self._sharded_service_cut_twice(
            tmp_path / "long", history=1600
        )
        # 10x the history: the cut no longer rewrites the changelog (the
        # parent wrote 6.6x the short cut here; what still grows is the
        # watermark tracks, as in a serial flow's blob).
        assert long_cost < 3 * short_cost
        changelog = encode_changes(long_query.flow.output_slice_of("q1"))
        assert long_cost < len(pickle.dumps(changelog)) / 2

        with open(short / "manifest.json") as fh:
            manifest = json.load(fh)
        (spec,) = manifest["queries"]
        assert spec["log"]["segments"] == 2
        assert spec["log"]["items"] == query.flow.output_size_of("q1") > 0
        with open(short / manifest["flows"][0]["state"], "rb") as fh:
            payload = pickle.load(fh)
        assert all(out["merged"] is None for out in payload["outputs"].values())
        for blob in payload["shards"]:
            outputs = pickle.loads(blob)["outputs"].values()
            assert all(out["size"] == 0 for out in outputs)

        resumed = StandingQueryService(
            config=ExecutionConfig(parallelism=2, backend="sync")
        )
        assert resumed.resume(str(short)) == 1
        assert resumed.session.get("q1").sharded
        for event in events[160 + 16:]:
            assert resumed.ingest(event, "S") == svc.ingest(event, "S")
        assert resumed.session.get("q1").flow.output_slice_of("q1") == (
            oneshot_changes(events, KEYED_WINDOW_SUM)
        )

    def test_checkpoint_without_directory_is_an_error(self, bid_stream):
        from repro.core.errors import ExecutionError

        svc = service_with_empty_source(schema=bid_stream.schema, name="Bid")
        with pytest.raises(ExecutionError):
            svc.checkpoint()


class TestRegistry:
    def test_explicit_id_collision_is_an_error(self, bid_stream):
        from repro.core.errors import ExecutionError

        svc = service_with_empty_source(schema=bid_stream.schema, name="Bid")
        svc.submit("t", WINDOWED_MAX, query_id="mine")
        with pytest.raises(ExecutionError):
            svc.submit("t", WINDOWED_MAX, query_id="mine")

    def test_withdraw_frees_quota(self, bid_stream):
        from repro.service import TenantPolicy

        svc = service_with_empty_source(schema=bid_stream.schema, name="Bid")
        svc.gateway.set_policy(
            TenantPolicy(name="small", max_standing_queries=1)
        )
        query = svc.submit("small", WINDOWED_MAX)
        assert svc.withdraw(query.query_id)
        svc.submit("small", WINDOWED_MAX)  # admitted again

    def test_ingest_to_unknown_source_is_an_error(self, bid_stream):
        from repro.core.errors import ExecutionError

        svc = service_with_empty_source(schema=bid_stream.schema, name="Bid")
        with pytest.raises(ExecutionError):
            svc.ingest(ins(1, (1, 1, 1)), "Ghost")


class TestPublishWhatChanged:
    """``ingest`` publishes the outputs the event touched, in
    registration order; resident queries that produced nothing cost it
    nothing."""

    IDLE = (
        "SELECT k, wend, SUM(v) AS total FROM Tumble(data => TABLE(S), "
        "timecol => DESCRIPTOR(ts), dur => INTERVAL '{n}' MINUTE) TS "
        "WHERE v < -{n} GROUP BY k, wend EMIT STREAM"
    )

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_publish_calls_equal_outputs_that_changed(
        self, parallelism, monkeypatch
    ):
        from repro.service import TenantPolicy
        from repro.service.session import StandingQuery

        config = ExecutionConfig(parallelism=parallelism, backend="sync")
        svc = StandingQueryService(
            config=config,
            default_policy=TenantPolicy(name="*", max_standing_queries=512),
        )
        svc.register_stream("S", TimeVaryingRelation(SCHEMA))
        early = steady_events(24)
        for event in early:  # history for the late submits to catch up on
            svc.ingest(event, "S")
        busy = svc.submit("t", KEYED_WINDOW_SUM, query_id="busy")
        for n in range(256):
            svc.submit(f"t{n % 4}", self.IDLE.format(n=2 + n), query_id=f"idle{n}")
        also_busy = svc.submit("t", KEYED_WINDOW_SUM.replace("SUM", "MAX"))
        queries = svc.session.queries()
        assert len(queries) == 258

        calls = []
        real = StandingQuery.publish_pending
        monkeypatch.setattr(
            StandingQuery, "publish_pending",
            lambda query: calls.append(query.query_id) or real(query),
        )
        total = 0
        for event in steady_events(64)[24:]:
            before = {q.query_id: q.flow.output_size_of(q.output_id) for q in queries}
            del calls[:]
            published = svc.ingest(event, "S")
            changed = [
                q.query_id for q in queries
                if q.flow.output_size_of(q.output_id) > before[q.query_id]
            ]
            assert calls == changed  # registration order, nothing idle
            assert list(published) == changed
            total += len(changed)
        assert total > 0
        assert also_busy.subscriptions.next_seq > 0
        # and what was published is the one-shot changelog, late join included
        expected = oneshot_changes(steady_events(64), KEYED_WINDOW_SUM)
        assert busy.flow.output_slice_of("busy") == expected


class TestRefusedIngest:
    """An event earlier than the session clock — the latest instant of
    *any* source — is refused before anything moves: not the source's
    recorded TVR (which late joiners replay), not the offsets, not the
    ingest count, and not any flow."""

    RESIDENT = "SELECT A.k, A.v FROM A EMIT STREAM"

    @staticmethod
    def two_source_service():
        svc = StandingQueryService()
        for name in ("A", "B"):
            svc.register_stream(name, TimeVaryingRelation(SCHEMA))
        return svc

    def test_a_refused_event_leaves_the_session_where_it_was(self):
        from repro.core.errors import ExecutionError

        svc = self.two_source_service()
        resident = svc.submit("t", self.RESIDENT)
        svc.ingest(ins(100, (1, 5, 10)), "B")
        before = (dict(svc.session.source_offsets), svc.session.events_ingested)
        with pytest.raises(ExecutionError, match="processing-time order"):
            svc.ingest(ins(50, (2, 5, 20)), "A")
        assert (dict(svc.session.source_offsets), svc.session.events_ingested) == before
        assert svc.engine._sources["a"].events() == []
        svc.ingest(ins(150, (3, 5, 30)), "A")
        late = svc.submit("t", self.RESIDENT.replace("EMIT", " EMIT"))
        changelog = [
            query.flow.output_slice_of(query.output_id, 0)
            for query in (resident, late)
        ]
        assert changelog[0] == changelog[1]
        assert [(c.values, c.ptime) for c in changelog[1]] == [((3, 30), 150)]
        assert svc.session.source_offsets == {"b": 1, "a": 1}

    def test_the_wire_ingest_op_answers_with_an_error_and_serves_on(self):
        import asyncio
        import json

        from repro.io import format_jsonl
        from repro.service import ServiceServer

        svc = self.two_source_service()

        def line(event):
            (text,) = [
                row for row in format_jsonl(
                    TimeVaryingRelation(SCHEMA, [event])
                ).splitlines() if "schema" not in row
            ]
            return text

        async def drive():
            server = ServiceServer(svc, "127.0.0.1", 0)
            await server.start()
            reader, writer = await asyncio.open_connection(*server.address)

            async def rpc(payload):
                writer.write((json.dumps(payload) + "\n").encode())
                await writer.drain()
                return json.loads(await reader.readline())

            try:
                submitted = await rpc({"op": "submit", "tenant": "t", "sql": self.RESIDENT})
                replies = [
                    await rpc({"op": "ingest", "source": name, "event": line(event)})
                    for name, event in (
                        ("B", ins(100, (1, 5, 10))),
                        ("A", ins(50, (2, 5, 20))),
                        ("A", ins(150, (3, 5, 30))),
                    )
                ]
                return submitted, replies, await rpc({"op": "ping"})
            finally:
                writer.close()
                await server.stop()

        submitted, (first, refused, after), ping = asyncio.run(drive())
        assert submitted["ok"] and first["ok"]
        assert not refused["ok"]
        assert "processing-time order" in refused["error"]["detail"]
        assert after == {"ok": True, "published": {submitted["query"]: 1}}
        assert ping == {"ok": True}
        assert svc.session.source_offsets == {"b": 1, "a": 1}

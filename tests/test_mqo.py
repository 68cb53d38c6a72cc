"""Multi-query optimization: shared-subplan DAG execution.

Three layers under test, mirroring docs/MQO.md:

* canonical plan fingerprints (``repro.plan.fingerprint``) — alias-
  invariant, but never merging plans that differ in window spec,
  aggregate, source, or EMIT clause;
* the session-level :class:`~repro.service.session.SharedPlanCache` —
  overlapping standing queries graft onto one dataflow, the shared
  prefix runs once per ingested event, and withdrawing one sharer
  leaves the survivors' operator state untouched;
* the load-bearing equivalence: every subscriber's delta stream is
  **byte-identical** (values, ``ptime``, undo/ver metadata, ordering)
  with sharing on or off, serial and sharded, across
  checkpoint/restore.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionConfig, StreamEngine
from repro.core.schema import Schema, int_col, timestamp_col
from repro.core.tvr import TimeVaryingRelation, ins, wm
from repro.exec.operators.stateless import ScanOperator
from repro.plan import node_fingerprint, plan_fingerprint
from repro.service import StandingQueryService
from repro.service.session import SharedPlanCache

MINUTE = 60_000

SCHEMA = Schema([int_col("k"), timestamp_col("ts", event_time=True), int_col("v")])

TUMBLE = (
    "Tumble(data => TABLE(S), timecol => DESCRIPTOR(ts), "
    "dur => INTERVAL '2' MINUTE)"
)

Q_SUM = (
    f"SELECT k, wend, SUM(v) AS total FROM {TUMBLE} TS "
    "GROUP BY k, wend EMIT STREAM"
)
#: Q_SUM with different output aliases only — must fingerprint equal.
Q_SUM_ALIASED = (
    f"SELECT k, wend, SUM(v) AS sum_of_v FROM {TUMBLE} TS "
    "GROUP BY k, wend EMIT STREAM"
)
#: same window prefix, different aggregate — shares the window subtree.
Q_MAX = (
    f"SELECT k, wend, MAX(v) AS mx FROM {TUMBLE} TS "
    "GROUP BY k, wend EMIT STREAM"
)
#: 3-minute window: same shape, different spec — must NOT merge.
Q_SUM_3MIN = (
    "SELECT k, wend, SUM(v) AS total FROM Tumble(data => TABLE(S), "
    "timecol => DESCRIPTOR(ts), dur => INTERVAL '3' MINUTE) TS "
    "GROUP BY k, wend EMIT STREAM"
)
Q_SUM_TABLE = (
    f"SELECT k, wend, SUM(v) AS total FROM {TUMBLE} TS GROUP BY k, wend"
)

QUERY_POOL = [Q_SUM, Q_SUM_ALIASED, Q_MAX, Q_SUM_3MIN]


def make_events(n, start=1_000_000):
    """A deterministic keyed stream with periodic watermarks."""
    events, ptime, wm_value = [], start, 0
    for i in range(n):
        ptime += 15_000
        if i % 5 == 4:
            wm_value += 2 * MINUTE
            events.append(wm(ptime, wm_value))
        else:
            events.append(ins(ptime, (i % 3, (i * 37_000) % (10 * MINUTE), i)))
    return events


def service_with_source(config=None, max_queries=8):
    from repro.service.admission import TenantPolicy

    svc = StandingQueryService(
        config=config,
        default_policy=TenantPolicy(name="*", max_standing_queries=max_queries),
    )
    svc.register_stream("S", TimeVaryingRelation(SCHEMA))
    return svc


def oneshot_changes(events, sql, parallelism=1):
    eng = StreamEngine(
        config=ExecutionConfig(parallelism=parallelism, backend="sync")
    )
    eng.register_stream("S", TimeVaryingRelation(SCHEMA, events))
    return eng.query(sql).run().changes


def query_changes(query):
    return query.flow.output_slice_of(query.output_id, 0)


class TestFingerprints:
    def plan_for(self, sql):
        svc = service_with_source()
        return svc.gateway.admit("t", sql)

    def test_column_aliases_do_not_change_the_fingerprint(self):
        assert plan_fingerprint(self.plan_for(Q_SUM)) == plan_fingerprint(
            self.plan_for(Q_SUM_ALIASED)
        )

    def test_aggregate_function_changes_the_fingerprint(self):
        assert plan_fingerprint(self.plan_for(Q_SUM)) != plan_fingerprint(
            self.plan_for(Q_MAX)
        )

    def test_window_size_changes_the_fingerprint(self):
        assert plan_fingerprint(self.plan_for(Q_SUM)) != plan_fingerprint(
            self.plan_for(Q_SUM_3MIN)
        )

    def test_source_identity_changes_the_fingerprint(self):
        svc = StandingQueryService()
        svc.register_stream("S", TimeVaryingRelation(SCHEMA))
        svc.register_stream("S2", TimeVaryingRelation(SCHEMA))
        a = svc.gateway.admit("t", Q_SUM)
        b = svc.gateway.admit("t", Q_SUM.replace("TABLE(S)", "TABLE(S2)"))
        assert plan_fingerprint(a) != plan_fingerprint(b)

    def test_emit_clause_splits_plan_but_not_root_node(self):
        stream = self.plan_for(Q_SUM)
        table = self.plan_for(Q_SUM_TABLE)
        assert node_fingerprint(stream.root) == node_fingerprint(table.root)
        assert plan_fingerprint(stream) != plan_fingerprint(table)

    def test_lateness_gates_sharing_through_the_config_key(self):
        plan = self.plan_for(Q_SUM)
        base = ExecutionConfig().resolved()
        late = ExecutionConfig(allowed_lateness=MINUTE).resolved()
        assert SharedPlanCache.config_key(plan, base) != (
            SharedPlanCache.config_key(plan, late)
        )


class TestSharing:
    def test_identical_queries_share_one_flow(self):
        svc = service_with_source()
        q1 = svc.submit("alice", Q_SUM)
        q2 = svc.submit("bob", Q_SUM_ALIASED)
        assert q1.flow is q2.flow
        assert q1.flow.shared_operator_count() == (
            q1.flow.resident_operator_count()
        )
        assert q2.describe()["shared_with"] == [q1.query_id]
        assert len(svc.session.plan_cache.records) == 1

    def test_share_plans_off_builds_private_flows(self):
        svc = service_with_source(config=ExecutionConfig(share_plans=False))
        q1 = svc.submit("alice", Q_SUM)
        q2 = svc.submit("bob", Q_SUM)
        assert q1.flow is not q2.flow
        assert svc.session.shared_subplans() == 0

    def test_sixteen_sharing_queries_run_the_shared_subplan_once(self):
        """The acceptance criterion: one scan execution per ingest,
        however many standing queries read through it."""
        svc = service_with_source(max_queries=32)
        queries = [svc.submit("t", Q_SUM) for _ in range(16)]
        flow = queries[0].flow
        assert all(q.flow is flow for q in queries)
        solo = service_with_source().submit("t", Q_SUM)
        assert flow.resident_operator_count() == (
            solo.flow.resident_operator_count()
        )
        events = make_events(40)
        from repro.core.tvr import RowEvent

        rows = sum(1 for e in events if isinstance(e, RowEvent))
        for event in events:
            svc.ingest(event, "S")
        scans = [op for op in flow.operators if isinstance(op, ScanOperator)]
        assert len(scans) == 1
        assert sum(scans[0].counters.rows_in) == rows  # once, not 16x

    def test_overlapping_prefix_shares_the_window_subtree(self):
        svc = service_with_source()
        q_sum = svc.submit("alice", Q_SUM)
        q_max = svc.submit("bob", Q_MAX)
        assert q_sum.flow is q_max.flow
        shared = q_sum.flow.shared_operator_count()
        assert 1 <= shared < q_sum.flow.resident_operator_count()
        events = make_events(40)
        for event in events:
            svc.ingest(event, "S")
        assert query_changes(q_sum) == oneshot_changes(events, Q_SUM)
        assert query_changes(q_max) == oneshot_changes(events, Q_MAX)

    def test_different_window_spec_never_merges(self):
        svc = service_with_source()
        q1 = svc.submit("alice", Q_SUM)
        q2 = svc.submit("bob", Q_SUM_3MIN)
        # The scan leaf still matches, so the flows may share it — but
        # the window operators must stay distinct.
        if q1.flow is q2.flow:
            assert q1.flow.resident_operator_count() > (
                service_with_source()
                .submit("t", Q_SUM)
                .flow.resident_operator_count()
            )
        events = make_events(40)
        for event in events:
            svc.ingest(event, "S")
        assert query_changes(q1) == oneshot_changes(events, Q_SUM)
        assert query_changes(q2) == oneshot_changes(events, Q_SUM_3MIN)

    def test_spellings_that_run_alike_share_one_flow(self):
        """At ``batch_size=1`` ``columnar="off"`` and ``"auto"`` both run
        rows: the config key is what the flow does, so the pair shares
        one flow — and each query's deltas are byte-identical to an
        unshared run of its own config."""
        base = dict(backend="sync", batch_size=1)
        members = [("alice", Q_SUM, "off"), ("bob", Q_MAX, "auto")]
        events = make_events(60)

        def deltas(share):
            svc = service_with_source(
                ExecutionConfig(**base, share_plans=share)
            )
            queries = [
                svc.submit(tenant, sql, config=ExecutionConfig(columnar=value))
                for tenant, sql, value in members
            ]
            subscribers = [
                svc.subscribe(query.query_id, "sub") for query in queries
            ]
            taken = [[] for _ in queries]
            for event in events:
                svc.ingest(event, "S")
                for got, subscriber in zip(taken, subscribers):
                    got += [(d.seq, d.change) for d in subscriber.take()]
            return queries, taken

        shared, shared_deltas = deltas(True)
        assert shared[0].flow is shared[1].flow
        assert not shared[0].flow._columnar_active
        private, private_deltas = deltas(False)
        assert private[0].flow is not private[1].flow
        assert shared_deltas == private_deltas
        assert all(shared_deltas)
        for (_, sql, _), query in zip(members, shared):
            assert query_changes(query) == oneshot_changes(events, sql)

    def test_lateness_mismatch_blocks_sharing(self):
        svc = service_with_source()
        q1 = svc.submit("alice", Q_SUM)
        q2 = svc.submit(
            "bob", Q_SUM, config=ExecutionConfig(allowed_lateness=MINUTE)
        )
        assert q1.flow is not q2.flow

    def test_late_joiner_catches_up_through_the_donor(self):
        """A query submitted mid-stream grafts on with transplanted
        state and history, and stays byte-equal from then on."""
        events = make_events(60)
        svc = service_with_source()
        q1 = svc.submit("alice", Q_SUM)
        for event in events[:30]:
            svc.ingest(event, "S")
        q2 = svc.submit("bob", Q_MAX)
        assert q2.flow is q1.flow
        for event in events[30:]:
            svc.ingest(event, "S")
        assert query_changes(q1) == oneshot_changes(events, Q_SUM)
        assert query_changes(q2) == oneshot_changes(events, Q_MAX)


    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_a_graft_adopts_the_donors_history_instead_of_copying_it(
        self, parallelism
    ):
        """The donor is a throwaway: the grafted channel's log *is* the
        donor's object (serial and sharded alike), and the late joiner's
        deltas are what a private flow would have published."""
        events = make_events(60)
        svc, private = (
            service_with_source(
                ExecutionConfig(
                    parallelism=parallelism, backend="sync", share_plans=share
                )
            )
            for share in (True, False)
        )
        q1 = svc.submit("alice", Q_SUM)
        private.submit("alice", Q_SUM)
        for event in events[:30]:
            svc.ingest(event, "S")
            private.ingest(event, "S")
        donors = []
        attach = q1.flow.attach_output

        def spying_attach(output_id, plan, donor=None, **kwargs):
            donors.append(donor)
            return attach(output_id, plan, donor=donor, **kwargs)

        q1.flow.attach_output = spying_attach
        q2 = svc.submit("bob", Q_MAX)
        private.submit("bob", Q_MAX)
        assert q2.flow is q1.flow
        (donor,) = donors
        assert q2.flow._outputs[q2.output_id].log is (
            donor._outputs[donor._primary].log
        )
        assert q2.cursor == len(oneshot_changes(events[:30], Q_MAX))
        for event in events[30:]:
            assert svc.ingest(event, "S") == private.ingest(event, "S")
        assert query_changes(q2) == oneshot_changes(events, Q_MAX)


def _window(select, minutes):
    return (
        f"SELECT {select} FROM Tumble(data => TABLE(S), "
        f"timecol => DESCRIPTOR(ts), dur => INTERVAL '{minutes}' MINUTE) TS "
        "GROUP BY wend EMIT STREAM"
    )


#: eight aggregates over one window, as on the suite's ``live.queries``:
#: they share the scan and the window step; each aggregate reads its
#: argument column through the projection it absorbed
EIGHT_OVER_ONE_WINDOW = [
    _window(f"wend, {aggregate} AS x", 2)
    for aggregate in (
        "MAX(v)", "MIN(v)", "COUNT(*)", "SUM(v)", "AVG(v)", "MAX(k)",
        "MIN(k)", "SUM(k)",
    )
]


class TestAbsorptionTradeOff:
    """What a flow shares once its aggregates absorb their
    column-selecting Projects — at every batch size, since every flow
    compiles its plan fused."""

    def flow_of(self, queries, batch_size):
        svc = service_with_source(
            config=ExecutionConfig(batch_size=batch_size), max_queries=32
        )
        submitted = [svc.submit("t", sql) for sql in queries]
        assert all(q.flow is submitted[0].flow for q in submitted)
        return svc, submitted[0].flow

    def aggregates(self, flow):
        return sum(type(op).__name__ == "AggregateOperator" for op in flow.operators)

    @pytest.mark.parametrize(
        "batch_size, before, after, aggregates",
        # a tumble step and one aggregate per SELECT list
        [(1, 10, 13, 10), (64, 10, 13, 10)],
    )
    def test_select_lists_that_differ_no_longer_share_an_aggregate(
        self, batch_size, before, after, aggregates
    ):
        svc, flow = self.flow_of(EIGHT_OVER_ONE_WINDOW, batch_size)
        assert flow.resident_operator_count() == before
        for sql in (_window("wend, MAX(v) AS x", 3), _window("MAX(v) AS x, wend", 3)):
            assert svc.submit("t", sql).flow is flow
        assert flow.resident_operator_count() == after
        assert self.aggregates(flow) == aggregates

    @pytest.mark.parametrize("batch_size, shared", [(1, 2), (64, 2)])
    def test_shared_subplans_counts_what_is_left_to_share(self, batch_size, shared):
        """The eight share the scan and the window step; the
        pre-projections of ``v`` and of ``k`` are inside the aggregates
        — nothing is lost, there is less to count."""
        svc, flow = self.flow_of(EIGHT_OVER_ONE_WINDOW, batch_size)
        assert svc.session.shared_subplans() == shared
        queries = list(svc.session.queries())
        events = make_events(60)
        for event in events:
            svc.ingest(event, "S")
        for sql, query in zip(EIGHT_OVER_ONE_WINDOW, queries):
            assert query_changes(query) == oneshot_changes(events, sql)


class TestWithdrawal:
    def test_withdrawing_one_sharer_preserves_the_survivor(self):
        """The regression this PR fixes: teardown of a withdrawn query
        must not reset shared operator state under the survivor."""
        events = make_events(60)
        svc = service_with_source()
        q1 = svc.submit("alice", Q_SUM)
        q2 = svc.submit("bob", Q_SUM_ALIASED)
        assert q1.flow is q2.flow
        for event in events[:30]:
            svc.ingest(event, "S")
        assert svc.withdraw(q1.query_id)
        for event in events[30:]:
            svc.ingest(event, "S")
        assert query_changes(q2) == oneshot_changes(events, Q_SUM_ALIASED)

    def test_withdrawing_an_interior_sharer_preserves_the_survivor(self):
        events = make_events(60)
        svc = service_with_source()
        q_sum = svc.submit("alice", Q_SUM)
        q_max = svc.submit("bob", Q_MAX)
        flow = q_max.flow
        before = flow.resident_operator_count()
        for event in events[:30]:
            svc.ingest(event, "S")
        assert svc.withdraw(q_sum.query_id)
        # the private suffix of the withdrawn query is gone, the shared
        # prefix survives with its refcount back at one
        assert flow.resident_operator_count() < before
        assert flow.shared_operator_count() == 0
        for event in events[30:]:
            svc.ingest(event, "S")
        assert query_changes(q_max) == oneshot_changes(events, Q_MAX)

    def test_withdrawing_every_member_drops_the_flow(self):
        svc = service_with_source()
        q1 = svc.submit("alice", Q_SUM)
        q2 = svc.submit("bob", Q_SUM)
        svc.withdraw(q1.query_id)
        svc.withdraw(q2.query_id)
        assert svc.session.plan_cache.records == []


def root_of(query):
    """The operator a serial standing query's output channel is rooted at."""
    return query.flow._outputs[query.output_id].root


class TestFingerprintBookkeeping:
    """Root sharing is a lookup in the plan fingerprints a flow record
    keeps for its members — kept up to date by adoption, withdrawal and
    resume, and taken once per joiner."""

    def test_a_withdrawn_member_stops_vouching_for_its_plan(self):
        events = make_events(60)
        svc = service_with_source()
        q_sum = svc.submit("alice", Q_SUM)
        table = svc.submit("bob", Q_SUM_TABLE)  # same root node, other EMIT
        assert table.flow is q_sum.flow and root_of(table) is not root_of(q_sum)
        for event in events[:30]:
            svc.ingest(event, "S")
        svc.withdraw(q_sum.query_id)
        again = svc.submit("carol", Q_SUM)  # only the table view is left
        assert again.flow is table.flow
        assert root_of(again) is not root_of(table)
        resident = again.flow.resident_operator_count()
        aliased = svc.submit("dave", Q_SUM_ALIASED)  # ``again``'s whole plan
        assert again.flow.resident_operator_count() == resident  # root shared
        assert root_of(aliased) is root_of(again)  # with the member that vouched
        for event in events[30:]:
            svc.ingest(event, "S")
        for query, sql in ((again, Q_SUM), (aliased, Q_SUM_ALIASED),
                           (table, Q_SUM_TABLE)):
            assert query_changes(query) == oneshot_changes(events, sql)

    def test_resumed_members_vouch_for_their_plans(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        config = ExecutionConfig(checkpoint_dir=directory)
        events = make_events(60)
        svc = service_with_source(config=config)
        q_sum = svc.submit("alice", Q_SUM)
        table = svc.submit("bob", Q_SUM_TABLE)
        for event in events[:30]:
            svc.ingest(event, "S")
        svc.checkpoint()
        resumed = StandingQueryService(config=config)
        assert resumed.resume() == 2
        r_sum, r_table = (resumed.session.get(q.query_id) for q in (q_sum, table))
        flow = r_sum.flow
        resident = flow.resident_operator_count()
        joiners = [
            resumed.submit("carol", Q_SUM_ALIASED),
            resumed.submit("dave", Q_SUM_TABLE),
        ]
        assert {id(q.flow) for q in joiners} == {id(flow)}
        assert flow.resident_operator_count() == resident  # both root-shared
        resumed.withdraw(r_sum.query_id)
        resumed.withdraw(joiners[0].query_id)
        resident = flow.resident_operator_count()
        lone = resumed.submit("erin", Q_SUM)  # no member's whole plan
        assert lone.flow is flow
        assert flow.resident_operator_count() == resident + 1
        for event in events[30:]:
            resumed.ingest(event, "S")
        for query, sql in ((r_table, Q_SUM_TABLE), (joiners[1], Q_SUM_TABLE),
                           (lone, Q_SUM)):
            assert query_changes(query) == oneshot_changes(events, sql)

    def test_a_graft_onto_sixteen_members_fingerprints_the_joiner_once(
        self, monkeypatch
    ):
        from repro.service import session

        svc = service_with_source(max_queries=32)
        members = [svc.submit("alice", QUERY_POOL[i % 4]) for i in range(16)]
        assert len({id(q.flow) for q in members}) == 1
        for event in make_events(30):
            svc.ingest(event, "S")
        calls = []
        real = session.plan_fingerprint
        monkeypatch.setattr(
            session, "plan_fingerprint", lambda plan: calls.append(plan) or real(plan)
        )
        for sql in (Q_SUM, Q_MAX, Q_SUM_TABLE):
            calls.clear()
            joiner = svc.submit("bob", sql)
            assert joiner.flow is members[0].flow
            assert len(calls) <= 1
            svc.withdraw(joiner.query_id)

    def test_an_unshared_register_takes_no_fingerprint(self, monkeypatch):
        from repro.service import session

        svc = service_with_source(config=ExecutionConfig(share_plans=False))
        calls = []
        real = session.plan_fingerprint
        monkeypatch.setattr(
            session, "plan_fingerprint", lambda plan: calls.append(plan) or real(plan)
        )
        for sql in (Q_SUM, Q_SUM, Q_MAX):
            svc.submit("alice", sql)
        assert calls == []


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


class TestShareEquivalence:
    """The invariant: shared == unshared, byte for byte."""

    @settings(max_examples=15, deadline=None)
    @given(
        events=event_histories(),
        parallelism=st.sampled_from([1, 2]),
        split=st.integers(min_value=0, max_value=40),
    )
    def test_shared_deltas_equal_unshared_deltas(
        self, events, parallelism, split
    ):
        config = ExecutionConfig(parallelism=parallelism, backend="sync")
        shared = service_with_source(config=config)
        unshared = service_with_source(
            config=ExecutionConfig(
                parallelism=parallelism, backend="sync", share_plans=False
            )
        )
        split = min(split, len(events))
        # stagger admissions across the stream so donor transplants and
        # cold starts are both exercised
        first, rest = QUERY_POOL[:2], QUERY_POOL[2:]
        pairs = []
        for sql in first:
            pairs.append((shared.submit("t", sql), unshared.submit("t", sql)))
        for event in events[:split]:
            shared.ingest(event, "S")
            unshared.ingest(event, "S")
        for sql in rest:
            pairs.append((shared.submit("t", sql), unshared.submit("t", sql)))
        for event in events[split:]:
            shared.ingest(event, "S")
            unshared.ingest(event, "S")
        for q_shared, q_unshared in pairs:
            assert query_changes(q_shared) == query_changes(q_unshared)


class TestSharingDurability:
    def run_checkpoint_cycle(self, tmp_path, parallelism):
        directory = str(tmp_path / "ckpt")
        config = ExecutionConfig(
            parallelism=parallelism, backend="sync", checkpoint_dir=directory
        )
        events = make_events(60)
        svc = service_with_source(config=config)
        ids = [
            svc.submit("alice", Q_SUM).query_id,
            svc.submit("bob", Q_SUM_ALIASED).query_id,
            svc.submit("carol", Q_MAX).query_id,
        ]
        for event in events[:30]:
            svc.ingest(event, "S")
        svc.checkpoint()

        with open(os.path.join(directory, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert ids[0] in {entry["id"] for entry in manifest["flows"]}
        (entry,) = [e for e in manifest["flows"] if e["id"] == ids[0]]
        assert set(entry["members"]) >= {ids[0], ids[1]}
        assert set(entry["sharing"]) == set(entry["members"])

        resumed = StandingQueryService(config=config)
        count = resumed.resume()
        assert count == 3
        q1, q2, q3 = (resumed.session.get(i) for i in ids)
        assert q1.flow is q2.flow  # sharing structure survived restore
        for event in events[30:]:
            resumed.ingest(event, "S")
        assert query_changes(q1) == oneshot_changes(events, Q_SUM)
        assert query_changes(q2) == oneshot_changes(events, Q_SUM_ALIASED)
        assert query_changes(q3) == oneshot_changes(events, Q_MAX)

    def test_serial_restore_preserves_sharing_and_equivalence(self, tmp_path):
        self.run_checkpoint_cycle(tmp_path, parallelism=1)

    def test_sharded_restore_preserves_sharing_and_equivalence(self, tmp_path):
        self.run_checkpoint_cycle(tmp_path, parallelism=2)


class TestObservability:
    def test_scrape_exposes_sharing_families(self):
        from repro.obs.export import parse_exposition

        svc = service_with_source()
        svc.submit("alice", Q_SUM)
        svc.submit("bob", Q_SUM)
        text = svc.scrape()
        families = parse_exposition(text)
        assert "repro_service_shared_subplans" in families
        assert "repro_service_sharing_ratio" in families
        assert svc.session.shared_subplans() > 0
        assert svc.session.sharing_ratio() == pytest.approx(2.0)
        assert (
            f"repro_service_shared_subplans {svc.session.shared_subplans()}"
            in text
        )

    def test_metrics_report_annotates_shared_operators(self):
        svc = service_with_source()
        q1 = svc.submit("alice", Q_SUM)
        svc.submit("bob", Q_SUM)
        for event in make_events(20):
            svc.ingest(event, "S")
        rendered = q1.flow.metrics_report(q1.output_id).render()
        assert "[shared ×2]" in rendered

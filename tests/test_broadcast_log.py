"""The broadcast log behind ``SubscriptionRegistry``.

One shared ring per standing query replaced one deque per subscriber;
these tests pin what must not have moved (the wire bytes, and every
observable of the old per-subscriber semantics, checked against a
reference model of it) and what the log newly promises (one encode per
delta, a ring bounded by the slowest live cursor).
"""

import json
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.changelog import Change, ChangeKind
from repro.service.subscriptions import (
    Delta,
    SubscriptionRegistry,
    encode_frame,
)


def changes(count, start=0):
    return [
        Change(ChangeKind.INSERT, (start + i,), 1000 + start + i)
        for i in range(count)
    ]


# -- (a) the wire bytes ---------------------------------------------------------


@pytest.mark.parametrize(
    "kind, values",
    [
        (ChangeKind.INSERT, (1, 2)),
        (ChangeKind.RETRACT, (1, 2)),
        (ChangeKind.INSERT, (None, 2.5, "naïve \"quoted\"\n")),
        (ChangeKind.RETRACT, (1e300, -0.0, "")),
    ],
)
def test_frame_bytes_are_the_documented_json_line(kind, values):
    delta = Delta(7, Change(kind, values, 8 * 60 * 1000))
    expected = (
        json.dumps({"query": "q1", "delta": delta.as_dict()}) + "\n"
    ).encode("utf-8")
    assert encode_frame("q1", delta) == expected

    registry = SubscriptionRegistry(query_id="q1")
    registry.seek(7)
    subscriber = registry.subscribe("s")
    registry.publish([delta.change])
    assert subscriber.take_frames() == expected
    assert json.loads(expected)["delta"]["kind"] == (
        "insert" if kind is ChangeKind.INSERT else "retract"
    )


def test_take_frames_joins_pending_frames_in_seq_order():
    registry = SubscriptionRegistry(query_id="q")
    early = registry.subscribe("early")
    registry.publish(changes(2))
    late = registry.subscribe("late")
    deltas = registry.publish(changes(3, start=2))
    assert late.take_frames() == b"".join(
        encode_frame("q", d) for d in deltas
    )
    lines = early.take_frames().splitlines()
    assert [json.loads(line)["delta"]["seq"] for line in lines] == [0, 1, 2, 3, 4]
    assert early.cursor == late.cursor == 5
    assert early.take_frames() == b""


# -- (b) one encode per delta, whatever the audience ------------------------------


@pytest.mark.parametrize("subscribers", [1, 32, 10_000])
def test_encodes_equal_published_deltas_at_any_subscriber_count(subscribers):
    registry = SubscriptionRegistry(query_id="hot")
    audience = [registry.subscribe(f"s{n}") for n in range(subscribers)]
    published = 0
    lines = 0
    for round_ in range(5):
        published += len(registry.publish(changes(3, start=3 * round_)))
        for subscriber in audience:
            lines += subscriber.take_frames().count(b"\n")
    assert registry.encoded_frames == published == 15
    assert lines == published * subscribers
    assert registry.delivered == published * subscribers


# -- (e) in-process consumers never pay for the wire -----------------------------


def test_in_process_take_never_encodes():
    registry = SubscriptionRegistry(query_id="q")
    a, b = registry.subscribe("a"), registry.subscribe("b")
    for round_ in range(10):
        registry.publish(changes(4, start=4 * round_))
        assert len(a.take(3)) == 3
        assert len(a.take()) == 1
        assert len(b.take()) == 4
    assert registry.encoded_frames == 0


def test_mixed_consumers_encode_each_delta_once():
    registry = SubscriptionRegistry(query_id="q")
    local, wire_a, wire_b = (registry.subscribe(n) for n in "lab")
    registry.publish(changes(5))
    assert len(local.take()) == 5
    assert wire_a.take_frames() == wire_b.take_frames()
    assert registry.encoded_frames == 5


# -- (d) what the ring retains -----------------------------------------------------


def test_nothing_is_retained_without_subscribers():
    registry = SubscriptionRegistry(default_capacity=4)
    registry.publish(changes(100))
    assert registry.retained == 0 and registry.next_seq == 100
    subscriber = registry.subscribe("s")
    registry.publish(changes(3, start=100))
    assert registry.retained == 3
    registry.unsubscribe("s")
    assert registry.retained == 0
    assert subscriber.take() == [] and subscriber.depth == 0


def test_ring_is_trimmed_to_the_slowest_live_cursor():
    registry = SubscriptionRegistry(default_capacity=8)
    slow, fast = registry.subscribe("slow"), registry.subscribe("fast")
    for round_ in range(4):
        registry.publish(changes(2, start=2 * round_))
        fast.take()
        assert registry.retained == slow.depth == 2 * (round_ + 1)
    slow.take(5)
    assert registry.retained == 3
    registry.publish(changes(6, start=8))  # slow lags 9 > 8: evicted
    assert slow.evicted and not fast.evicted
    assert registry.retained == fast.depth == 6
    assert registry.evictions == 1 and registry.live_count == 1


def test_resubscribing_an_id_replaces_the_old_cursor():
    registry = SubscriptionRegistry(default_capacity=4)
    first = registry.subscribe("s")
    registry.publish(changes(2))
    second = registry.subscribe("s")
    assert registry.get("s") is second and registry.live_count == 1
    assert first.take() == [] and registry.retained == 0
    registry.publish(changes(1, start=2))
    assert [d.seq for d in second.take()] == [2]


# -- (c) same observables as one deque per subscriber -----------------------------


class DequeModel:
    """The per-subscriber-deque semantics the broadcast log replaced."""

    def __init__(self):
        self.subscribers = {}
        self.next_seq = 0
        self.evictions = 0

    def subscribe(self, name, capacity):
        self.subscribers[name] = {
            "capacity": capacity, "cursor": self.next_seq,
            "evicted": False, "buffer": deque(),
        }

    def unsubscribe(self, name):
        return self.subscribers.pop(name, None) is not None

    def publish(self, count):
        seqs = range(self.next_seq, self.next_seq + count)
        self.next_seq += count
        for subscriber in self.subscribers.values():
            if subscriber["evicted"]:
                continue
            for seq in seqs:
                if len(subscriber["buffer"]) >= subscriber["capacity"]:
                    subscriber["evicted"] = True
                    subscriber["buffer"].clear()
                    self.evictions += 1
                    break
                subscriber["buffer"].append(seq)

    def take(self, name, limit):
        subscriber = self.subscribers[name]
        buffer = subscriber["buffer"]
        count = len(buffer) if limit is None else min(limit, len(buffer))
        out = [buffer.popleft() for _ in range(count)]
        if out:
            subscriber["cursor"] = out[-1] + 1
        return out


NAMES = st.sampled_from("abcd")
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("publish"), st.integers(0, 5)),
        st.tuples(st.just("subscribe"), NAMES, st.integers(1, 6)),
        st.tuples(st.just("take"), NAMES, st.none() | st.integers(0, 4)),
        st.tuples(st.just("frames"), NAMES),
        st.tuples(st.just("unsubscribe"), NAMES),
        st.tuples(st.just("seek"), st.integers(0, 40)),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(OPERATIONS)
def test_log_matches_the_per_subscriber_deque_model(operations):
    registry = SubscriptionRegistry(query_id="q")
    model = DequeModel()
    for op, *args in operations:
        if op == "publish":
            (count,) = args
            deltas = registry.publish(changes(count, start=model.next_seq))
            assert [d.seq for d in deltas] == list(
                range(model.next_seq, model.next_seq + count)
            )
            model.publish(count)
        elif op == "subscribe":
            name, capacity = args
            assert registry.subscribe(name, capacity).cursor == model.next_seq
            model.subscribe(name, capacity)
        elif op == "unsubscribe":
            (name,) = args
            assert registry.unsubscribe(name) == model.unsubscribe(name)
        elif op == "seek":
            registry.seek(args[0])
            model.next_seq = args[0]
        elif args[0] in model.subscribers:
            name, limit = args[0], (args[1] if op == "take" else None)
            want = model.take(name, limit)
            if op == "take":
                got = [d.seq for d in registry.get(name).take(limit)]
            else:
                got = [
                    json.loads(line)["delta"]["seq"]
                    for line in registry.get(name).take_frames().splitlines()
                ]
            assert got == want

        assert registry.next_seq == model.next_seq
        assert registry.evictions == model.evictions
        assert [s.id for s in registry.subscribers()] == list(model.subscribers)
        live = [s for s in model.subscribers.values() if not s["evicted"]]
        assert registry.live_count == len(live)
        assert registry.queue_depth() == sum(len(s["buffer"]) for s in live)
        for name, expected in model.subscribers.items():
            subscriber = registry.get(name)
            assert subscriber.cursor == expected["cursor"]
            assert subscriber.depth == len(expected["buffer"])
            assert subscriber.evicted == expected["evicted"]
        # (d): the ring holds exactly the slowest live reader's backlog
        assert registry.retained == max(
            (len(s["buffer"]) for s in live), default=0
        )
        assert registry.retained <= max(
            (s["capacity"] for s in live), default=0
        )

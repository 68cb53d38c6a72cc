"""Subscription fan-out: one resident query, one broadcast log, many cursors.

The "millions of users" story of the roadmap is not millions of plans —
it is few resident dataflows whose changelogs fan out to many
subscribers.  A :class:`SubscriptionRegistry` hangs off each standing
query and keeps **one broadcast log** of its published deltas:

* :meth:`SubscriptionRegistry.publish` appends each delta **once** to a
  shared ring — its cost does not depend on how many subscribers there
  are;
* a :class:`Subscriber` is a **cursor** into that ring (the sequence
  number of the next delta it will read) plus a capacity, so consumers
  drain at their own pace and ``depth`` is simply how far the cursor
  lags the log head;
* a subscriber whose lag exceeds its capacity is **evicted** — marked,
  counted, and detached — rather than allowed to hold the query's
  memory hostage (the slow-consumer policy every production pub/sub
  layer ends up with);
* the ring is trimmed to the slowest live cursor, so it never holds
  more than the largest live capacity and holds nothing when nobody
  listens;
* each ring entry lazily caches its **wire frame** (:func:`encode_frame`),
  encoded at most once per delta and only when a wire consumer asks
  (:meth:`Subscriber.take_frames`); in-process consumers calling
  :meth:`Subscriber.take` never pay for it.

Deltas are :class:`~repro.core.changelog.Change` objects wrapped with
their per-query sequence number.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from ..core.changelog import Change

__all__ = ["Delta", "Subscriber", "SubscriptionRegistry", "encode_frame"]


@dataclass(frozen=True, slots=True, init=False)
class Delta:
    """One changelog change of a standing query, as delivered.

    ``seq`` is the query's global delta sequence number (0-based,
    gap-free); subscribers admitted mid-stream start at the current
    sequence, so ``seq`` doubles as the resumption cursor.

    Frozen, like :class:`~repro.core.changelog.Change`, and like it
    stored through its slot descriptors: publishing builds one per
    delta.
    """

    seq: int
    change: Change

    def __init__(self, seq: int, change: Change):
        _set_seq(self, seq)
        _set_change(self, change)

    def as_dict(self) -> dict:
        return {
            "seq": self.seq,
            "ptime": self.change.ptime,
            "kind": "insert" if self.change.is_insert else "retract",
            "values": list(self.change.values),
        }


_set_seq = Delta.seq.__set__
_set_change = Delta.change.__set__


def encode_frame(query_id: str, delta: Delta) -> bytes:
    """The wire line that carries ``delta`` to a subscriber of ``query_id``."""
    return (
        json.dumps({"query": query_id, "delta": delta.as_dict()}) + "\n"
    ).encode("utf-8")


class Subscriber:
    """One consumer of a standing query's changelog: a cursor into its log.

    ``capacity`` bounds the lag behind the log head; publishing past it
    evicts the subscriber (``evicted`` flips, its claim on the ring is
    released).  The cursor advances on :meth:`take` /
    :meth:`take_frames`, not on publish, so it always names the next
    sequence the consumer has *not* seen.
    """

    __slots__ = ("id", "capacity", "cursor", "evicted", "_log", "_pos")

    def __init__(
        self,
        subscriber_id: str,
        capacity: int,
        cursor: int = 0,
        log: Optional["SubscriptionRegistry"] = None,
    ):
        if capacity < 1:
            raise ValueError("subscriber capacity must be >= 1")
        self.id = subscriber_id
        self.capacity = capacity
        self.cursor = cursor
        self.evicted = False
        #: the log this cursor reads; None once evicted or unsubscribed.
        self._log = log
        #: ring position of the next entry to read.  Positions count
        #: appended entries; sequence numbers can be re-pinned by
        #: ``seek`` and so cannot index the ring themselves.
        self._pos = log._head if log is not None else 0

    @property
    def depth(self) -> int:
        """Deltas published and not yet taken."""
        log = self._log
        return 0 if log is None else log._head - self._pos

    def take(self, limit: Optional[int] = None) -> list[Delta]:
        """Read up to ``limit`` pending deltas, advancing the cursor."""
        log = self._log
        if log is None:
            return []
        pending = log._head - self._pos
        count = pending if limit is None else min(limit, pending)
        if count <= 0:
            return []
        start = self._pos - log._base
        out = log._entries[start:start + count]
        self.cursor = out[-1].seq + 1
        log._advance(self, self._pos + count)
        return out

    def take_frames(self) -> bytes:
        """Every pending delta as joined wire frames, advancing the cursor."""
        log = self._log
        if log is None or self._pos == log._head:
            return b""
        data = log._frames_from(self._pos)
        self.cursor = log._entries[-1].seq + 1
        log._advance(self, log._head)
        return data


class SubscriptionRegistry:
    """The broadcast log of one standing query and the cursors reading it."""

    def __init__(self, default_capacity: int = 256, query_id: str = ""):
        self.default_capacity = default_capacity
        #: names the query in every wire frame.
        self.query_id = query_id
        self._subscribers: dict[str, Subscriber] = {}
        self._next_seq = 0
        #: the ring: entries at positions [_base, _head), with each
        #: entry's wire frame cached beside it once someone asked.
        self._entries: list[Delta] = []
        self._frames: list[Optional[bytes]] = []
        self._base = 0
        self._head = 0
        #: live subscribers per ring position; the smallest key is the
        #: slowest cursor, found without visiting any subscriber.
        self._at: dict[int, int] = {}
        self._live = 0
        #: a lower bound on every live capacity (exact after each
        #: eviction scan): no one can need evicting while the slowest
        #: cursor lags by no more than this.
        self._min_capacity = 0
        #: the last joined frame run, as ((from position, head), bytes):
        #: subscribers at one cursor share one join.
        self._joined: tuple[tuple[int, int], bytes] = ((0, 0), b"")
        #: deltas made available to live subscribers, summed over all.
        self.delivered = 0
        #: subscribers evicted for falling behind.
        self.evictions = 0
        #: wire frames encoded (at most one per published delta).
        self.encoded_frames = 0

    @property
    def next_seq(self) -> int:
        """The sequence number the next published delta will carry."""
        return self._next_seq

    def seek(self, seq: int) -> None:
        """Pin the next sequence number (catch-up and restore paths)."""
        self._next_seq = seq

    def subscribe(
        self, subscriber_id: str, capacity: Optional[int] = None
    ) -> Subscriber:
        """Attach (or re-attach) a subscriber starting at the live edge."""
        previous = self._subscribers.get(subscriber_id)
        if previous is not None:
            self._detach(previous)
        subscriber = Subscriber(
            subscriber_id,
            capacity if capacity is not None else self.default_capacity,
            cursor=self._next_seq,
            log=self,
        )
        self._subscribers[subscriber_id] = subscriber
        self._at[self._head] = self._at.get(self._head, 0) + 1
        if not self._live or subscriber.capacity < self._min_capacity:
            self._min_capacity = subscriber.capacity
        self._live += 1
        return subscriber

    def unsubscribe(self, subscriber_id: str) -> bool:
        subscriber = self._subscribers.pop(subscriber_id, None)
        if subscriber is None:
            return False
        self._detach(subscriber)
        return True

    def get(self, subscriber_id: str) -> Optional[Subscriber]:
        return self._subscribers.get(subscriber_id)

    def subscribers(self) -> list[Subscriber]:
        return list(self._subscribers.values())

    @property
    def live_count(self) -> int:
        return self._live

    @property
    def retained(self) -> int:
        """Deltas the ring currently holds (head minus slowest live cursor)."""
        return self._head - self._base

    def queue_depth(self) -> int:
        """Undrained deltas across all live subscribers (backpressure gauge)."""
        head = self._head
        return sum(count * (head - pos) for pos, count in self._at.items())

    def publish(self, changes: list[Change]) -> list[Delta]:
        """Sequence ``changes`` and append them to the log, once.

        Returns the sequenced deltas (for checkpointing / the caller's
        own bookkeeping).  Eviction happens here: a subscriber whose
        lag now exceeds its capacity is dropped and counted, and
        delivery to the others continues.
        """
        seq = self._next_seq
        deltas = list(map(Delta, range(seq, seq + len(changes)), changes))
        self._next_seq = seq + len(deltas)
        if not deltas or not self._live:
            return deltas
        self._entries.extend(deltas)
        self._frames.extend([None] * len(deltas))
        self._head += len(deltas)
        if self._head - self._base > self._min_capacity:
            self._evict_laggards()
        self.delivered += len(deltas) * self._live
        return deltas

    # -- the ring ---------------------------------------------------------------

    def _advance(self, subscriber: Subscriber, pos: int) -> None:
        """Move a live subscriber's position forward to ``pos``."""
        old = subscriber._pos
        self._leave(old)
        self._at[pos] = self._at.get(pos, 0) + 1
        subscriber._pos = pos
        if old == self._base:
            self._trim()

    def _detach(self, subscriber: Subscriber) -> None:
        """Stop ``subscriber`` reading the log (a no-op once evicted)."""
        if subscriber._log is not None:
            self._release(subscriber)
            self._trim()

    def _release(self, subscriber: Subscriber) -> None:
        """Drop a live subscriber's claim on the ring (no trim)."""
        self._leave(subscriber._pos)
        self._live -= 1
        subscriber._log = None

    def _leave(self, pos: int) -> None:
        """One live cursor fewer at ring position ``pos``."""
        if self._at[pos] == 1:
            del self._at[pos]
        else:
            self._at[pos] -= 1

    def _trim(self) -> None:
        """Forget entries below the slowest live position."""
        if not self._live:
            self._base = self._head
            self._entries.clear()
            self._frames.clear()
            return
        at = self._at
        base = self._base
        while base not in at:
            base += 1
        drop = base - self._base
        if drop:
            del self._entries[:drop]
            del self._frames[:drop]
            self._base = base

    def _evict_laggards(self) -> None:
        """Evict every subscriber whose lag exceeds its own capacity.

        Runs only when the slowest cursor lags by more than the smallest
        live capacity, which with uniform capacities means only when
        someone really is evicted.
        """
        head = self._head
        min_capacity = 0
        for subscriber in self._subscribers.values():
            if subscriber._log is None:
                continue
            if head - subscriber._pos > subscriber.capacity:
                subscriber.evicted = True
                self._release(subscriber)
                self.evictions += 1
            elif not min_capacity or subscriber.capacity < min_capacity:
                min_capacity = subscriber.capacity
        self._min_capacity = min_capacity
        self._trim()

    def _frames_from(self, pos: int) -> bytes:
        """The joined wire frames of entries ``[pos, head)``."""
        key = (pos, self._head)
        if self._joined[0] != key:
            frames = self._frames
            start = pos - self._base
            for index in range(start, len(frames)):
                if frames[index] is None:
                    frames[index] = encode_frame(
                        self.query_id, self._entries[index]
                    )
                    self.encoded_frames += 1
            self._joined = (key, b"".join(frames[start:]))
        return self._joined[1]

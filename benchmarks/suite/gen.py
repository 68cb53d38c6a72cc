"""Seeded input generator for the benchmark suite.

Builds auction-shaped streams (``Bid`` and, when asked, ``Auction``)
through the public ``TimeVaryingRelation`` API only.  ``seed`` is the
one source of randomness: the same :class:`GenConfig` gives the same
events, and :func:`render` hashes them so drift between commits shows.

The shape every workload shares, because the engine's behaviour depends
on it:

* **bursts** — ``burst`` events share one processing instant, so the
  micro-batching scheduler has same-instant runs to batch;
* **watermarks** — one every ``watermark_interval`` events, at
  ``ptime - max_skew_ms`` (a sound bounded-out-of-orderness assertion);
* **out-of-order event time** — each row's event time trails its
  processing time by up to ``max_skew_ms``;
* **late rows** — ``late_share`` of the rows trail the *watermark* by
  ``late_by_ms``, so the late-drop path runs on every input;
* **key distribution** — auction keys are uniform, or Zipf(``zipf_s``).
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass

from repro import (
    Schema,
    TimeVaryingRelation,
    int_col,
    string_col,
    timestamp_col,
)
from repro.io import format_jsonl

__all__ = ["GenConfig", "BID_SCHEMA", "AUCTION_SCHEMA", "generate", "render"]

BID_SCHEMA = Schema(
    [
        int_col("auction"),
        int_col("bidder"),
        int_col("price"),
        timestamp_col("bidtime", event_time=True),
    ]
)

AUCTION_SCHEMA = Schema(
    [
        int_col("id"),
        string_col("itemName"),
        int_col("seller"),
        int_col("category"),
        timestamp_col("dateTime", event_time=True),
    ]
)

FIRST_PTIME = 8 * 3600 * 1000  # 8:00, the paper's morning


@dataclass(frozen=True)
class GenConfig:
    events: int
    seed: int
    burst: int = 64
    watermark_interval: int = 192
    gap_ms: int = 1000  # processing time between bursts
    max_skew_ms: int = 4000
    late_share: float = 0.01
    late_by_ms: tuple[int, int] = (10_000, 30_000)
    auctions: int = 500  # distinct auction keys bids choose from
    bidders: int = 2000
    zipf_s: float = 0.0  # 0 = uniform auction keys
    auction_every: int = 0  # every n-th event opens an auction (0 = bids only)


def generate(config: GenConfig) -> dict[str, TimeVaryingRelation]:
    """The streams for ``config``: ``{"Bid": tvr}`` plus ``"Auction"``
    when ``auction_every`` is set."""
    rng = random.Random(config.seed)
    keys = range(1, config.auctions + 1)
    if config.zipf_s > 0:
        weights = list(
            itertools.accumulate(k ** -config.zipf_s for k in keys)
        )
        # Shuffle which auction holds which rank, so the hot key is not
        # always the one that hashes to the same shard.
        ranked = list(keys)
        rng.shuffle(ranked)
        picks = rng.choices(ranked, cum_weights=weights, k=config.events)
    else:
        picks = rng.choices(keys, k=config.events)

    bids = TimeVaryingRelation(BID_SCHEMA)
    streams = {"Bid": bids}
    auctions = None
    if config.auction_every:
        auctions = TimeVaryingRelation(AUCTION_SCHEMA)
        # Registration order is the tie-break of the replay merge:
        # auctions first, so an auction precedes the bids of its burst.
        streams = {"Auction": auctions, "Bid": bids}

    ptime = FIRST_PTIME
    watermark = None
    opened = 0
    late_lo, late_hi = config.late_by_ms
    for i in range(config.events):
        if i % config.burst == 0:
            ptime += config.gap_ms
        if watermark is not None and rng.random() < config.late_share:
            event_time = watermark - rng.randrange(late_lo, late_hi + 1)
        else:
            event_time = ptime - rng.randrange(config.max_skew_ms + 1)
        if auctions is not None and i % config.auction_every == 0:
            opened += 1
            auctions.insert(
                ptime,
                (
                    opened,
                    f"item-{opened}",
                    rng.randrange(1, config.bidders + 1),
                    10 + rng.randrange(10),
                    event_time,
                ),
            )
        else:
            # With an auction stream, bids go to auctions already open.
            auction = picks[i] if auctions is None else 1 + picks[i] % opened
            bids.insert(
                ptime,
                (
                    auction,
                    rng.randrange(1, config.bidders + 1),
                    rng.randrange(1, 1000),
                    event_time,
                ),
            )
        if (i + 1) % config.watermark_interval == 0:
            watermark = ptime - config.max_skew_ms
            for tvr in streams.values():
                tvr.advance_watermark(ptime, watermark)

    # Close every window that has data.
    final = ptime + config.max_skew_ms + 1
    for tvr in streams.values():
        tvr.advance_watermark(ptime + 1, final)
    return streams


def render(tvr: TimeVaryingRelation) -> tuple[str, list[str]]:
    """The relation as JSONL feed lines, one per event in ``tvr.events()``
    order, and the sha256 of that rendering (schema line included)."""
    text = format_jsonl(tvr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), text.splitlines()[1:]

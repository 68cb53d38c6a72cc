"""NEXMark queries in the proposed streaming SQL, plus Query 7 in CQL.

Query 7 is the paper's running example (Listings 1-2); the rest are the
standard NEXMark suite expressed in the dialect this library
implements.  Queries whose groupings have no event-time key (Q4, Q6)
are run over *recorded* streams registered as bounded tables — exactly
the reprocessing scenario Appendix B highlights — because Extension 2
forbids them on unbounded inputs.
"""

from __future__ import annotations

from ..core.schema import SqlType
from ..core.times import Duration, minutes
from ..core.tvr import TimeVaryingRelation
from ..cql import CqlStream, range_window, rstream, select
from ..cql.relops import scalar

__all__ = [
    "register_udfs",
    "Q0_PASSTHROUGH",
    "Q1_CURRENCY",
    "q2_selection",
    "Q3_LOCAL_ITEM_SUGGESTION",
    "Q4_AVERAGE_PRICE_FOR_CATEGORY",
    "q5_hot_items",
    "Q6_AVERAGE_SELLING_PRICE_BY_SELLER",
    "q7_highest_bid",
    "q7_paper",
    "q7_cql",
    "q8_monitor_new_users",
]


def register_udfs(engine) -> None:
    """Register NEXMark's DOLTOEUR currency conversion on an engine."""
    engine.register_function(
        "DOLTOEUR", lambda dollars: dollars * 0.89, SqlType.FLOAT, 1
    )


#: Q0: passthrough — measures raw engine overhead.
Q0_PASSTHROUGH = "SELECT auction, bidder, price, bidtime FROM Bid"

#: Q1: currency conversion on every bid (map).
Q1_CURRENCY = (
    "SELECT auction, bidder, DOLTOEUR(price) AS price, bidtime FROM Bid"
)


def q2_selection(divisor: int = 123) -> str:
    """Q2: bids on a sampled subset of auctions (filter)."""
    return (
        f"SELECT auction, price FROM Bid WHERE auction % {divisor} = 0"
    )


#: Q3: people from three states selling in category 10 (incremental join).
Q3_LOCAL_ITEM_SUGGESTION = """
SELECT P.name, P.city, P.state, A.id
FROM Auction A JOIN Person P ON A.seller = P.id
WHERE A.category = 10 AND P.state IN ('OR', 'ID', 'CA')
"""

#: Q4: average closing price per category (nested aggregation; runs over
#: recorded tables because the groupings carry no event-time key).
Q4_AVERAGE_PRICE_FOR_CATEGORY = """
SELECT Closed.category, AVG(Closed.final) AS avgPrice
FROM (
  SELECT A.id, A.category AS category, MAX(B.price) AS final
  FROM Auction A JOIN Bid B ON A.id = B.auction
  WHERE B.bidtime >= A.dateTime AND B.bidtime <= A.expires
  GROUP BY A.id, A.category
) Closed
GROUP BY Closed.category
"""


def q5_hot_items(size: Duration = minutes(2), slide: Duration = minutes(1)) -> str:
    """Q5: the auction(s) with the most bids per sliding window."""
    hop = (
        "Hop(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
        f"dur => INTERVAL '{size // 1000}' SECONDS, "
        f"slide => INTERVAL '{slide // 1000}' SECONDS)"
    )
    return f"""
SELECT AuctionBids.wstart, AuctionBids.wend,
       AuctionBids.auction, AuctionBids.num
FROM (
  SELECT HB.wstart wstart, HB.wend wend, HB.auction auction,
         COUNT(*) num
  FROM {hop} HB
  GROUP BY HB.wstart, HB.wend, HB.auction
) AuctionBids,
(
  SELECT AB.wstart wstart, AB.wend wend, MAX(AB.num) maxnum
  FROM (
    SELECT HB2.wstart wstart, HB2.wend wend, HB2.auction auction,
           COUNT(*) num
    FROM {hop} HB2
    GROUP BY HB2.wstart, HB2.wend, HB2.auction
  ) AB
  GROUP BY AB.wstart, AB.wend
) MaxBids
WHERE AuctionBids.wstart = MaxBids.wstart
  AND AuctionBids.wend = MaxBids.wend
  AND AuctionBids.num = MaxBids.maxnum
"""


#: Q6: average selling price per seller over their last 10 closed
#: auctions — the original's ROW window, expressed with an analytic
#: OVER frame (recorded tables: the grouping has no event-time key).
Q6_AVERAGE_SELLING_PRICE_BY_SELLER = """
SELECT Closed.seller, Closed.expires,
       AVG(Closed.final) OVER (
         PARTITION BY Closed.seller
         ORDER BY Closed.expires
         ROWS BETWEEN 9 PRECEDING AND CURRENT ROW) AS avgPrice
FROM (
  SELECT A.seller AS seller, A.expires AS expires, MAX(B.price) AS final
  FROM Auction A JOIN Bid B ON A.id = B.auction
  WHERE B.bidtime >= A.dateTime AND B.bidtime <= A.expires
  GROUP BY A.id, A.seller, A.expires
) Closed
"""


def q7_highest_bid(window: Duration = minutes(10), emit: str = "") -> str:
    """Q7 over the four-column NEXMark Bid stream."""
    secs = window // 1000
    return f"""
SELECT MaxBid.wstart, MaxBid.wend,
       Bid.bidtime, Bid.price, Bid.auction
FROM Bid,
  (SELECT MAX(TB.price) maxPrice, TB.wstart wstart, TB.wend wend
   FROM Tumble(
     data    => TABLE(Bid),
     timecol => DESCRIPTOR(bidtime),
     dur     => INTERVAL '{secs}' SECONDS) TB
   GROUP BY TB.wend) MaxBid
WHERE Bid.price = MaxBid.maxPrice
  AND Bid.bidtime >= MaxBid.wend - INTERVAL '{secs}' SECONDS
  AND Bid.bidtime < MaxBid.wend
{emit}
"""


def q7_paper(emit: str = "") -> str:
    """Q7 exactly as in Listing 2 (three-column Bid schema)."""
    return f"""
SELECT
  MaxBid.wstart, MaxBid.wend,
  Bid.bidtime, Bid.price, Bid.item
FROM
  Bid,
  (SELECT
     MAX(TumbleBid.price) maxPrice,
     TumbleBid.wstart wstart,
     TumbleBid.wend wend
   FROM Tumble(
     data    => TABLE(Bid),
     timecol => DESCRIPTOR(bidtime),
     dur     => INTERVAL '10' MINUTE) TumbleBid
   GROUP BY TumbleBid.wend) MaxBid
WHERE
  Bid.price = MaxBid.maxPrice AND
  Bid.bidtime >= MaxBid.wend - INTERVAL '10' MINUTE AND
  Bid.bidtime < MaxBid.wend
{emit}
"""


def q7_cql(
    bid: TimeVaryingRelation,
    timecol: str = "bidtime",
    price_col: str = "price",
    window: Duration = minutes(10),
) -> CqlStream:
    """Listing 1: NEXMark Query 7 in CQL, executed on the CQL baseline.

    ``Rstream(price, item) FROM Bid [RANGE w SLIDE w] WHERE price =
    (SELECT MAX(price) FROM Bid [RANGE w SLIDE w])``.
    """
    stream = CqlStream.from_tvr(bid, timecol, keep_time_column=True)
    price_idx = stream.schema.index_of(price_col)

    def top_bids(rel):
        max_price = scalar(rel, lambda rows: max(r[price_idx] for r in rows))
        return select(rel, lambda r: r[price_idx] == max_price)

    windowed = range_window(stream, window, window)
    return rstream(windowed.map(top_bids))


def q8_monitor_new_users(window: Duration = minutes(2)) -> str:
    """Q8: people who created auctions right after registering."""
    secs = window // 1000
    return f"""
SELECT P.id, P.name, P.wstart
FROM
  (SELECT TP.id id, TP.name name, TP.wstart wstart, TP.wend wend
   FROM Tumble(
     data    => TABLE(Person),
     timecol => DESCRIPTOR(dateTime),
     dur     => INTERVAL '{secs}' SECONDS) TP) P
JOIN
  (SELECT TA.seller seller, TA.wstart wstart, TA.wend wend
   FROM Tumble(
     data    => TABLE(Auction),
     timecol => DESCRIPTOR(dateTime),
     dur     => INTERVAL '{secs}' SECONDS) TA) A
ON P.id = A.seller AND P.wstart = A.wstart AND P.wend = A.wend
"""

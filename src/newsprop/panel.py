"""Regression-sample assembly.

One pre and one post observation per (event, exposed firm, window). The
exposed firm is the mentioned firm itself in ``own`` mode, or each of its
suppliers (``supplier`` mode) or clients (``client`` mode) under the
supply-chain snapshot in force on the event date. Pairs are balanced: when
either period's price window or index window cannot be populated, both
observations are dropped and the reason recorded, so the pre and post samples
never drift apart in composition.

Indirect modes exclude firms that are themselves mentioned in the same
article, keeping the indirect estimates uncontaminated by the direct effect,
and an exposed firm reachable from several mentioned firms in one article
contributes a single pair for that article.

A ``Stores`` is made from plain data: the firm registry is a dict of
``FirmRecord`` by firm_id, and the closes and index values are dicts of the
one ``market.Series`` type, by firm_id and by market_id. It keeps none of them.
The constructor only transposes them into columns, and ``Stores.from_columns``
takes such columns straight from ``simulate``; one coder, ``_code``, codes and
checks both.

A build splits into work done once per ``Stores``, once per mode and once per
window. When a ``Stores`` is made, it codes every firm, article and link once:
of the firms, those an article mentions or a link names, in id order; the
events in id order; each (article, mentioned firm) as one sorted key news *
n_firms + firm; and each edge by its snapshot and its two firm codes. Every
price series and then every index series lie end to end in one array, each
series' days strictly ascending and its values finite and positive. Each
series' (first, length) span in the stack is kept once, then a (0, 0) span for
"none". Per firm it keeps the id, sector code, market, registry reason, and two
slots into the spans: its price series and its market's index series. Once per
mode, memoised on the ``Stores``, array operations on the codes yield the mode's
pair table, which keeps only the mode's pairs, their reasons and their window
queries: each mention gathers its neighbours from a CSR adjacency of its
event's snapshot, and sorting the keys puts the pairs in (news_id, firm_id)
order. One binary search over every pair at once, on the stack's int64 days,
places the price anchors. Index series are few, so each one a firm reads is
searched once by ``np.searchsorted`` for every distinct event day, and each
pair reads its cell of that table. The queries are kept once per distinct
block-C start in the stacked array, deduplicated by ``market.mark_ranks``
rather than a sort. A pair's reason code is its snapshot or registry reason, or
0 when only its windows decide. Once per window, one ``market.block_changes``
call over the distinct queries gives every pair's four changes, so a window
costs one kernel pass whatever the number of firms. Each distinct query is
tested once for a window that does not fit, and a pair then drops for the first
reason that applies, in the order of ``REASONS``: its snapshot or registry
reason, then its price window, then its index window. Only the kept pairs'
changes are gathered. A build reads only the ``Stores``' own read-only columns,
so a memoised table cannot go stale; changed inputs make a new ``Stores`` with
a fresh memo.

The panel is columnar, one entry per kept pair in (news_id, firm_id) order:
pre and post side by side in ``y`` and ``market_x``, and both sentiment
columns, ``p_pos`` and ``p_neg``, so one build serves either polarity.
``sector`` holds int codes into the ``Stores``' sorted ``sector_labels``, for the fit's bincounts.
"""

from __future__ import annotations

import datetime as dt
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import market
from .csvio import write_rows
from .firms import FirmRecord
from .graph import SupplyChainNetwork
from .market import PRE, POST, Series, mark_ranks
from .sentiment import NewsEvent, NewsStore

# the five input files of a bundle, by their flag and file stem
BUNDLE_FILES = ("firms", "prices", "indices", "news", "edges")
MODES = ("own", "supplier", "client")
POLARITIES = ("positive", "negative")

PANEL_HEADER = ("firm_id", "news_id", "w", "period", "y", "news_value", "market_x", "sector", "market")

# audit reasons in order of precedence; a reason code indexes this, and 0 keeps a pair
REASONS = (None, "no-snapshot", "unknown-firm", "missing-sector", "missing-market",
           "price-window", "index-window")
NO_SNAPSHOT, UNKNOWN_FIRM, MISSING_SECTOR, MISSING_MARKET, PRICE_WINDOW, INDEX_WINDOW = range(1, 7)


class DropRecord(NamedTuple):
    """One dropped candidate pair and the first reason that dropped it."""

    news_id: str
    firm_id: str
    reason: str


class _Codes(NamedTuple):
    """Every article, firm and supply-chain link of a ``Stores``, coded once, in
    read-only columns. News codes number the events and firm codes the firms,
    each in id order. An unknown firm's sector and market are empty. The stack
    holds every series' days and values, laid end to end; ``span`` holds each
    series' (first, length) in it, then (0, 0). ``price`` and ``index`` are each
    firm's slots in ``span``, the last one for a missing price or index series."""

    news_id: np.ndarray  # str, per news code
    day: np.ndarray  # datetime64[D]
    p_pos: np.ndarray  # float64
    p_neg: np.ndarray
    mention: np.ndarray  # int64, sorted keys news * n_firms + mentioned firm
    edge: np.ndarray  # (3, e) int64: snapshot index in year order, supplier, client
    firm_id: np.ndarray  # str, per firm code
    sector: np.ndarray  # int, into sector_labels
    sector_labels: np.ndarray  # str, sorted
    market: np.ndarray  # str
    registry: np.ndarray  # int8: UNKNOWN_FIRM, MISSING_SECTOR, MISSING_MARKET or 0
    price: np.ndarray  # int64, per firm code: its price series' slot in span
    index: np.ndarray  # int64, per firm code: its market's index series' slot in span
    span: np.ndarray  # (2, n_series + 1) int64: each series' first and length in the stack, then (0, 0)
    days: np.ndarray  # int64 days of every price series, then every index series, end to end
    values: np.ndarray  # float64, their values
    years: np.ndarray  # int64, the snapshot years, ascending


class Stores:
    """The loaded inputs, coded once into read-only columns that builds read.

    ``_codes`` holds a copy of every series and codes every firm, article and
    link, when the ``Stores`` is made; what the constructor is given is
    neither kept nor changed. ``_memo`` holds one pair table per mode.
    """

    def __init__(self, firms: Mapping[str, FirmRecord], prices: Mapping[str, Series],
                 indices: Mapping[str, Series], news: NewsStore, graph: SupplyChainNetwork):
        self._codes = _code(**_transpose(firms, prices, indices, news, graph))
        self._memo = {}

    @classmethod
    def from_columns(cls, **columns) -> Stores:
        """A ``Stores`` of the columns ``_code`` takes, as ``simulate`` keeps them."""
        stores = cls.__new__(cls)
        stores._codes = _code(**columns)
        stores._memo = {}
        return stores


@dataclass(eq=False)
class Panel:
    """One entry per kept (event, exposed firm) pair, in (news_id, firm_id) order.

    Column 0 of ``y`` and ``market_x`` is the pre period, column 1 the post
    period; each pair stands for two observations, pre then post.
    ``news_value`` is ``p_pos`` or ``p_neg``, whichever ``polarity`` names.
    ``sector`` codes into ``sector_labels``, the ``Stores``' sorted read-only labels for every mode.
    ``drops`` holds every dropped candidate pair, in (news_id, firm_id) order.
    """

    mode: str
    polarity: str
    w: int
    news_id: np.ndarray  # (n,) str
    firm_id: np.ndarray  # (n,) str
    sector: np.ndarray  # (n,) int, into sector_labels
    sector_labels: np.ndarray  # str, sorted
    market: np.ndarray  # (n,) str
    p_pos: np.ndarray  # (n,) float
    p_neg: np.ndarray  # (n,) float
    y: np.ndarray  # (n, 2) firm window changes
    market_x: np.ndarray  # (n, 2) index window changes
    drops: list[DropRecord] = field(default_factory=list)

    def __len__(self) -> int:
        """The observation count, two per pair."""
        return 2 * len(self.news_id)

    @property
    def news_value(self) -> np.ndarray:
        """The sentiment column this panel's polarity regresses on."""
        return self.p_pos if self.polarity == "positive" else self.p_neg


@dataclass(frozen=True)
class PanelSummary:
    n_obs: int
    n_events: int
    n_firms: int
    drop_counts: dict[str, int]


@dataclass(frozen=True)
class _PairTable:
    """Every candidate pair of one mode, in (news_id, firm_id) order.

    ``news`` and ``firm`` are each pair's news code and exposed firm's code in
    the ``Stores``' ``_codes``. For an event without a snapshot, the exposed
    firms are its mentioned firms. ``reason`` is the pair's ``NO_SNAPSHOT`` or
    registry code, or 0 when only its windows decide. ``first``, ``length`` and
    ``anchor`` hold the distinct window queries, one per block-C start
    ``first + anchor`` in ascending order, each as the first pair query with
    that start asked it; ``query`` names the one each pair's price query, then
    each pair's index query, reads. These are the arrays
    ``np.unique(first + anchor, return_index=True, return_inverse=True)`` would
    pick. A price anchor is searched per pair, an index anchor once per (index
    slot, distinct event day). A firm without a price series, or a market
    without an index series, reads the (0, 0) span and gets anchor 0, so its
    pairs get no change, and ``build_panel`` drops them by that missing window.
    """

    news: np.ndarray  # (n,) int64
    firm: np.ndarray
    reason: np.ndarray  # (n,) int8
    first: np.ndarray  # (k,) int64
    length: np.ndarray
    anchor: np.ndarray
    query: np.ndarray  # (2n,) int32, into the k distinct queries


def _anchor_queries(days: np.ndarray, first: np.ndarray, length: np.ndarray, day: np.ndarray) -> np.ndarray:
    """Each query's anchor: the count of its series' days, ``days[first:first + length]``,
    before its ``day``, as ``np.searchsorted`` places it.

    Every query searches at once, by binary lifting. ``at`` starts at ``first``
    and passes only days that lie before ``day``: each step, from the largest
    power of two down, moves it on by ``step`` when the day at ``at + step - 1``,
    clipped to the series' last day, lies before ``day``. The days ascend, so
    that holds exactly when the anchor is at least ``at - first + step``, or when
    every day of the series lies before ``day``; the final clip to ``length``
    drops that overshoot. The steps sum to at least the longest length, so every
    anchor is reached. A query without a series (length 0) probes a clipped
    index and gets anchor 0.
    """
    last = first + length - 1
    at = first.copy()
    step = 1 << int(length.max(initial=0)).bit_length()
    while step > 1:
        step >>= 1
        at += step * (days.take(np.minimum(at + step - 1, last), mode="clip") < day)
    at -= first
    return np.minimum(at, length, out=at)


def concat_ranges(start: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges [start, start + length) laid end to end, as one int array."""
    slots = np.cumsum(lengths) - lengths  # each range's first slot in the result
    return np.arange(int(lengths.sum())) + np.repeat(start - slots, lengths)


def _transpose(firms: Mapping[str, FirmRecord], prices: Mapping[str, Series],
               indices: Mapping[str, Series], news: NewsStore, graph: SupplyChainNetwork) -> dict:
    """The columns ``_code`` takes, from the five inputs as the loaders give them.

    Each series must hold one value per date, its dates ``datetime64[D]``, to be
    laid end to end; every other rule is ``_code``'s.
    """
    series = [*prices.values(), *indices.values()]
    for key, s in zip([*prices, *indices], series):
        if s.dates.dtype != "datetime64[D]" or s.values.shape != s.dates.shape:
            raise ValueError(f"series {key!r} has {len(s.values)} values for {len(s.dates)} "
                             f"{s.dates.dtype} dates; it needs one per datetime64[D] date")
    events = news.events.values()
    news_id, date, mentions, p_pos, _, p_neg = list(zip(*events)) or [()] * len(NewsEvent._fields)
    years = graph.years
    edges = [graph.snapshot(year).edges for year in years]
    firm_ids = list(set().union(*mentions, *chain.from_iterable(edges)))
    code = dict(zip(firm_ids, range(len(firm_ids)))).__getitem__
    counts = np.fromiter(map(len, mentions), np.int64, len(mentions))
    mention = np.vstack((np.repeat(np.arange(len(mentions), dtype=np.int64), counts),
                         np.fromiter(map(code, chain.from_iterable(mentions)), np.int64, counts.sum())))
    sizes = list(map(len, edges))
    ends = np.fromiter(map(code, chain.from_iterable(chain.from_iterable(edges))), np.int64, 2 * sum(sizes))
    records = list(map(firms.get, firm_ids))
    return dict(
        news_id=np.array(news_id, dtype=str),
        # ordinal 1 is 0001-01-01; numpy converts date objects one by one, 20x slower
        day=np.datetime64("0000-12-31") + np.fromiter(map(dt.date.toordinal, date), np.int64, len(date)),
        p_pos=np.array(p_pos, float), p_neg=np.array(p_neg, float), mention=mention,
        firm_id=np.array(firm_ids, dtype=str),
        sector=np.array([record.sector_code if record else "" for record in records], dtype=str),
        market=np.array([record.market_id if record else "" for record in records], dtype=str),
        registered=np.array([record is not None for record in records], dtype=bool),
        years=np.array(years, dtype=np.int64),
        edge=np.vstack((np.repeat(np.arange(len(edges), dtype=np.int64), sizes), ends.reshape(-1, 2).T)),
        price_id=list(prices), index_id=list(indices),
        length=np.fromiter(map(len, series), np.int64, len(series)),
        days=np.concatenate([np.empty(0, "datetime64[D]"), *(s.dates for s in series)]),
        values=np.concatenate([np.empty(0), *(s.values for s in series)]),
    )


def _code(news_id: np.ndarray, day: np.ndarray, p_pos: np.ndarray, p_neg: np.ndarray, mention: np.ndarray,
          firm_id: np.ndarray, sector: np.ndarray, market: np.ndarray, registered: np.ndarray,
          years: np.ndarray, edge: np.ndarray, price_id: Sequence[str], index_id: Sequence[str],
          length: np.ndarray, days: np.ndarray, values: np.ndarray) -> _Codes:
    """The ``_Codes`` of a ``Stores``' columns: the one place they are coded and checked.

    Events, in any order: ``news_id`` (unique), ``day`` (``datetime64[D]``),
    ``p_pos`` and ``p_neg``. Firms, in any order: ``firm_id`` (unique), and
    ``sector``, ``market`` and ``registered`` from the registry, with an
    unregistered or incomplete firm's sector or market empty. ``mention`` is
    (2, m) int64, each (article, mentioned firm) as an event index and a firm
    index; ``edge`` is (3, e) int64, each link's snapshot as an index into the
    ascending ``years``, then its supplier and its client as firm indices.
    ``days`` (``datetime64[D]``) and ``values`` hold every price series, then
    every index series, end to end, ``length`` their lengths in that order, and
    ``price_id`` and ``index_id`` their firm and market ids. A series' days must
    strictly ascend and its values be finite and positive. ``days`` and
    ``values`` are kept, read-only, so nothing else should hold them.
    """
    if days.dtype != "datetime64[D]" or len(days) != len(values) or len(days) != length.sum():
        raise ValueError(f"{len(days)} {days.dtype} days and {len(values)} values do not lay "
                         f"{length.sum()} datetime64[D] dates and their values end to end")
    ids = [*price_id, *index_id]
    firsts = np.concatenate(([0], np.cumsum(length)))
    days = days.view(np.int64)
    # a day not after the one before it, unless it starts its series (np.isin
    # would sort, and map in numpy's sort code)
    start = np.zeros(len(days) + 1, dtype=bool)
    start[firsts] = True
    stalled = np.flatnonzero((days[1:] <= days[:-1]) & ~start[1:-1]) + 1
    if len(stalled):
        raise ValueError(f"series {ids[np.searchsorted(firsts, stalled[0], side='right') - 1]!r} "
                         f"dates do not strictly ascend")
    # a NaN fails both tests; the reductions are cheaper than marking each value
    if not (values.min(initial=1.0) > 0.0 and values.max(initial=1.0) < np.inf):
        bad = np.flatnonzero(~((values > 0.0) & (values < np.inf)))[0]
        raise ValueError(f"series {ids[np.searchsorted(firsts, bad, side='right') - 1]!r} holds "
                         f"{float(values[bad])}; its values must be finite and positive")
    # events in id order, and of the firms, those an article or a link names, in
    # id order, so a key news * n_firms + firm sorts like (news_id, firm_id).
    # Stable sorts: numpy's default sorts would map in 0.3 MB more of sort code.
    order = np.argsort(news_id, kind="stable")
    news_code = np.empty_like(order)
    news_code[order] = np.arange(len(order))
    named = np.zeros(len(firm_id), dtype=bool)
    named[mention[1]] = True
    named[edge[1:].ravel()] = True
    kept = np.flatnonzero(named)
    kept = kept[np.argsort(firm_id[kept], kind="stable")]
    firm_code = np.empty(len(firm_id), dtype=np.int64)
    firm_code[kept] = np.arange(len(kept))
    news_id, firm_id = news_id[order], firm_id[kept]
    for kind, column in (("news", news_id), ("firm", firm_id)):
        twice = np.flatnonzero(column[1:] == column[:-1])
        if len(twice):
            raise ValueError(f"{kind} id {str(column[twice[0]])!r} is given twice")
    mention = news_code[mention[0]] * len(kept) + firm_code[mention[1]]
    mention.sort(kind="stable")
    sector, market, registered = sector[kept], market[kept], registered[kept]
    registry = np.select([~registered, sector == "", market == ""],
                         [UNKNOWN_FIRM, MISSING_SECTOR, MISSING_MARKET]).astype(np.int8)
    sector_labels, sector = np.unique(sector, return_inverse=True)
    # each series' (first, length) in the stack, then (0, 0), the slot of "no series"
    span = np.vstack((np.append(firsts[:-1], 0), np.append(length, 0)))
    slot = dict(zip(price_id, range(len(price_id)))).get
    price = np.array([slot(firm, len(ids)) for firm in firm_id.tolist()], dtype=np.int64)
    slot = dict(zip(index_id, range(len(price_id), len(ids)))).get
    index = np.array([slot(market_id, len(ids)) for market_id in market.tolist()], dtype=np.int64)
    codes = _Codes(news_id, day[order], p_pos[order], p_neg[order], mention,
                   np.vstack((edge[0], firm_code[edge[1:]])), firm_id, sector, sector_labels, market,
                   registry, price, index, span, days, values, years)
    for column in codes:
        column.flags.writeable = False
    return codes


def _pairs(stores: Stores, mode: str):
    """Every candidate pair's news and firm code, in (news_id, firm_id) order,
    and whether each event lacks a snapshot."""
    codes = stores._codes
    n_firms = len(codes.firm_id)
    mention = codes.mention
    snapless = np.zeros(len(codes.news_id), dtype=bool)
    if mode == "own":
        key = mention
    else:
        years = codes.years
        snapshot, supplier, client = codes.edge
        exposed, named = (supplier, client) if mode == "supplier" else (client, supplier)
        # a CSR adjacency: row k * n_firms + c lists the firms exposed to mentioned
        # firm c in snapshot k
        row = snapshot * n_firms + named
        exposed = exposed[np.argsort(row, kind="stable")]
        offsets = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=len(years) * n_firms))))
        snapshot = np.searchsorted(years, codes.day.astype("datetime64[Y]").astype(np.int64) + 1970,
                                   side="right") - 1
        snapless = snapshot < 0
        news, firm = np.divmod(mention, n_firms)
        has = ~snapless[news]
        row = snapshot[news[has]] * n_firms + firm[has]
        count = offsets[row + 1] - offsets[row]
        key = np.repeat(news[has] * n_firms, count) + exposed[concat_ranges(offsets[row], count)]
        # not np.isin: it imports numpy.ma (9-24 ms a process) and took 1.8 against 0.5 ms on 36k keys
        found = np.minimum(np.searchsorted(mention, key), len(mention) - 1)
        # an event without a snapshot keeps its mentioned firms; a mentioned firm is not exposed
        key = np.concatenate((mention[~has], key[mention[found] != key]))
        # a firm reachable through two mentions counts once; sort and diff, as np.unique imports numpy.ma
        key.sort(kind="stable")
        key = key[np.diff(key, prepend=-1) > 0]
    news, firm = np.divmod(key, n_firms)
    return news, firm, snapless


def _index_anchors(codes: _Codes, news: np.ndarray, firm: np.ndarray) -> np.ndarray:
    """Each pair's anchor on its firm's market's index series, read from an
    int64 (index slot, distinct event day) table: index series are few, so each
    slot a firm reads is searched once, by ``np.searchsorted`` over those days."""
    slots, slot = mark_ranks(codes.index)  # the index slots the firms read
    # a day not after the stack's first anchors every series at 0, and one after
    # its last every series at its length (an empty stack has only empty
    # series), so bounding the event days by those two moves no anchor and
    # bounds the mark by the stack's span
    low, high = (codes.days.min(), codes.days.max() + 1) if len(codes.days) else (0, 0)
    days, rank = mark_ranks(np.minimum(np.maximum(codes.day.view(np.int64), low), high))
    anchor = np.array([np.searchsorted(codes.days[first:first + length], days)
                       for first, length in codes.span.take(slots, axis=1).T.tolist()], dtype=np.int64)
    return anchor.take(slot.take(firm) * len(days) + rank.take(news))


def _pair_table(stores: Stores, mode: str) -> _PairTable:
    table = stores._memo.get(mode)
    if table is not None:
        return table
    codes = stores._codes
    news, firm, snapless = _pairs(stores, mode)
    reason = np.where(snapless[news], np.int8(NO_SNAPSHOT), codes.registry[firm])
    # price queries, then index queries
    n = len(news)
    first, length = codes.span.take(np.concatenate((codes.price.take(firm), codes.index.take(firm))), axis=1)
    anchor = np.concatenate((_anchor_queries(codes.days, first[:n], length[:n], codes.day[news].view(np.int64)),
                             _index_anchors(codes, news, firm)))
    # pairs of one series anchored on one day ask the same query. Queries of two
    # series meet at one block-C start only past the end of one series or at
    # the start of the next, where no window fits, so the start alone is a key.
    # A start lies in [0, len(stack)], and each distinct one keeps its first query.
    key = first + anchor
    distinct, query = mark_ranks(key)
    pick = np.full(len(distinct), len(key))
    np.minimum.at(pick, query, np.arange(len(key)))
    table = stores._memo[mode] = _PairTable(
        news, firm, reason, first[pick], length[pick], anchor[pick], query)
    return table


def build_panel(stores: Stores, mode: str, polarity: str, w: int) -> Panel:
    """Assemble the balanced pre/post panel for one (mode, polarity, window)."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if polarity not in POLARITIES:
        raise ValueError(f"polarity must be one of {POLARITIES}, got {polarity!r}")
    market.check_window(w)

    table = _pair_table(stores, mode)
    codes = stores._codes
    n = len(table.news)
    pre, post = market.block_changes(codes.values, table.first, table.length, table.anchor, w)
    # each distinct query's windows are tested once; a pair drops for the first
    # reason in REASONS that applies: its own, then its price, then its index window.
    # take, not [], gathers rows and str items in a fraction of the time.
    missing = (np.isnan(pre) | np.isnan(post)).take(table.query)
    reason = np.select([table.reason > 0, missing[:n], missing[n:]],
                       [table.reason, PRICE_WINDOW, INDEX_WINDOW])
    kept = np.flatnonzero(reason == 0)
    dropped = np.flatnonzero(reason)
    drops = list(map(DropRecord, codes.news_id[table.news[dropped]].tolist(),
                     codes.firm_id[table.firm[dropped]].tolist(),
                     map(REASONS.__getitem__, reason[dropped].tolist())))
    # only a kept pair's changes are gathered, from its two distinct queries
    changes = np.column_stack((pre, post))
    news, firm = table.news[kept], table.firm[kept]
    return Panel(
        mode=mode,
        polarity=polarity,
        w=w,
        news_id=codes.news_id.take(news),
        firm_id=codes.firm_id.take(firm),
        sector=codes.sector[firm],
        sector_labels=codes.sector_labels,
        market=codes.market.take(firm),
        p_pos=codes.p_pos[news],
        p_neg=codes.p_neg[news],
        y=changes.take(table.query[kept], axis=0),
        market_x=changes.take(table.query[n + kept], axis=0),
        drops=drops,
    )


def panel_summary(panel: Panel) -> PanelSummary:
    """Exact observation, event, firm, and drop counts for one panel."""
    return PanelSummary(
        n_obs=len(panel),
        n_events=len(set(panel.news_id.tolist())),
        n_firms=len(set(panel.firm_id.tolist())),
        drop_counts=dict(sorted(Counter(d.reason for d in panel.drops).items())),
    )


def write_panel(panel: Panel, path) -> None:
    """Export observations in the panel CSV schema, pre then post per pair."""
    pairs = zip(*(column.tolist() for column in (
        panel.firm_id, panel.news_id, panel.news_value, panel.y, panel.market_x,
        panel.sector_labels[panel.sector], panel.market)))
    write_rows(path, PANEL_HEADER, (
        (firm_id, news_id, panel.w, period, y[j], news_value, x[j], sector, market_id)
        for firm_id, news_id, news_value, y, x, sector, market_id in pairs
        for j, period in enumerate((PRE, POST))
    ))

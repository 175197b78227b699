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

A build reads plain data from a ``Stores``: the firm registry is a dict of
``FirmRecord`` by firm_id, and the closes and index values are dicts of the
one ``market.Series`` type, by firm_id and by market_id.

A build splits into work done once per mode and work done once per window.
Once per mode, memoised on the ``Stores``, one Python pass over the sorted
events and their exposed firms makes the graph lookups and registry checks and
yields the mode's pair table: integer-coded news, firm, sector and market
columns, both sentiment probabilities, the event day, the registry drops, and
each pair's anchor position on its price series and on its market's index
series, found with one ``searchsorted`` per series and kept once per distinct
(series, anchor). Every price series and then every index series are laid end
to end in one array, once per ``Stores``. Once per window, one
``market.block_changes`` call over that array gives every pair's four
changes, so a window costs one kernel pass whatever the number of firms. A
``Stores`` is therefore read-only once a panel has been built from it;
``dataclasses.replace`` gives a copy with a fresh memo.

The panel is columnar, one entry per kept pair in (news_id, firm_id) order:
pre and post side by side in ``y`` and ``market_x``, and both sentiment
columns, ``p_pos`` and ``p_neg``, so one build serves either polarity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional

import numpy as np

from . import market
from .csvio import write_rows
from .firms import FirmRecord
from .graph import SupplyChainNetwork
from .market import _EPOCH_ORDINAL, PRE, POST, Series
from .sentiment import NewsStore

MODES = ("own", "supplier", "client")
POLARITIES = ("positive", "negative")

PANEL_HEADER = ("firm_id", "news_id", "w", "period", "y", "news_value", "market_x", "sector", "market")

# audit reasons, in evaluation order
DROP_NO_SNAPSHOT = "no-snapshot"
DROP_UNKNOWN_FIRM = "unknown-firm"
DROP_MISSING_SECTOR = "missing-sector"
DROP_MISSING_MARKET = "missing-market"
DROP_PRICE_WINDOW = "price-window"
DROP_INDEX_WINDOW = "index-window"


@dataclass(frozen=True)
class DropRecord:
    news_id: str
    firm_id: str
    reason: str


@dataclass
class Stores:
    """The loaded inputs a panel build reads from."""

    firms: dict[str, FirmRecord]
    prices: dict[str, Series]
    indices: dict[str, Series]
    news: NewsStore
    graph: SupplyChainNetwork
    # per-mode pair tables and the stacked series; see the module docstring
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)


@dataclass
class Panel:
    """One entry per kept (event, exposed firm) pair, in (news_id, firm_id) order.

    Column 0 of ``y`` and ``market_x`` is the pre period, column 1 the post
    period; each pair stands for two observations, pre then post.
    ``news_value`` is ``p_pos`` or ``p_neg``, whichever ``polarity`` names.
    """

    mode: str
    polarity: str
    w: int
    news_id: np.ndarray  # (n,) str
    firm_id: np.ndarray  # (n,) str
    sector: np.ndarray  # (n,) str
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


def _exposed_firms(stores: Stores, event, mode: str) -> Optional[list[str]]:
    """Exposed firms for one event, or None when no usable snapshot exists."""
    if mode == "own":
        return sorted(event.mentions)
    snap_year = stores.graph.snapshot_year_at_or_before(event.date.year)
    if snap_year is None:
        return None
    exposed: set[str] = set()
    for mentioned in event.mentions:
        if mode == "supplier":
            exposed |= stores.graph.suppliers_of(mentioned, snap_year)
        else:
            exposed |= stores.graph.clients_of(mentioned, snap_year)
    exposed -= event.mentions
    return sorted(exposed)


@dataclass(frozen=True)
class _PairTable:
    """The pairs of one mode that pass the registry checks, in event-loop order.

    ``news`` and ``firm`` code each pair's event and exposed firm. Event
    columns are per news code and the sector and market codes per firm code;
    each code indexes its label array. ``first``, ``length`` and ``anchor``
    hold the distinct window queries, and ``query`` names the one each pair's
    price query, then each pair's index query, reads. A market without an
    index series has length 0, so its pairs get no change.
    """

    news: np.ndarray  # (n,) int64
    firm: np.ndarray
    news_labels: np.ndarray  # str, per news code
    p_pos: np.ndarray  # float64, per news code
    p_neg: np.ndarray
    day: np.ndarray  # int64 days since 1970-01-01, per news code
    firm_labels: np.ndarray  # str, per firm code
    sector: np.ndarray  # int64, per firm code
    market: np.ndarray
    sector_labels: np.ndarray
    market_labels: np.ndarray
    drops: list[tuple[int, DropRecord]]  # registry drops, each after that many pairs
    first: np.ndarray  # (k,) int64
    length: np.ndarray
    anchor: np.ndarray
    query: np.ndarray  # (2n,) int64, into the k distinct queries


def _stack(stores: Stores) -> tuple[np.ndarray, dict[tuple[str, str], int]]:
    """Every price series, then every index series, end to end in one array,
    and the first index of each ("price", firm_id) and ("index", market_id)."""
    stack = stores._memo.get("stack")
    if stack is None:
        columns = [s.values for s in (*stores.prices.values(), *stores.indices.values())]
        keys = [("price", f) for f in stores.prices] + [("index", m) for m in stores.indices]
        firsts = np.cumsum([0] + [len(column) for column in columns]).tolist()
        stack = stores._memo["stack"] = (np.concatenate([np.empty(0), *columns]), dict(zip(keys, firsts)))
    return stack


def _encode(labels: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(distinct labels, code per entry), codes in order of first appearance."""
    coder: dict[str, int] = {}
    codes = [coder.setdefault(label, len(coder)) for label in labels]
    return np.array(list(coder), dtype=str), np.array(codes, dtype=np.int64)


def _registry_reason(stores: Stores, firm_id: str) -> Optional[str]:
    """Why every pair of a firm drops before its windows are read, or None."""
    record = stores.firms.get(firm_id)
    if record is None:
        return DROP_UNKNOWN_FIRM
    if not record.sector_code:
        return DROP_MISSING_SECTOR
    if not record.market_id:
        return DROP_MISSING_MARKET
    if firm_id not in stores.prices:
        return DROP_PRICE_WINDOW
    return None


def _anchor_queries(stores: Stores, kind: str, labels: np.ndarray, code: np.ndarray, day: np.ndarray):
    """(first, length, anchor) per pair on its price or index series, with one
    ``searchsorted`` per series; a pair without a series gets length 0."""
    series_by_id = stores.prices if kind == "price" else stores.indices
    firsts = _stack(stores)[1]
    first, length, anchor = (np.zeros(len(code), dtype=np.int64) for _ in range(3))
    order = np.argsort(code, kind="stable")
    bounds = np.searchsorted(code[order], np.arange(len(labels) + 1))
    for k, ident in enumerate(labels.tolist()):
        series = series_by_id.get(ident)
        if series is not None:
            rows = order[bounds[k] : bounds[k + 1]]
            first[rows], length[rows] = firsts[kind, ident], len(series)
            anchor[rows] = np.searchsorted(series.dates, day[rows].view("datetime64[D]"))
    return first, length, anchor


def _pair_table(stores: Stores, mode: str) -> _PairTable:
    table = stores._memo.get(mode)
    if table is not None:
        return table
    drops: list[tuple[int, DropRecord]] = []
    verdicts: dict[str, int | str] = {}  # firm_id -> firm code, or its registry reason
    firm_ids: list[str] = []
    events = []  # the events with at least one pair, by news code
    news_code: list[int] = []
    firm_code: list[int] = []
    for news_id in sorted(stores.news.events):
        event = stores.news.events[news_id]
        exposed = _exposed_firms(stores, event, mode)
        if exposed is None:
            for mentioned in sorted(event.mentions):
                drops.append((len(firm_code), DropRecord(news_id, mentioned, DROP_NO_SNAPSHOT)))
            continue
        before = len(firm_code)
        for firm_id in exposed:
            verdict = verdicts.get(firm_id)
            if verdict is None:
                verdict = _registry_reason(stores, firm_id)
                if verdict is None:
                    verdict = len(firm_ids)
                    firm_ids.append(firm_id)
                verdicts[firm_id] = verdict
            if isinstance(verdict, str):
                drops.append((len(firm_code), DropRecord(news_id, firm_id, verdict)))
            else:
                news_code.append(len(events))
                firm_code.append(verdict)
        if len(firm_code) > before:
            events.append(event)

    news = np.array(news_code, dtype=np.int64)
    firm = np.array(firm_code, dtype=np.int64)
    records = [stores.firms.get(firm_id) for firm_id in firm_ids]
    sector_labels, sector = _encode([record.sector_code for record in records])
    market_labels, market = _encode([record.market_id for record in records])
    firm_labels = np.array(firm_ids, dtype=str)
    day = np.array([e.date.toordinal() - _EPOCH_ORDINAL for e in events], dtype=np.int64)
    queries = zip(_anchor_queries(stores, "price", firm_labels, firm, day[news]),
                  _anchor_queries(stores, "index", market_labels, market[firm], day[news]))
    first, length, anchor = (np.concatenate(pair) for pair in queries)
    # pairs of one series anchored on one day ask the same query. Queries of two
    # series meet at one block-C start only past the end of one series or at
    # the start of the next, where no window fits, so the start alone is a key.
    _, pick, query = np.unique(first + anchor, return_index=True, return_inverse=True)
    table = stores._memo[mode] = _PairTable(
        news=news,
        firm=firm,
        news_labels=np.array([e.news_id for e in events], dtype=str),
        p_pos=np.array([e.p_pos for e in events], dtype=float),
        p_neg=np.array([e.p_neg for e in events], dtype=float),
        day=day,
        firm_labels=firm_labels,
        sector=sector,
        market=market,
        sector_labels=sector_labels,
        market_labels=market_labels,
        drops=drops,
        first=first[pick],
        length=length[pick],
        anchor=anchor[pick],
        query=query,
    )
    return table


def build_panel(stores: Stores, mode: str, polarity: str, w: int) -> Panel:
    """Assemble the balanced pre/post panel for one (mode, polarity, window)."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if polarity not in POLARITIES:
        raise ValueError(f"polarity must be one of {POLARITIES}, got {polarity!r}")
    if w < 1:
        raise ValueError(f"window must be >= 1, got {w}")

    table = _pair_table(stores, mode)
    n = len(table.news)
    pre, post = market.block_changes(_stack(stores)[0], table.first, table.length, table.anchor, w)
    pre, post = pre[table.query], post[table.query]
    y = np.column_stack((pre[:n], post[:n]))
    market_x = np.column_stack((pre[n:], post[n:]))
    has_price = ~np.isnan(y).any(axis=1)
    keep = has_price & ~np.isnan(market_x).any(axis=1)

    dropped = np.flatnonzero(~keep)
    news_labels, firm_labels = table.news_labels.tolist(), table.firm_labels.tolist()
    window_drops = [
        (i, DropRecord(news_labels[news], firm_labels[firm],
                       DROP_INDEX_WINDOW if price_ok else DROP_PRICE_WINDOW))
        for i, news, firm, price_ok in zip(
            dropped.tolist(), table.news[dropped].tolist(), table.firm[dropped].tolist(),
            has_price[dropped].tolist())
    ]
    # a stable sort on the pair count keeps a registry drop recorded before
    # pair i ahead of pair i's window drop: the order of the event loop
    drops = [record for _, record in sorted(table.drops + window_drops, key=itemgetter(0))]
    news, firm = table.news[keep], table.firm[keep]
    return Panel(
        mode=mode,
        polarity=polarity,
        w=w,
        news_id=table.news_labels[news],
        firm_id=table.firm_labels[firm],
        sector=table.sector_labels[table.sector[firm]],
        market=table.market_labels[table.market[firm]],
        p_pos=table.p_pos[news],
        p_neg=table.p_neg[news],
        y=y[keep],
        market_x=market_x[keep],
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
        panel.sector, panel.market)))
    write_rows(path, PANEL_HEADER, (
        (firm_id, news_id, panel.w, period, y[j], news_value, x[j], sector, market_id)
        for firm_id, news_id, news_value, y, x, sector, market_id in pairs
        for j, period in enumerate((PRE, POST))
    ))

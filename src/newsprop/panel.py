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

A build makes one Python pass over the sorted events and their exposed firms
for the graph lookups and registry checks, then one ``market.window_changes``
call per firm series and per market index. The panel is columnar, one entry per
kept pair in (news_id, firm_id) order: pre and post side by side in ``y`` and
``market_x``, and both sentiment columns, ``p_pos`` and ``p_neg``, so one build
serves either polarity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import market
from .csvio import write_rows
from .firms import FirmRegistry
from .graph import SupplyChainNetwork
from .market import IndexSeries, PRE, POST, PriceSeries
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

    firms: FirmRegistry
    prices: dict[str, PriceSeries]
    indices: dict[str, IndexSeries]
    news: NewsStore
    graph: SupplyChainNetwork


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


def build_panel(stores: Stores, mode: str, polarity: str, w: int) -> Panel:
    """Assemble the balanced pre/post panel for one (mode, polarity, window)."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if polarity not in POLARITIES:
        raise ValueError(f"polarity must be one of {POLARITIES}, got {polarity!r}")
    if w < 1:
        raise ValueError(f"window must be >= 1, got {w}")

    drops: list[DropRecord] = []
    # (news_id, firm_id, sector, market, p_pos, p_neg, date) per pair that passes
    # the registry checks, and the rows of each firm and market among them
    pairs: list[tuple] = []
    firm_rows: dict[str, list[int]] = {}
    market_rows: dict[str, list[int]] = {}

    for news_id in sorted(stores.news.events):
        event = stores.news.events[news_id]
        exposed = _exposed_firms(stores, event, mode)
        if exposed is None:
            for mentioned in sorted(event.mentions):
                drops.append(DropRecord(news_id, mentioned, DROP_NO_SNAPSHOT))
            continue
        for firm_id in exposed:
            record = stores.firms.get(firm_id)
            if record is None:
                drops.append(DropRecord(news_id, firm_id, DROP_UNKNOWN_FIRM))
                continue
            if not record.sector_code:
                drops.append(DropRecord(news_id, firm_id, DROP_MISSING_SECTOR))
                continue
            if not record.market_id:
                drops.append(DropRecord(news_id, firm_id, DROP_MISSING_MARKET))
                continue
            if firm_id not in stores.prices:
                drops.append(DropRecord(news_id, firm_id, DROP_PRICE_WINDOW))
                continue
            firm_rows.setdefault(firm_id, []).append(len(pairs))
            market_rows.setdefault(record.market_id, []).append(len(pairs))
            pairs.append((news_id, firm_id, record.sector_code, record.market_id,
                          event.p_pos, event.p_neg, event.date))

    columns = list(zip(*pairs)) or [()] * 7
    dates = np.array(columns[6], dtype="datetime64[D]")
    y = np.full((len(pairs), 2), np.nan)
    market_x = np.full((len(pairs), 2), np.nan)
    for firm_id, rows in firm_rows.items():
        series = stores.prices[firm_id]
        y[rows] = np.column_stack(market.window_changes(series.dates, series.closes, dates[rows], w))
    for market_id, rows in market_rows.items():
        index = stores.indices.get(market_id)
        if index is not None:
            market_x[rows] = np.column_stack(
                market.window_changes(index.dates, index.values, dates[rows], w)
            )

    has_price = ~np.isnan(y).any(axis=1)
    keep = has_price & ~np.isnan(market_x).any(axis=1)
    for i in np.flatnonzero(~keep):
        reason = DROP_INDEX_WINDOW if has_price[i] else DROP_PRICE_WINDOW
        drops.append(DropRecord(pairs[i][0], pairs[i][1], reason))
    # each pair drops at most once, so this restores the order of the event loop
    drops.sort(key=lambda d: (d.news_id, d.firm_id))
    return Panel(
        mode=mode,
        polarity=polarity,
        w=w,
        news_id=np.array(columns[0], dtype=str)[keep],
        firm_id=np.array(columns[1], dtype=str)[keep],
        sector=np.array(columns[2], dtype=str)[keep],
        market=np.array(columns[3], dtype=str)[keep],
        p_pos=np.array(columns[4], dtype=float)[keep],
        p_neg=np.array(columns[5], dtype=float)[keep],
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

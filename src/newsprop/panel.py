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

Stores are read-only during a build and events are independent, so builds
parallelize trivially; output order is fixed by sorting on
(news_id, firm_id, period).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from . import market
from .csvio import write_rows
from .errors import AnchorOutOfRangeError
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

_PERIOD_ORDER = {PRE: 0, POST: 1}


@dataclass(frozen=True)
class Observation:
    """One pre- or post-news panel row."""

    firm_id: str
    news_id: str
    w: int
    period: str
    y: float
    news_value: float
    market_x: float
    sector: str
    market: str


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
    mode: str
    polarity: str
    w: int
    observations: list[Observation]
    drops: list[DropRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.observations)


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


def _index_control(cache: dict, index: IndexSeries, date, w: int, period: str) -> Optional[float]:
    key = (index.market_id, date, period)
    if key not in cache:
        try:
            cache[key] = market.market_control(index, date, w, period)
        except AnchorOutOfRangeError:
            cache[key] = None
    return cache[key]


def build_panel(stores: Stores, mode: str, polarity: str, w: int) -> Panel:
    """Assemble the balanced pre/post panel for one (mode, polarity, window)."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if polarity not in POLARITIES:
        raise ValueError(f"polarity must be one of {POLARITIES}, got {polarity!r}")
    if w < 1:
        raise ValueError(f"window must be >= 1, got {w}")

    observations: list[Observation] = []
    drops: list[DropRecord] = []
    control_cache: dict = {}

    for news_id in sorted(stores.news.events):
        event = stores.news.events[news_id]
        exposed = _exposed_firms(stores, event, mode)
        if exposed is None:
            for mentioned in sorted(event.mentions):
                drops.append(DropRecord(news_id, mentioned, DROP_NO_SNAPSHOT))
            continue
        news_value = event.p_pos if polarity == "positive" else event.p_neg
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
            series = stores.prices.get(firm_id)
            if series is None:
                drops.append(DropRecord(news_id, firm_id, DROP_PRICE_WINDOW))
                continue
            try:
                y_pre = market.window_change(series, event.date, w, PRE)
                y_post = market.window_change(series, event.date, w, POST)
            except AnchorOutOfRangeError:
                y_pre = y_post = None
            if y_pre is None or y_post is None:
                drops.append(DropRecord(news_id, firm_id, DROP_PRICE_WINDOW))
                continue
            index = stores.indices.get(record.market_id)
            if index is None:
                drops.append(DropRecord(news_id, firm_id, DROP_INDEX_WINDOW))
                continue
            x_pre = _index_control(control_cache, index, event.date, w, PRE)
            x_post = _index_control(control_cache, index, event.date, w, POST)
            if x_pre is None or x_post is None:
                drops.append(DropRecord(news_id, firm_id, DROP_INDEX_WINDOW))
                continue
            for period, y, x in ((PRE, y_pre.value, x_pre), (POST, y_post.value, x_post)):
                observations.append(
                    Observation(
                        firm_id=firm_id,
                        news_id=news_id,
                        w=w,
                        period=period,
                        y=y,
                        news_value=news_value,
                        market_x=x,
                        sector=record.sector_code,
                        market=record.market_id,
                    )
                )

    observations.sort(key=lambda o: (o.news_id, o.firm_id, _PERIOD_ORDER[o.period]))
    return Panel(mode=mode, polarity=polarity, w=w, observations=observations, drops=drops)


def panel_summary(panel: Panel) -> PanelSummary:
    """Exact observation, event, firm, and drop counts for one panel."""
    return PanelSummary(
        n_obs=len(panel.observations),
        n_events=len({o.news_id for o in panel.observations}),
        n_firms=len({o.firm_id for o in panel.observations}),
        drop_counts=dict(sorted(Counter(d.reason for d in panel.drops).items())),
    )


def write_panel(panel: Panel, path) -> None:
    """Export observations in the panel CSV schema."""
    write_rows(path, PANEL_HEADER, (
        (o.firm_id, o.news_id, o.w, o.period, o.y, o.news_value, o.market_x, o.sector, o.market)
        for o in panel.observations
    ))

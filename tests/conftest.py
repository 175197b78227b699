"""Shared fixture helpers: tiny hand-built bundles, a simulated bundle's
public forms, random panels, and the scalar window formula the vectorised
kernel is checked against."""

from __future__ import annotations

import datetime as dt
import math
from itertools import repeat
from typing import Optional

import numpy as np
import pytest

from newsprop.firms import FirmRecord
from newsprop.graph import SupplyChainNetwork
from newsprop.market import PRE, Series
from newsprop.panel import Panel, Stores
from newsprop.sentiment import NewsEvent, NewsStore


def make_series(dates, values) -> Series:
    return Series(
        dates=np.array([np.datetime64(d, "D") for d in dates]),
        values=np.array(values, dtype=float),
    )


def weekday_dates(start: dt.date, n: int) -> list[dt.date]:
    """First n weekdays on or after start."""
    out = []
    day = start
    while len(out) < n:
        if day.weekday() < 5:
            out.append(day)
        day += dt.timedelta(days=1)
    return out


def make_inputs(firms=None, prices=None, indices=None, events=None, edges_by_year=None) -> dict:
    """The five ``Stores`` arguments, from records, series, events and edges."""
    return dict(
        firms={r.firm_id: r for r in (firms or [])},
        prices=dict(prices or {}),
        indices=dict(indices or {}),
        news=NewsStore({e.news_id: e for e in (events or [])}),
        graph=SupplyChainNetwork(edges_by_year or {}),
    )


def sim_inputs(bundle) -> dict:
    """A simulated bundle's five ``Stores`` arguments, as the loaders would give
    them. Its ``Series`` are views into the bundle's closes and index values."""
    return make_inputs(
        firms=map(FirmRecord, bundle.firm_id.tolist(), bundle.market.tolist(), bundle.sector.tolist(),
                  repeat("SIM")),
        prices=bundle.prices,
        indices=zip(bundle.index_id.tolist(), map(Series, repeat(bundle.calendar), bundle.index_closes)),
        events=bundle.events,
        edges_by_year={bundle.edge_year: [edge[1:] for edge in bundle.edges]} if bundle.edges else {},
    )


def make_stores(**kwargs) -> Stores:
    return Stores(**make_inputs(**kwargs))


def simple_firm(firm_id: str, market="M0", sector="S0") -> FirmRecord:
    return FirmRecord(firm_id=firm_id, market_id=market, sector_code=sector, country="XX")


def simple_event(news_id, date, mentions, p_pos=0.6, p_neu=0.3, p_neg=0.1) -> NewsEvent:
    return NewsEvent(
        news_id=news_id,
        date=date,
        mentions=frozenset(mentions),
        p_pos=p_pos,
        p_neu=p_neu,
        p_neg=p_neg,
    )


def reference_change(dates, values, news_date: dt.date, w: int, period: str) -> Optional[float]:
    """One window change by the scalar formula, or None where a block is incomplete."""
    p = int(np.searchsorted(dates, np.datetime64(news_date, "D"), side="left"))
    if p >= len(dates):
        return None
    if period == PRE:
        lo1, hi1, lo2, hi2 = p - 2 * w, p - w - 1, p - w, p - 1
    else:
        lo1, hi1, lo2, hi2 = p - w, p - 1, p, p + w - 1
    if lo1 < 0 or hi2 >= len(values):
        return None
    first = float(values[lo1 : hi1 + 1].mean())
    second = float(values[lo2 : hi2 + 1].mean())
    return (math.log(second) - math.log(first)) / w * 100.0


def make_panel(sector, news_value, y, market_x, w: int = 1) -> Panel:
    """An own/positive panel from its numeric columns; pair k is news N<k>, firm F<k>.

    ``news_value`` fills ``p_pos``; ``p_neg`` is its complement. ``sector``
    holds labels, coded into the panel's sorted ``sector_labels``.
    """
    n = len(sector)
    sector_labels, sector = np.unique(np.array(sector, dtype=str), return_inverse=True)
    return Panel(
        mode="own",
        polarity="positive",
        w=w,
        news_id=np.array([f"N{k:05d}" for k in range(n)], dtype=str),
        firm_id=np.array([f"F{k:04d}" for k in range(n)], dtype=str),
        sector=sector,
        sector_labels=sector_labels,
        market=np.array(["M0"] * n, dtype=str),
        p_pos=np.array(news_value, dtype=float),
        p_neg=1.0 - np.array(news_value, dtype=float),
        y=np.array(y, dtype=float).reshape(n, 2),
        market_x=np.array(market_x, dtype=float).reshape(n, 2),
    )


def random_panel(rng: np.random.Generator, n_pairs: int, n_sectors: int, w: int = 1) -> Panel:
    """A generic balanced panel with random regressors, for estimator tests."""
    sector, news_value = [], []
    y = np.empty((n_pairs, 2))
    market_x = np.empty((n_pairs, 2))
    for k in range(n_pairs):
        sector.append(f"S{rng.integers(0, n_sectors):02d}")
        news_value.append(float(rng.uniform(0.0, 1.0)))
        for j in (0, 1):  # pre, post
            y[k, j] = rng.normal(0.0, 1.0)
            market_x[k, j] = rng.normal(0.0, 1.0)
    return make_panel(sector, news_value, y, market_x, w=w)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240901)

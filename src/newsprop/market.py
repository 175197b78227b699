"""Daily close-price and market-index series on trading calendars.

The windowed change operations implement the pre/post average daily
percentage change around a news date. Positions are indices into the series,
so weekends, holidays, and missing quotes simply do not exist on the axis.
With anchor position p and window w, the three blocks of trading positions
are

    A = [p-2w, p-w-1]   B = [p-w, p-1]   C = [p, p+w-1]

and the changes are (ln mean(B) - ln mean(A)) / w * 100 for the pre period
and (ln mean(C) - ln mean(B)) / w * 100 for the post period, with the mean
taken over close prices inside the block (log of average, not average of
logs). A change is produced only when every required block is fully inside
the series; otherwise the observation is dropped.

A news date that is not a trading date anchors on the first trading date
strictly after it, so the post window always starts at the first tradable
reaction. ``window_changes`` is the one implementation: it anchors every news
date of one series with a single ``searchsorted`` and averages each distinct
block once. ``window_change`` and ``market_control`` are its one-date forms.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .csvio import parse_date, read_rows
from .errors import RowRejection

PRE = "pre"
POST = "post"

PRICE_HEADER = ("firm_id", "date", "close")
INDEX_HEADER = ("market_id", "date", "value")

_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()  # day 0 of datetime64[D]


@dataclass(frozen=True)
class PriceSeries:
    """Per-firm daily closes, strictly date-ascending, all positive."""

    firm_id: str
    dates: np.ndarray  # datetime64[D]
    closes: np.ndarray  # float64

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class IndexSeries:
    """Per-market daily index values on the market's own trading calendar."""

    market_id: str
    dates: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.dates)


def window_changes(
    dates: np.ndarray, values: np.ndarray, news_dates: np.ndarray, w: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pre- and post-news daily percentage changes for many dates on one series.

    ``dates`` and ``values`` are one series; ``news_dates`` is any array of
    datetime64[D]. Returns two float arrays shaped like ``news_dates``, NaN
    where a required block is not fully inside the series or no trading date
    on or after the news date exists.
    """
    if w < 1:
        raise ValueError(f"window must be >= 1, got {w}")
    p = np.searchsorted(dates, news_dates, side="left")
    n = len(values)
    has_pre = (p >= 2 * w) & (p < n)
    has_post = (p >= w) & (p + w <= n)
    pre = np.full(p.shape, np.nan)
    post = np.full(p.shape, np.nan)
    a, b, c = p - 2 * w, p - w, p  # first positions of blocks A, B, C
    starts = np.unique(np.concatenate((a[has_pre], b[has_pre | has_post], c[has_post])))
    if len(starts) == 0:
        return pre, post
    # each block's mean is taken over its own slice, as values[s:s+w].mean()
    # would, and logged with math.log so every digit matches the scalar formula
    means = sliding_window_view(values, w)[starts].mean(axis=1)
    logs = np.array([math.log(m) for m in means.tolist()])

    def log_mean(first: np.ndarray) -> np.ndarray:
        return logs[np.searchsorted(starts, first)]

    pre[has_pre] = (log_mean(b[has_pre]) - log_mean(a[has_pre])) / w * 100.0
    post[has_post] = (log_mean(c[has_post]) - log_mean(b[has_post])) / w * 100.0
    return pre, post


def _one_change(dates, values, news_date: dt.date, w: int, period: str) -> Optional[float]:
    if period not in (PRE, POST):
        raise ValueError(f"period must be {PRE!r} or {POST!r}, got {period!r}")
    pre, post = window_changes(dates, values, np.array([news_date], dtype="datetime64[D]"), w)
    value = float((pre if period == PRE else post)[0])
    return None if math.isnan(value) else value


def window_change(
    series: PriceSeries, news_date: dt.date, w: int, period: str
) -> Optional[float]:
    """Pre- or post-news daily percentage change for one firm, or None.

    None when any required block extends beyond the series (the observation
    is dropped rather than computed from a partial block), including a news
    date after the last trading date.
    """
    return _one_change(series.dates, series.closes, news_date, w, period)


def market_control(
    index: IndexSeries, news_date: dt.date, w: int, period: str
) -> Optional[float]:
    """Same windowed change applied to a market index, anchored on its own calendar."""
    return _one_change(index.dates, index.values, news_date, w, period)


def _load_dated_values(path, header: tuple[str, str, str]):
    """Shared loader for the price and index schemas.

    Returns ``({id: (dates, values)}, rejections)``: per id, in the order of
    its first accepted row, a strictly ascending datetime64[D] array and the
    float64 values on those dates. Rows need not be sorted; duplicate
    (id, date) pairs reject the later row.
    """
    day_of: dict[str, int] = {}  # date text -> days since 1970-01-01
    by_id: dict[str, dict[int, float]] = {}
    rejections: list[RowRejection] = []
    for i, row in read_rows(path, header):
        if len(row) != 3:
            rejections.append(RowRejection(i, "wrong column count"))
            continue
        ident, date_text, value_text = row[0].strip(), row[1].strip(), row[2].strip()
        if not ident:
            rejections.append(RowRejection(i, f"empty {header[0]}"))
            continue
        day = day_of.get(date_text)
        if day is None:
            try:
                day = parse_date(date_text).toordinal() - _EPOCH_ORDINAL
            except ValueError:
                rejections.append(RowRejection(i, f"malformed date {date_text!r}"))
                continue
            day_of[date_text] = day
        try:
            value = float(value_text)
        except ValueError:
            rejections.append(RowRejection(i, f"malformed {header[2]} {value_text!r}"))
            continue
        if not math.isfinite(value) or value <= 0.0:
            rejections.append(RowRejection(i, f"nonpositive {header[2]} {value_text!r}"))
            continue
        series = by_id.setdefault(ident, {})
        if day in series:
            date = dt.date.fromordinal(day + _EPOCH_ORDINAL)
            rejections.append(RowRejection(i, f"duplicate ({ident}, {date.isoformat()})"))
            continue
        series[day] = value
    arrays = {}
    for ident, points in by_id.items():
        days = np.fromiter(points.keys(), dtype=np.int64, count=len(points))
        values = np.fromiter(points.values(), dtype=np.float64, count=len(points))
        order = np.argsort(days)  # days are unique, so the order is unambiguous
        arrays[ident] = (days[order].astype("datetime64[D]"), values[order])
    return arrays, rejections


def load_prices(path) -> tuple[dict[str, PriceSeries], list[RowRejection]]:
    """Load a price file (header ``firm_id,date,close``) into per-firm series."""
    by_id, rejections = _load_dated_values(path, PRICE_HEADER)
    store = {
        firm_id: PriceSeries(firm_id=firm_id, dates=dates, closes=closes)
        for firm_id, (dates, closes) in by_id.items()
    }
    return store, rejections


def load_indices(path) -> tuple[dict[str, IndexSeries], list[RowRejection]]:
    """Load an index file (header ``market_id,date,value``) into per-market series."""
    by_id, rejections = _load_dated_values(path, INDEX_HEADER)
    store = {
        market_id: IndexSeries(market_id=market_id, dates=dates, values=values)
        for market_id, (dates, values) in by_id.items()
    }
    return store, rejections

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
reaction. Series are immutable after load; the window computations are pure
functions and safe to call from any number of threads.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .csvio import parse_date, read_rows
from .errors import AnchorOutOfRangeError, RowRejection

PRE = "pre"
POST = "post"

PRICE_HEADER = ("firm_id", "date", "close")
INDEX_HEADER = ("market_id", "date", "value")


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


@dataclass(frozen=True)
class WindowChange:
    """One windowed daily percentage change, in percent per day."""

    value: float
    period: str
    w: int
    anchor: dt.date


def _anchor(dates: np.ndarray, news_date: dt.date) -> int:
    if len(dates) == 0:
        raise AnchorOutOfRangeError("empty series")
    pos = int(np.searchsorted(dates, np.datetime64(news_date, "D"), side="left"))
    if pos >= len(dates):
        raise AnchorOutOfRangeError(
            f"news date {news_date.isoformat()} is after the last trading date"
        )
    return pos


def _block_change(values: np.ndarray, p: int, w: int, period: str) -> Optional[float]:
    if period == PRE:
        lo1, hi1, lo2, hi2 = p - 2 * w, p - w - 1, p - w, p - 1
    elif period == POST:
        lo1, hi1, lo2, hi2 = p - w, p - 1, p, p + w - 1
    else:
        raise ValueError(f"period must be {PRE!r} or {POST!r}, got {period!r}")
    if lo1 < 0 or hi2 >= len(values):
        return None
    first = float(values[lo1 : hi1 + 1].mean())
    second = float(values[lo2 : hi2 + 1].mean())
    return (math.log(second) - math.log(first)) / w * 100.0


def anchor_position(series: PriceSeries, news_date: dt.date) -> int:
    """Trading position of ``news_date``, or of the first trading date after it."""
    return _anchor(series.dates, news_date)


def window_change(
    series: PriceSeries, news_date: dt.date, w: int, period: str
) -> Optional[WindowChange]:
    """Pre- or post-news daily percentage change for one firm, or None.

    Returns None when any required block extends beyond the series (the
    observation is dropped rather than computed from a partial block).
    Raises AnchorOutOfRangeError when no trading date >= ``news_date`` exists.
    """
    if w < 1:
        raise ValueError(f"window must be >= 1, got {w}")
    p = _anchor(series.dates, news_date)
    value = _block_change(series.closes, p, w, period)
    if value is None:
        return None
    return WindowChange(value=value, period=period, w=w, anchor=series.dates[p].item())


def market_control(
    index: IndexSeries, news_date: dt.date, w: int, period: str
) -> Optional[float]:
    """Same windowed change applied to a market index, anchored on its own calendar."""
    if w < 1:
        raise ValueError(f"window must be >= 1, got {w}")
    p = _anchor(index.dates, news_date)
    return _block_change(index.values, p, w, period)


def _load_dated_values(path, header: tuple[str, str, str]):
    """Shared loader for the price and index schemas.

    Returns ({id: [(date, value), ...]}, rejections). Rows need not be sorted;
    duplicate (id, date) pairs reject the later row.
    """
    by_id: dict[str, dict[dt.date, float]] = {}
    rejections: list[RowRejection] = []
    for i, row in read_rows(path, header):
        if len(row) != 3:
            rejections.append(RowRejection(i, "wrong column count"))
            continue
        ident, date_text, value_text = (field.strip() for field in row)
        if not ident:
            rejections.append(RowRejection(i, f"empty {header[0]}"))
            continue
        try:
            date = parse_date(date_text)
        except ValueError:
            rejections.append(RowRejection(i, f"malformed date {date_text!r}"))
            continue
        try:
            value = float(value_text)
        except ValueError:
            rejections.append(RowRejection(i, f"malformed {header[2]} {value_text!r}"))
            continue
        if not math.isfinite(value) or value <= 0.0:
            rejections.append(RowRejection(i, f"nonpositive {header[2]} {value_text!r}"))
            continue
        series = by_id.setdefault(ident, {})
        if date in series:
            rejections.append(RowRejection(i, f"duplicate ({ident}, {date.isoformat()})"))
            continue
        series[date] = value
    return by_id, rejections


def _as_arrays(points: dict[dt.date, float]) -> tuple[np.ndarray, np.ndarray]:
    dates = sorted(points)
    return (
        np.array([np.datetime64(d, "D") for d in dates]),
        np.array([points[d] for d in dates], dtype=float),
    )


def load_prices(path) -> tuple[dict[str, PriceSeries], list[RowRejection]]:
    """Load a price file (header ``firm_id,date,close``) into per-firm series."""
    by_id, rejections = _load_dated_values(path, PRICE_HEADER)
    store = {}
    for firm_id, points in by_id.items():
        dates, closes = _as_arrays(points)
        store[firm_id] = PriceSeries(firm_id=firm_id, dates=dates, closes=closes)
    return store, rejections


def load_indices(path) -> tuple[dict[str, IndexSeries], list[RowRejection]]:
    """Load an index file (header ``market_id,date,value``) into per-market series."""
    by_id, rejections = _load_dated_values(path, INDEX_HEADER)
    store = {}
    for market_id, points in by_id.items():
        dates, values = _as_arrays(points)
        store[market_id] = IndexSeries(market_id=market_id, dates=dates, values=values)
    return store, rejections

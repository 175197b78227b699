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
reaction. ``block_changes`` is the one implementation. It reads series laid
end to end in one array, each query naming its series by first index and
length plus its anchor position on that series. It averages each distinct
block once, as one ``sliding_window_view`` gather done in batches of at most
``_GATHER_BATCH`` elements, so the memory it takes does not grow with the
block count times w. A block that would leave its own series is masked, never
read from a neighbour. ``window_change`` is its one-date form on one series.

A firm's closes and a market's index are one ``Series`` type, because the
same windowed change applies to both: on an index it is the market-index
control. ``market_control`` is a second name for ``window_change``, kept
only because the benchmark harness counts calls to it by that name.
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
class Series:
    """One firm's daily closes or one market's index values, strictly
    date-ascending and all positive; the key it is stored under names it."""

    dates: np.ndarray  # datetime64[D]
    values: np.ndarray  # float64

    def __len__(self) -> int:
        return len(self.dates)


_GATHER_BATCH = 1 << 16  # block elements copied per gather, at most (512 KiB)


def block_changes(values: np.ndarray, first, length, anchor: np.ndarray, w: int):
    """Pre- and post-news daily percentage changes for many anchors.

    ``values`` holds series laid end to end; query k reads the series that
    starts at ``first[k]`` and has ``length[k]`` values, anchored at position
    ``anchor[k]`` on it. ``first`` and ``length`` may be scalars. Returns two
    float arrays shaped like ``anchor``, NaN where a required block is not
    fully inside the query's own series.
    """
    if w < 1:
        raise ValueError(f"window must be >= 1, got {w}")
    pre = np.full(np.shape(anchor), np.nan)
    post = np.full(np.shape(anchor), np.nan)
    # a pre change needs 2w positions before an anchor inside the series, a post
    # change w on each side, so neither fits in fewer than 2w values; this is
    # checked in Python ints, so a w past int64 never reaches numpy
    if pre.size == 0 or 2 * w > int(np.max(length)):
        return pre, post
    has_pre = (anchor >= 2 * w) & (anchor < length)
    has_post = (anchor >= w) & (anchor + w <= length)
    c = first + anchor  # first index of block C; B starts w and A 2w before it
    requested = (c[has_pre] - 2 * w, c[has_pre] - w, c[has_post] - w, c[has_post])
    starts, inverse = np.unique(np.concatenate(requested), return_inverse=True)
    # each block's mean is taken over its own slice, as values[s:s+w].mean()
    # would, and logged with math.log so every digit matches the scalar formula
    blocks = sliding_window_view(values, w)
    means = np.empty(len(starts))
    step = max(1, _GATHER_BATCH // w)
    for i in range(0, len(starts), step):
        means[i : i + step] = blocks[starts[i : i + step]].mean(axis=1)
    logs = np.fromiter(map(math.log, means.tolist()), dtype=float, count=len(means))
    a, b_pre, b_post, c_post = np.split(logs[inverse], np.cumsum([len(r) for r in requested[:3]]))
    pre[has_pre] = (b_pre - a) / w * 100.0
    post[has_post] = (c_post - b_post) / w * 100.0
    return pre, post


def window_change(series: Series, news_date: dt.date, w: int, period: str) -> Optional[float]:
    """Pre- or post-news daily percentage change on one series, or None.

    None when any required block extends beyond the series (the observation
    is dropped rather than computed from a partial block), including a news
    date after the last trading date.
    """
    if period not in (PRE, POST):
        raise ValueError(f"period must be {PRE!r} or {POST!r}, got {period!r}")
    anchor = np.searchsorted(series.dates, np.array([news_date], dtype="datetime64[D]"))
    pre, post = block_changes(series.values, 0, len(series), anchor, w)
    value = float((pre if period == PRE else post)[0])
    return None if math.isnan(value) else value


# the market-index control: the same change on an index series (module docstring)
market_control = window_change


def _load_dated_values(path, header: tuple[str, str, str]):
    """Shared loader for the price and index schemas.

    Returns ``({id: Series}, rejections)``: per id, in the order of its first
    accepted row, a ``Series`` of strictly ascending datetime64[D] dates and
    the float64 values on those dates. Rows need not be sorted; duplicate
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
    store = {}
    for ident, points in by_id.items():
        days = np.fromiter(points.keys(), dtype=np.int64, count=len(points))
        values = np.fromiter(points.values(), dtype=np.float64, count=len(points))
        order = np.argsort(days)  # days are unique, so the order is unambiguous
        store[ident] = Series(days[order].astype("datetime64[D]"), values[order])
    return store, rejections


def load_prices(path) -> tuple[dict[str, Series], list[RowRejection]]:
    """Load a price file (header ``firm_id,date,close``) into per-firm series."""
    return _load_dated_values(path, PRICE_HEADER)


def load_indices(path) -> tuple[dict[str, Series], list[RowRejection]]:
    """Load an index file (header ``market_id,date,value``) into per-market series."""
    return _load_dated_values(path, INDEX_HEADER)

from __future__ import annotations

import csv
import datetime as dt
import itertools
import math
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from conftest import make_series, reference_change, weekday_dates
from newsprop import market
from newsprop.csvio import LoadError, RowRejection, parse_date, read_rows
from newsprop.market import (
    INDEX_HEADER,
    PRE,
    POST,
    PRICE_HEADER,
    block_changes,
    load_indices,
    load_prices,
    market_control,
    window_change,
)

JUN = lambda day: dt.date(2021, 6, day)  # noqa: E731  (June 2021: the 11th is a Friday)


class TestAnchorPosition:
    # uneven closes, so every anchor position gives different w=1 changes
    DAYS = [JUN(9), JUN(10), JUN(11), JUN(14), JUN(15)]
    CLOSES = [1.0, 3.0, 4.0, 10.0, 11.0]

    def test_trading_day_anchors_on_itself(self):
        series = make_series(self.DAYS, self.CLOSES)
        assert window_change(series, JUN(11), 1, PRE) == pytest.approx(math.log(3.0) * 100.0)
        assert window_change(series, JUN(11), 1, POST) == pytest.approx(math.log(4.0 / 3.0) * 100.0)

    def test_weekend_shifts_to_next_trading_day(self):
        series = make_series(self.DAYS, self.CLOSES)
        for period in (PRE, POST):  # Saturday -> Monday the 14th, not Friday the 11th
            saturday = window_change(series, JUN(12), 1, period)
            assert saturday == window_change(series, JUN(14), 1, period)
            assert saturday != window_change(series, JUN(11), 1, period)

    def test_after_last_date_gives_none(self):
        dates = weekday_dates(dt.date(2021, 6, 1), 5)
        series = make_series(dates, [1.0] * 5)
        for period in (PRE, POST):
            assert window_change(series, dates[-1] + dt.timedelta(days=1), 1, period) is None


class TestWindowChange:
    def test_constant_series_is_zero(self):
        dates = weekday_dates(dt.date(2021, 1, 4), 30)
        series = make_series(dates, [100.0] * 30)
        for w in (1, 2, 5):
            for period in (PRE, POST):
                change = window_change(series, dates[15], w, period)
                assert change is not None
                assert change == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_w1(self):
        # closes at positions p-2, p-1, p are 100, 102, 105
        dates = weekday_dates(dt.date(2021, 6, 7), 3)
        series = make_series(dates, [100.0, 102.0, 105.0])
        anchor = dates[2]
        pre = window_change(series, anchor, 1, PRE)
        post = window_change(series, anchor, 1, POST)
        assert pre == pytest.approx((math.log(102) - math.log(100)) * 100.0, abs=1e-9)
        assert post == pytest.approx((math.log(105) - math.log(102)) * 100.0, abs=1e-9)
        assert pre == pytest.approx(1.98026, abs=5e-6)
        assert post == pytest.approx(2.89875, abs=5e-6)

    def test_calendar_block_membership_w3(self):
        # news on Friday June 11th, w=3: A={3,4,7}, B={8,9,10}, C={11,14,15},
        # skipping the 5th/6th and 12th/13th (weekends)
        days = [3, 4, 7, 8, 9, 10, 11, 14, 15]
        closes = [101.0, 103.0, 107.0, 109.0, 113.0, 127.0, 131.0, 137.0, 139.0]
        series = make_series([JUN(d) for d in days], closes)
        pre = window_change(series, JUN(11), 3, PRE)
        post = window_change(series, JUN(11), 3, POST)
        mean_a = (101.0 + 103.0 + 107.0) / 3
        mean_b = (109.0 + 113.0 + 127.0) / 3
        mean_c = (131.0 + 137.0 + 139.0) / 3
        assert pre == pytest.approx((math.log(mean_b) - math.log(mean_a)) / 3 * 100, abs=1e-9)
        assert post == pytest.approx((math.log(mean_c) - math.log(mean_b)) / 3 * 100, abs=1e-9)

    def test_partial_block_drops_observation(self):
        dates = weekday_dates(dt.date(2021, 6, 1), 5)
        series = make_series(dates, [100.0] * 5)
        assert window_change(series, dates[1], 1, PRE) is None  # A would start at -1
        assert window_change(series, dates[4], 1, POST) is not None
        assert window_change(series, dates[4], 2, POST) is None  # C would pass the end

    def test_scale_invariance(self, rng):
        dates = weekday_dates(dt.date(2020, 3, 2), 60)
        closes = np.exp(rng.normal(0.0, 0.02, 60).cumsum()) * 50.0
        series = make_series(dates, closes)
        scaled = make_series(dates, closes * 37.5)
        for w in (1, 3, 7):
            for period in (PRE, POST):
                a = window_change(series, dates[30], w, period)
                b = window_change(scaled, dates[30], w, period)
                assert a == pytest.approx(b, abs=1e-9)

    def test_time_reversal_consistency(self, rng):
        dates = weekday_dates(dt.date(2020, 3, 2), 60)
        closes = np.exp(rng.normal(0.0, 0.02, 60).cumsum()) * 50.0
        series = make_series(dates, closes)
        for w in (1, 2, 5):
            pre = window_change(series, dates[30], w, PRE)
            post = window_change(series, dates[30 - w], w, POST)
            assert pre == pytest.approx(post, abs=1e-12)

    def test_outputs_finite_on_positive_inputs(self, rng):
        dates = weekday_dates(dt.date(2020, 3, 2), 40)
        closes = np.exp(rng.normal(0.0, 0.1, 40).cumsum())
        series = make_series(dates, closes)
        for w in (1, 2, 3, 5, 9):
            for period in (PRE, POST):
                for anchor in dates:
                    change = window_change(series, anchor, w, period)
                    if change is not None:
                        assert math.isfinite(change)

    def test_bad_window_rejected(self):
        series = make_series([JUN(10)], [1.0])
        with pytest.raises(ValueError):
            window_change(series, JUN(10), 0, PRE)
        with pytest.raises(ValueError):
            window_change(series, JUN(10), 1, "sideways")

    def test_window_must_be_an_integer(self):
        dates = weekday_dates(JUN(1), 12)
        series = make_series(dates, np.linspace(1.0, 2.0, 12))
        for w in (1.5, 2.0, "2", True, np.float64(2.0)):
            with pytest.raises(ValueError, match="window w must be an integer >= 1"):
                window_change(series, dates[6], w, PRE)
        assert window_change(series, dates[6], np.int64(2), PRE) == window_change(series, dates[6], 2, PRE)


def one_series_changes(dates, values, news_dates, w):
    """``block_changes`` on one series, each news date anchored by ``searchsorted``
    as a panel build anchors it."""
    return block_changes(values, 0, len(values), np.searchsorted(dates, news_dates), w)


class TestWindowChanges:
    """The kernel on one series against the scalar formula, digit for digit."""

    @pytest.mark.parametrize("scale, seed", [(1e4, 1), (1e-2, 2)])
    def test_equals_scalar_reference(self, scale, seed):
        rng = np.random.default_rng(seed)
        # 1500 quotes on a random subset of 2200 calendar days: gaps of any length
        days = np.arange(np.datetime64("2015-01-01"), np.datetime64("2015-01-01") + 2200)
        dates = np.sort(rng.choice(days, size=1500, replace=False))
        values = scale * np.exp(rng.normal(0.0, 0.02, 1500).cumsum())
        # every calendar day from before the first quote to after the last
        news = np.arange(dates[0] - 5, dates[-1] + 6)
        for w in (1, 2, 8, 9, 30, 128, 129, 365):
            pre, post = one_series_changes(dates, values, news, w)
            for changes, period in ((pre, PRE), (post, POST)):
                reference = [reference_change(dates, values, d, w, period) for d in news.tolist()]
                assert np.isnan(changes).tolist() == [r is None for r in reference]
                assert all(c == r for c, r in zip(changes.tolist(), reference) if r is not None)
                assert any(r is not None for r in reference)

    def test_empty_series_and_no_dates(self):
        empty = np.array([], dtype="datetime64[D]")
        news = np.array([JUN(1)], dtype="datetime64[D]")
        pre, post = one_series_changes(empty, np.array([]), news, 1)
        assert np.isnan(pre).all() and np.isnan(post).all()
        dates = np.array(weekday_dates(JUN(1), 10), dtype="datetime64[D]")
        pre, post = one_series_changes(dates, np.ones(10), empty, 2)
        assert pre.shape == post.shape == (0,)

    @pytest.mark.parametrize("w", [2**62, 2**63, 2**64 - 1, 10**40])
    def test_huge_window_is_all_nan(self, w):
        dates = np.array(weekday_dates(JUN(1), 10), dtype="datetime64[D]")
        pre, post = one_series_changes(dates, np.ones(10), dates, w)
        assert pre.shape == post.shape == (10,)
        assert np.isnan(pre).all() and np.isnan(post).all()


# calendars of unequal lengths (some empty) with gaps of one to six days
calendars = st.lists(
    st.lists(st.tuples(st.integers(1, 6), st.floats(0.01, 1e4)), max_size=40),
    min_size=2, max_size=5,
)


class TestBlockChanges:
    """Series laid end to end: every query reads only its own series."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(calendars=calendars, w=st.integers(1, 6))
    def test_stacked_equals_scalar_reference(self, calendars, w):
        all_dates = [
            np.datetime64("2020-01-01") + np.cumsum([gap for gap, _ in quotes], dtype=np.int64)
            for quotes in calendars
        ]
        # every series is asked about every quote date of every series, and the days either side
        stacked = np.concatenate(all_dates + [np.array(["2020-01-01"], dtype="datetime64[D]")])
        news_dates = np.unique(np.concatenate((stacked - 1, stacked, stacked + 1)))
        series, first, length, anchor, queries = [], [], [], [], []
        for dates, quotes in zip(all_dates, calendars):
            values = np.array([value for _, value in quotes], dtype=float)
            first += [sum(map(len, series))] * len(news_dates)
            length += [len(values)] * len(news_dates)
            anchor += np.searchsorted(dates, news_dates).tolist()
            queries += [(dates, values, d) for d in news_dates.tolist()]
            series.append(values)
        pre, post = block_changes(
            np.concatenate(series), np.array(first), np.array(length), np.array(anchor), w)
        for changes, period in ((pre, PRE), (post, POST)):
            reference = [reference_change(*query, w, period) for query in queries]
            assert np.isnan(changes).tolist() == [r is None for r in reference]
            assert all(c == r for c, r in zip(changes.tolist(), reference) if r is not None)

    def test_batched_gather_is_bit_identical(self, monkeypatch, rng):
        values = 100.0 * np.exp(rng.normal(0.0, 0.02, 300).cumsum())
        anchor = np.arange(-2, 305)
        for w in (1, 4, 33):
            whole = block_changes(values, 0, len(values), anchor, w)
            monkeypatch.setattr(market, "_GATHER_BATCH", 5)
            batched = block_changes(values, 0, len(values), anchor, w)
            monkeypatch.undo()
            for a, b in zip(whole, batched):
                assert np.array_equal(a, b, equal_nan=True)


class TestExactLogs:
    """The kernel logs each block mean with ``math.log``'s bits, on the
    long-double path and with it forced off."""

    # glibc's log(x) is 0.5166 ulp from ln x, so rounding the long-double log
    # gives -0.06458891245083745: only the midpoint zone sends x to math.log
    HARD = 0.9374527593340825

    @pytest.fixture(params=["platform", "forced off"])
    def long_log(self, request, monkeypatch):
        if request.param == "forced off":
            monkeypatch.setattr(market, "_LONG_LOG", False)
        return market._LONG_LOG

    @pytest.fixture(scope="class")
    def means(self):
        rng = np.random.default_rng(35)
        n = 250_000
        return np.concatenate([
            rng.uniform(0.9, 1.1, n),  # means near 1
            np.exp(rng.uniform(-1.0, 10.0, n)),  # full-precision means of any price level
            np.round(rng.uniform(1.0, 500.0, n), 4),  # 4-decimal closes, the means at w = 1
            np.exp(rng.uniform(-700.0, 700.0, n)),  # most of float64's range
            [TestExactLogs.HARD],
        ])

    def test_logs_equal_math_log(self, long_log, means):
        expected = np.fromiter(map(math.log, means.tolist()), dtype=float, count=len(means))
        assert np.array_equal(market._logs(means).view(np.int64), expected.view(np.int64))
        assert math.log(self.HARD) == -0.06458891245083746
        if long_log:
            assert float(np.log(np.longdouble(self.HARD))) == -0.06458891245083745

    def test_changes_equal_math_log_formula(self, long_log, means):
        # at w = 1 each block is one value: post at p logs values p - 1 and p, pre p - 2 and p - 1
        values = means[::10]
        pre, post = block_changes(values, 0, len(values), np.arange(len(values) + 1), 1)
        logs = [math.log(v) for v in values.tolist()]
        expected = [(b - a) / 1 * 100.0 for a, b in zip(logs, logs[1:])]
        assert post[1:-1].tolist() == expected
        assert pre[2:-1].tolist() == expected[:-1]

    def test_math_log_only_near_a_midpoint(self, monkeypatch, means):
        if not market._LONG_LOG:
            pytest.skip("this platform logs every mean with math.log")
        # ln x is 0.498 ulp of the binade below 512 under 512: x's log rounds up onto
        # a power of two from beside a midpoint of the binade below
        onto = 2.284413586539692e222
        called = []
        monkeypatch.setattr(market, "math", SimpleNamespace(log=lambda m: called.append(m) or math.log(m)))
        market._logs(np.append(means, onto))
        assert {self.HARD, onto} <= set(called)
        assert len(called) < 0.05 * len(means)

    @pytest.mark.parametrize("confstr", [None, ValueError, lambda name: None, lambda name: "musl 1.2"])
    def test_long_double_path_only_under_glibc(self, monkeypatch, confstr):
        if confstr is None:  # no os.confstr at all, as on Windows
            monkeypatch.delattr(os, "confstr")
        else:
            monkeypatch.setattr(os, "confstr", mock.Mock(side_effect=confstr))
        assert market._glibc_x87() is False

    def test_edge_values(self, long_log):
        edges = np.array([1.0, 2.0, 0.5, np.e, 5e-324, 1.7976931348623157e308, np.inf, np.nan])
        expected = np.fromiter(map(math.log, edges.tolist()), dtype=float, count=len(edges))
        assert np.array_equal(market._logs(edges), expected, equal_nan=True)
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="math domain error"):
                market._logs(np.array([2.0, bad]))


class TestMarkRanks:
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(keys=st.lists(st.integers(-50, 50), max_size=40), offset=st.sampled_from([0, 7, -(2**40), 2**40]))
    def test_equals_unique(self, keys, offset):
        # keys anywhere, negative ones included: the mark spans only their own range
        keys = np.array(keys, dtype=np.int64) + offset
        distinct, rank = market.mark_ranks(keys)
        expected, inverse = np.unique(keys, return_inverse=True)
        assert distinct.tolist() == expected.tolist()
        assert rank.tolist() == inverse.tolist()


class TestMarketControl:
    def test_constant_index_is_zero(self):
        dates = weekday_dates(dt.date(2021, 1, 4), 10)
        index = make_series(dates, [500.0] * 10)
        assert market_control(index, dates[5], 1, PRE) == pytest.approx(0.0, abs=1e-12)

    def test_equals_window_change_on_same_values(self, rng):
        dates = weekday_dates(dt.date(2021, 1, 4), 30)
        values = np.exp(rng.normal(0.0, 0.01, 30).cumsum()) * 100.0
        series = make_series(dates, values)
        index = make_series(dates, values)
        for period in (PRE, POST):
            assert market_control(index, dates[12], 3, period) == pytest.approx(
                window_change(series, dates[12], 3, period), abs=1e-12
            )

    def test_doubling_index_post_is_log_two(self):
        dates = weekday_dates(dt.date(2021, 1, 4), 6)
        # doubles once between block B (position 2) and block C (position 3)
        index = make_series(dates, [100.0, 100.0, 100.0, 200.0, 200.0, 200.0])
        post = market_control(index, dates[3], 1, POST)
        assert post == pytest.approx(math.log(2.0) * 100.0, abs=1e-9)
        assert post == pytest.approx(69.31472, abs=5e-6)


def reference_load(path, header):
    """The loader's row rules with one {date: value} dict per id, then one
    np.datetime64 per element: ({id: (dates, values)}, rejections)."""
    by_id, rejections = {}, []
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
    arrays = {}
    for ident, points in by_id.items():
        dates = sorted(points)
        arrays[ident] = (
            np.array([np.datetime64(d, "D") for d in dates]),
            np.array([points[d] for d in dates], dtype=float),
        )
    return arrays, rejections


def messy_quote_file(path, header, seed):
    """A shuffled quote file holding every rejection reason, padded fields,
    timestamp suffixes, dates from year 1 to 9999, and duplicates, some of
    them of rejected rows."""
    rng = np.random.default_rng(seed)
    days = ["0001-01-01", "1899-12-31", "1969-12-31", "1970-01-01", "2021-06-10",
            "2021-06-11", "2024-02-29", "2100-03-01", "2150-07-04", "9999-12-31"]
    texts = days + [f" {d} " for d in days] + [f"{d}T14:31:00" for d in days[3:6]]
    texts += ["2021-06-10 09:30", "1969-12-31T23:59:59Z"]
    bad_dates = ["not-a-date", "2021-13-01", "2023-02-29", "", "21-06-10"]
    bad_values = ["abc", "", "1.5.2", "0x10"]
    nonpositive = ["0", "-1.5", "nan", "inf", "-inf", "0.0"]
    rows = []
    for _ in range(600):
        ident = str(rng.choice(["A", "B", " C ", "D", "EE"]))
        date = str(rng.choice(texts))
        value = f"{rng.lognormal(3.0, 2.0):.6g}"
        kind = rng.random()
        if kind < 0.03:
            rows.append(f"{ident},{date}")
        elif kind < 0.05:
            rows.append(f"{ident},{date},{value},extra")
        elif kind < 0.08:
            rows.append(f"{rng.choice(['', '  '])},{date},{value}")
        elif kind < 0.11:
            rows.append(f"{ident},{rng.choice(bad_dates)},{value}")
        elif kind < 0.14:
            rows.append(f"{ident},{date},{rng.choice(bad_values)}")
        elif kind < 0.18:
            rows.append(f"{ident},{date},{rng.choice(nonpositive)}")
        else:
            rows.append(f"{ident},{date}, {value} ")
    rows = list(rng.permutation(rows))
    # the same (id, date) first rejected, then accepted, then a duplicate
    rows += ["ZZ,1950-01-02,-1", "ZZ,1950-01-02,2.5", "ZZ,1950-01-02T00:00,3.5"]
    path.write_text(",".join(header) + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


class TestLoaders:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "header, load", [(PRICE_HEADER, load_prices), (INDEX_HEADER, load_indices)]
    )
    def test_equals_reference_loader(self, header, load, seed, tmp_path):
        path = messy_quote_file(tmp_path / "quotes.csv", header, seed)
        expected, expected_rejections = reference_load(path, header)
        store, rejections = load(path)
        assert rejections == expected_rejections
        kinds = ("wrong column count", f"empty {header[0]}", "malformed date",
                 f"malformed {header[2]}", f"nonpositive {header[2]}", "duplicate")
        assert all(any(r.reason.startswith(k) for r in rejections) for k in kinds)
        assert rejections[-2:] == [RowRejection(601, f"nonpositive {header[2]} '-1'"),
                                   RowRejection(603, "duplicate (ZZ, 1950-01-02)")]
        assert list(store) == list(expected)
        for ident, (dates, values) in expected.items():
            series = store[ident]
            assert series.dates.dtype == np.dtype("datetime64[D]")
            assert series.dates.tobytes() == dates.tobytes()
            assert series.values.tobytes() == values.tobytes()
        assert store["ZZ"].dates.tolist() == [dt.date(1950, 1, 2)]

    def test_load_sorts_and_rejects_duplicates(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text(
            "firm_id,date,close\n"
            "A,2021-06-11,101.5\n"
            "A,2021-06-10,100.0\n"
            "A,2021-06-10,99.0\n"
            "B,2021-06-10,7.25\n",
            encoding="utf-8",
        )
        store, rejections = load_prices(path)
        assert [r.row for r in rejections] == [3]
        assert "duplicate" in rejections[0].reason
        assert list(store["A"].values) == [100.0, 101.5]
        assert len(store["B"]) == 1

    def test_malformed_rows_collected(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text(
            "firm_id,date,close\n"
            "A,2021-06-10,100.0\n"
            "A,not-a-date,100.0\n"
            "A,2021-06-11,-3.0\n"
            ",2021-06-12,1.0\n"
            "A,2021-06-14\n",
            encoding="utf-8",
        )
        store, rejections = load_prices(path)
        assert len(rejections) == 4
        assert len(store["A"]) == 1

    def test_index_loader_schema(self, tmp_path):
        path = tmp_path / "indices.csv"
        path.write_text("market_id,date,value\nM0,2021-06-10,1000.0\n", encoding="utf-8")
        store, rejections = load_indices(path)
        assert rejections == []
        assert list(store) == ["M0"]

    def test_wrong_header_raises(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("id,date,close\nA,2021-06-10,1.0\n", encoding="utf-8")
        with pytest.raises(LoadError, match="expected header"):
            load_prices(path)

    def test_datetime_truncates_to_date(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("firm_id,date,close\nA,2021-06-10T14:31:00,5.0\n", encoding="utf-8")
        store, rejections = load_prices(path)
        assert rejections == []
        assert store["A"].dates[0] == np.datetime64("2021-06-10")


@contextmanager
def spying_on_check():
    """The row numbers that reach ``_Quotes.check``, in the order they do."""
    checked, check = [], market._Quotes.check

    def spy(self, rows):
        rows = list(rows)
        checked.extend(i for i, _ in rows)
        check(self, rows)

    with mock.patch.object(market._Quotes, "check", spy):
        yield checked


@contextmanager
def spying_on_day():
    """The date texts that ``_Quotes.day`` decides, in the order it does."""
    calls, day = [], market._Quotes.day

    def spy(self, text):
        calls.append(text)
        return day(self, text)

    with mock.patch.object(market._Quotes, "day", spy):
        yield calls


def same_as_reference(path, header, load):
    """``load(path)`` equals ``reference_load``: the same LoadError text, or
    the same rejections, key order, dtypes and array bytes."""
    try:
        expected, expected_rejections = reference_load(path, header)
    except LoadError as exc:
        with pytest.raises(LoadError) as raised:
            load(path)
        assert str(raised.value) == str(exc)
        return
    store, rejections = load(path)
    assert rejections == expected_rejections
    assert list(store) == list(expected)
    for ident, (dates, values) in expected.items():
        assert store[ident].dates.dtype == np.dtype("datetime64[D]")
        assert store[ident].values.dtype == np.dtype("float64")
        assert store[ident].dates.tobytes() == dates.tobytes()
        assert store[ident].values.tobytes() == values.tobytes()


# a quote file grammar: mostly rows the bulk parser reads, some it hands to
# the row rules, and a few rare ones: closes only the row rules read (1_5,
# which float() takes, or an empty value), or rows that send the whole file to
# the csv reader (a quote, a NUL, a CR outside a CRLF)
quote_ids = st.sampled_from(["A", "B", "EE", "F0001", " A ", "B\t", "", "  ", "Zürich", "株", "\xa0A"])
quote_dates = st.sampled_from([
    "2021-06-10", "2021-06-11", "2021-06-14", "1969-12-31", "0001-01-01", "9999-12-31",
    " 2021-06-10", "2021-06-10T14:31:00", "2021-06-11 09:30", "2021-06-10T00:00Z",
    "2021-06-10T09:30+02:00", "2021-13-01", "2023-02-29", "21-06-10", "20210610", "", "x",
])
quote_values = st.sampled_from([
    "25.6638", "0.001", "7", "1e3", "2.5E-2", "1e400", "1e-400", ".5", "5.", "+3", "-0", "0",
    "0.0", "-1.5", "1234567890123456", "12345678901234567890", "1234567890.1234567", "inf",
    "-inf", "Infinity", "nan", "NaN", " 7.25 ",
])


def quote_line(fields, shape):
    ident, date, value = fields
    return {"plain": f"{ident},{date},{value}", "padded": f" {ident} , {date} ,{value} ",
            "blank": "", "short": f"{ident},{date}", "long": f"{ident},{date},{value},{value}"}[shape]


quote_row = st.builds(quote_line, st.tuples(quote_ids, quote_dates, quote_values),
                      st.sampled_from(["plain"] * 6 + ["padded", "blank", "short", "long"]))
rare_row = st.sampled_from([
    "A,2021-06-15,1_5", "B,2021-06-15,", "EE,2021-06-15,abc", "A,2021-06-15,0x10",
    '"A,B",2021-06-10,5', '"A",2021-06-11,6', "N\0,2021-06-10,1", "A,2021-06-16,1\rB,2021-06-16,2",
])


@st.composite
def quote_files(draw):
    rows = draw(st.lists(quote_row, min_size=20, max_size=60))
    for row in draw(st.lists(rare_row, max_size=2)):
        rows.insert(draw(st.integers(0, len(rows))), row)
    # duplicates of any row, accepted or rejected, at any position
    for k in draw(st.lists(st.integers(0, len(rows) - 1), max_size=8)):
        rows.insert(draw(st.integers(0, len(rows))), rows[k])
    newline = draw(st.sampled_from(["\n", "\n", "\n", "\n", "\r\n", "\r"]))
    bom = draw(st.sampled_from(["", "", "\ufeff"]))
    end = draw(st.sampled_from([newline, ""]))
    return bom + newline.join(["{header}"] + rows) + end


def ymd_keys(texts):
    """``market._ymd`` of byte texts laid end to end, each followed by a comma."""
    width = np.array([len(t) for t in texts])
    buf = np.frombuffer(b"".join(t + b"," for t in texts), np.uint8)
    return market._ymd(buf, np.cumsum(width + 1) - width - 1, width)


@st.composite
def fast_closes(draw):
    """1 to 15 digits, with at most one point placed anywhere among them."""
    digits = draw(st.text("0123456789", min_size=1, max_size=15))
    point = draw(st.none() | st.integers(0, len(digits)))
    return digits if point is None else f"{digits[:point]}.{digits[point:]}"


class TestBulkLoader:
    """The block parser against the row-by-row reference loader."""

    @pytest.mark.parametrize("block", [market._BLOCK, 200], ids=["default-block", "200-byte-block"])
    # no shrink phase: a failing example is reported as drawn, in seconds
    @settings(derandomize=True, database=None, deadline=None, max_examples=60,
              phases=(Phase.explicit, Phase.reuse, Phase.generate),
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=quote_files(), schema=st.sampled_from([(PRICE_HEADER, load_prices),
                                                       (INDEX_HEADER, load_indices)]))
    def test_equals_reference_loader(self, block, text, schema, tmp_path):
        header, load = schema
        path = tmp_path / "quotes.csv"
        path.write_bytes(text.replace("{header}", ",".join(header)).encode())
        with mock.patch.object(market, "_BLOCK", block):  # rows straddle blocks
            same_as_reference(path, header, load)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_plain_rows_skip_the_row_rules(self, tmp_path, newline):
        path = tmp_path / "prices.csv"
        # Zürich is keyed first: its row comes first, though the row rules see it last
        text = ("firm_id,date,close\nZürich,2021-06-09,9\n" + "A,2021-06-10,1.5\n" * 3
                + " A,2021-06-11,2\nA,2021-06-14,-1\nA,2021-06-15\n,2021-06-16,3\nB,2021-06-17,4\n")
        path.write_bytes(text.replace("\n", newline).encode())
        with spying_on_check() as checked:
            same_as_reference(path, PRICE_HEADER, load_prices)
        # the non-ASCII id, the padded row, the bad value, the column count and the empty id
        assert checked == [1, 5, 6, 7, 8]
        assert list(load_prices(path)[0]) == ["Zürich", "A", "B"]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("block", [market._BLOCK, 200], ids=["default-block", "200-byte-block"])
    def test_ten_byte_dates_equal_reference(self, tmp_path, block, newline):
        # every date is 10 bytes wide: DDDD-DD-DD ones take the yyyymmdd keys,
        # and the wrong shapes and padded rows the row rules (the first row's
        # date reaches the keys only in a later block)
        dates = ["2024-02-29", "0001-01-01", "9999-12-31", "2021-06-10", "2023-02-29", "2021-13-01",
                 "2021-00-10", "2021-06-31", "0000-01-01", "2021/06/10", "2021-06-1x"]
        rows = [f"{ident},{date},{k}.5" for k, (ident, date) in enumerate(itertools.product("ABC", dates))]
        rows = [" E , 2020-01-02 ,1"] + rows + ["A,2024-02-29,9", " B , 2021-06-10 ,3", "D,2021-06-10,4",
                                                "D,9999-12-31,5", "F,2020-01-02,2"]
        path = tmp_path / "prices.csv"
        path.write_bytes(newline.join(["firm_id,date,close"] + rows + [""]).encode())
        with mock.patch.object(market, "_BLOCK", block), spying_on_day() as calls:
            same_as_reference(path, PRICE_HEADER, load_prices)
        # each distinct text reaches day at most once: the texts that are not
        # DDDD-DD-DD, and, through the row rules, the dates of the padded rows
        # and of the rows whose yyyymmdd key names no day
        no_day = ["2023-02-29", "2021-13-01", "2021-00-10", "2021-06-31", "0000-01-01"]
        assert sorted(calls) == sorted(["2021/06/10", "2021-06-1x", "2020-01-02", "2021-06-10", *no_day])

    def test_yyyymmdd_keys_only_for_ten_byte_dates(self):
        texts = [b"2024-02-29", b"0000-00-00", b"9999-99-99", b"2021/06/10", b"2021-06-1x",
                 b"2021-06-10T14:31:00", b"21-06-10", b""]
        assert ymd_keys(texts).tolist() == [20240229, 0, 99999999] + [-1] * 5
        assert ymd_keys([b"21-06-10"]).tolist() == [-1]  # a buffer shorter than a date

    def test_yyyymmdd_day_equals_parse_date(self):
        texts = [f"{y}-{m:02d}-{d:02d}" for y in ("0000", "0001", "1900", "2000", "2023", "2024", "9999")
                 for m in range(14) for d in range(33)]
        keys = ymd_keys([t.encode() for t in texts])
        assert keys.tolist() == [int(t.replace("-", "")) for t in texts]
        for text, key in zip(texts, keys.tolist()):
            try:
                expected = parse_date(text).toordinal() - market._EPOCH_ORDINAL
            except ValueError:
                expected = market._NO_DAY
            assert market._ymd_day(key) == expected, text

    def test_dates_of_two_widths_in_one_file(self, tmp_path):
        # the first blocks hold only 10-byte dates, later ones mix in a timestamp
        first = [f"F{k},2021-06-{10 + k % 5},{k + 1}" for k in range(30)]
        later = [f"G{k},{'2021-06-10T14:31:00' if k % 2 else '2021-06-11'},{k + 1}" for k in range(30)]
        path = tmp_path / "prices.csv"
        path.write_text("\n".join(["firm_id,date,close"] + first + later + [""]))
        with mock.patch.object(market, "_BLOCK", 200), spying_on_day() as calls:
            same_as_reference(path, PRICE_HEADER, load_prices)
        # a 10-byte date among wider ones still takes its yyyymmdd key
        assert calls == ["2021-06-10T14:31:00"]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_byte_screen_edges(self, tmp_path, newline):
        path = tmp_path / "prices.csv"
        # the plain bytes end at ! (0x21) and ~ (0x7e); space, tab, 0x0b, 0x0c,
        # DEL (0x7f) and non-ASCII send their row to the row rules
        rows = ["A!,2021-06-10,1", "~B,2021-06-10,2", "C ,2021-06-10,3", "D,2021-06-10\t,4",
                "E\x0b,2021-06-10,5", "F,2021-06-10,6\x0c", "G\x7f,2021-06-10,7", "H,2021-06-10,8\x7f",
                "Hé,2021-06-10,9", "~,2021-06-11,10", "I 2021-06-12,11",
                "J,2021-06-13 12"]
        path.write_bytes(newline.join(["firm_id,date,close"] + rows + [""]).encode())
        with spying_on_check() as checked:
            same_as_reference(path, PRICE_HEADER, load_prices)
        # the last two rows have one comma among three marks, so they are never plain
        assert checked == [3, 4, 5, 6, 7, 8, 9, 11, 12]

    def test_close_fast_path_takes_only_plain_decimals(self, tmp_path):
        path = tmp_path / "prices.csv"
        slow = ["1e3", "+3", "1_5", "1.2.3", ".", "inf", "nan", "1234567890123456"]
        fast = ["7", "5.", ".5", "007.50", "123456789012345", "0.0000000000001"]
        days = weekday_dates(dt.date(2021, 6, 1), len(slow) + len(fast))
        rows = [f"A,{day.isoformat()},{close}" for day, close in zip(days, fast + slow)]
        path.write_text("\n".join(["firm_id,date,close"] + rows + [""]), encoding="utf-8")
        with spying_on_check() as checked:
            same_as_reference(path, PRICE_HEADER, load_prices)
        assert checked == list(range(len(fast) + 1, len(rows) + 1))

    # no shrink phase: a failing example is reported as drawn, in seconds
    @settings(derandomize=True, database=None, deadline=None, max_examples=60,
              phases=(Phase.explicit, Phase.reuse, Phase.generate),
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(closes=st.lists(fast_closes(), min_size=1, max_size=40))
    def test_fast_closes_equal_float(self, tmp_path, closes):
        path = tmp_path / "prices.csv"
        days = weekday_dates(dt.date(2021, 6, 1), len(closes))
        rows = [f"A,{day.isoformat()},{close}" for day, close in zip(days, closes)]
        path.write_text("\n".join(["firm_id,date,close"] + rows + [""]), encoding="utf-8")
        with spying_on_check() as checked:
            store, rejections = load_prices(path)
        # only a zero close reaches the row rules, which reject it
        zero = [i for i, close in enumerate(closes, start=1) if float(close) == 0.0]
        assert checked == zero and [r.row for r in rejections] == zero
        values = store["A"].values if len(zero) < len(closes) else np.array([])
        expected = np.array([float(close) for close in closes if float(close) != 0.0])
        assert values.tobytes() == expected.tobytes()

    def test_one_long_id_loads_in_bounded_memory(self, tmp_path):
        path = tmp_path / "prices.csv"
        days = [d.isoformat() for d in weekday_dates(dt.date(2000, 1, 3), 5700)]
        rows = [f"F{k % 7:04d},{day},{k % 997 + 1}.25" for k, day in enumerate(days)]
        rows.insert(2850, "X" * 120_000 + ",2021-06-10,5.5")
        path.write_text("\n".join(["firm_id,date,close"] + rows + [""]), encoding="utf-8")
        assert 250_000 < path.stat().st_size < 270_000
        # the peak RSS of a fresh process over its own level once the loader is imported
        script = ("import resource, sys\n"
                  "from newsprop import market\n"
                  "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                  "market.load_prices(sys.argv[1])\n"
                  "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base)\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 64 * 1024  # KiB on Linux
        same_as_reference(path, PRICE_HEADER, load_prices)

    def test_bare_cr_reads_the_whole_file_by_rows(self, tmp_path):
        path = tmp_path / "prices.csv"
        # the CR is past the first blocks, which the bulk parser has read by then
        rows = [f"A,2021-{m:02d}-{d:02d},{d}" for m in range(1, 4) for d in range(1, 29)]
        rows.insert(70, "B,2021-06-10,1\rB,2021-06-11,2")
        path.write_text("\n".join(["firm_id,date,close"] + rows + [""]), newline="")
        with mock.patch.object(market, "_BLOCK", 200), \
                mock.patch.object(market, "read_rows", wraps=read_rows) as row_path:
            same_as_reference(path, PRICE_HEADER, load_prices)
        row_path.assert_called_once_with(path, PRICE_HEADER)

    @pytest.mark.parametrize("text", [
        "firm_id,date,close" + " " * 300 + "\nA,2021-06-10,1.5\n",
        "firm_id,date,close\nA,2021-06-10,1.5\n" + "B" * 300 + ",2021-06-10,2\nA,2021-06-11,3\n",
        "firm_id,date,close\nA,2021-06-10,1.5\rB,2021-06-10,2\n",
        "firm_id,date,close\nA,2021-06-10,1.5\n\"B,C\",2021-06-10,2\n",
        "firm_id,date,close\nA,2021-06-10,1.5\nB\0,2021-06-10,2\n",
    ], ids=["long-header", "long-row", "cr", "quote", "nul"])
    def test_whole_file_fallback_equals_reference(self, tmp_path, text):
        path = tmp_path / "prices.csv"
        path.write_text(text)
        with mock.patch.object(market, "_BLOCK", 200):
            same_as_reference(path, PRICE_HEADER, load_prices)

    @pytest.mark.parametrize("tail, message", ids=["utf-8", "field-limit"], argvalues=[
        (b"A,2021-06-11,2\xff\n", "not UTF-8 text (invalid start byte)"),
        (b"A,2021-06-11," + b"9" * (csv.field_size_limit() + 1) + b"\n",
         f"field larger than field limit ({csv.field_size_limit()}) at row 20001"),
    ])
    def test_late_fault_keeps_the_row_path_error(self, tmp_path, tail, message):
        path = tmp_path / "prices.csv"
        # past the first block, which parses before the fault is seen
        path.write_bytes(b"firm_id,date,close\n" + b"A,2021-06-10,1.5\n" * 20000 + tail)
        with pytest.raises(LoadError) as raised:
            load_prices(path)
        assert str(raised.value) == f"{path}: {message}"

    @pytest.mark.parametrize("text", ["", "id,date,close\nA,2021-06-10,1.5\n"])
    def test_bad_header_keeps_the_row_path_error(self, tmp_path, text):
        path = tmp_path / "prices.csv"
        path.write_text(text)
        with pytest.raises(LoadError) as raised:
            load_prices(path)
        assert str(raised.value) == f"{path}: expected header firm_id,date,close"

    @pytest.mark.parametrize("text", ["firm_id,date,close", "firm_id,date,close\n"])
    def test_header_only_file_is_empty(self, tmp_path, text):
        path = tmp_path / "prices.csv"
        path.write_text(text)
        assert load_prices(path) == ({}, [])

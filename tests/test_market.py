from __future__ import annotations

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_series, reference_change, weekday_dates
from newsprop.csvio import parse_date, read_rows
from newsprop import market
from newsprop.errors import LoadError, RowRejection
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
    window_changes,
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


class TestWindowChanges:
    """The vectorised kernel against the scalar formula, digit for digit."""

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
            pre, post = window_changes(dates, values, news, w)
            for changes, period in ((pre, PRE), (post, POST)):
                reference = [reference_change(dates, values, d, w, period) for d in news.tolist()]
                assert np.isnan(changes).tolist() == [r is None for r in reference]
                assert all(c == r for c, r in zip(changes.tolist(), reference) if r is not None)
                assert any(r is not None for r in reference)

    def test_empty_series_and_no_dates(self):
        empty = np.array([], dtype="datetime64[D]")
        pre, post = window_changes(empty, np.array([]), np.array([JUN(1)], dtype="datetime64[D]"), 1)
        assert np.isnan(pre).all() and np.isnan(post).all()
        dates = np.array(weekday_dates(JUN(1), 10), dtype="datetime64[D]")
        pre, post = window_changes(dates, np.ones(10), empty, 2)
        assert pre.shape == post.shape == (0,)


    @pytest.mark.parametrize("w", [2**62, 2**63, 2**64 - 1, 10**40])
    def test_huge_window_is_all_nan(self, w):
        dates = np.array(weekday_dates(JUN(1), 10), dtype="datetime64[D]")
        pre, post = window_changes(dates, np.ones(10), dates, w)
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

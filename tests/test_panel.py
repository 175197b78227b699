from __future__ import annotations

import dataclasses
import datetime as dt

import numpy as np
import pytest

from conftest import (
    make_series,
    make_stores,
    reference_change,
    simple_event,
    simple_firm,
    weekday_dates,
)
from newsprop import market
from newsprop.graph import SupplyChainNetwork, SupplyChainSnapshot
from newsprop.market import PRE, POST, Series
from newsprop.panel import MODES, Panel, Stores, build_panel, panel_summary, write_panel
from newsprop.sim import SimConfig, simulate

START = dt.date(2016, 1, 4)


def flat_market(firm_ids, n_days=40, markets=("M0",), close=100.0):
    dates = weekday_dates(START, n_days)
    prices = {f: make_series(dates, [close] * n_days) for f in firm_ids}
    indices = {m: make_series(dates, [1000.0] * n_days) for m in markets}
    return dates, prices, indices


class TestOwnMode:
    def test_no_events_empty_panel(self):
        dates, prices, indices = flat_market(["A"])
        stores = make_stores(firms=[simple_firm("A")], prices=prices, indices=indices)
        panel = build_panel(stores, "own", "positive", 1)
        assert len(panel) == 0
        assert panel_summary(panel).n_obs == 0

    def test_one_complete_pair_gives_two_rows(self):
        dates, prices, indices = flat_market(["A"])
        stores = make_stores(
            firms=[simple_firm("A")],
            prices=prices,
            indices=indices,
            events=[simple_event("n1", dates[10], {"A"})],
        )
        panel = build_panel(stores, "own", "positive", 1)
        assert len(panel) == 2
        assert panel.y.shape == panel.market_x.shape == (1, 2)  # one pair: pre, post
        assert panel.news_value[0] == pytest.approx(0.6)
        summary = panel_summary(panel)
        assert (summary.n_obs, summary.n_events, summary.n_firms) == (2, 1, 1)

    def test_incomplete_price_window_drops_both(self):
        dates, prices, indices = flat_market(["A"])
        stores = make_stores(
            firms=[simple_firm("A")],
            prices=prices,
            indices=indices,
            events=[simple_event("n1", dates[0], {"A"}), simple_event("n2", dates[10], {"A"})],
        )
        panel = build_panel(stores, "own", "positive", 1)
        assert len(panel) == 2  # only n2 survives
        assert set(panel.news_id) == {"n2"}
        assert panel_summary(panel).drop_counts == {"price-window": 1}

    def test_unknown_and_incomplete_registry_rows_audited(self):
        dates, prices, indices = flat_market(["A", "B", "C"])
        firms = [
            simple_firm("B", market=""),
            simple_firm("C", sector=""),
        ]
        events = [simple_event("n1", dates[10], {"A", "B", "C"})]
        stores = make_stores(firms=firms, prices=prices, indices=indices, events=events)
        panel = build_panel(stores, "own", "positive", 1)
        assert len(panel) == 0
        assert panel_summary(panel).drop_counts == {
            "missing-market": 1,
            "missing-sector": 1,
            "unknown-firm": 1,
        }

    def test_missing_index_drops_pair(self):
        dates, prices, _ = flat_market(["A"])
        stores = make_stores(
            firms=[simple_firm("A")],
            prices=prices,
            indices={},
            events=[simple_event("n1", dates[10], {"A"})],
        )
        panel = build_panel(stores, "own", "positive", 1)
        assert panel_summary(panel).drop_counts == {"index-window": 1}

    def test_polarity_switch_changes_only_news_value(self):
        dates, prices, indices = flat_market(["A", "B"])
        events = [
            simple_event("n1", dates[10], {"A"}, p_pos=0.7, p_neu=0.2, p_neg=0.1),
            simple_event("n2", dates[15], {"B"}, p_pos=0.1, p_neu=0.3, p_neg=0.6),
        ]
        stores = make_stores(
            firms=[simple_firm("A"), simple_firm("B")],
            prices=prices,
            indices=indices,
            events=events,
        )
        pos = build_panel(stores, "own", "positive", 2)
        neg = build_panel(stores, "own", "negative", 2)
        assert len(pos) == len(neg)
        for column in ("firm_id", "news_id", "y", "market_x"):
            assert np.array_equal(getattr(pos, column), getattr(neg, column))
        assert np.all(pos.news_value != neg.news_value)
        by_id = {e.news_id: e for e in events}
        assert pos.news_value.tolist() == [by_id[n].p_pos for n in pos.news_id.tolist()]
        assert neg.news_value.tolist() == [by_id[n].p_neg for n in neg.news_id.tolist()]
        # switching polarity on a built panel equals building for that polarity
        switched = dataclasses.replace(pos, polarity="negative")
        for f in dataclasses.fields(Panel):
            a, b = getattr(switched, f.name), getattr(neg, f.name)
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
        assert np.array_equal(switched.news_value, neg.news_value)

    def test_weekend_event_uses_shifted_anchor(self):
        dates, prices, indices = flat_market(["A"])
        saturday = dt.date(2016, 1, 16)
        assert saturday.weekday() == 5
        stores = make_stores(
            firms=[simple_firm("A")],
            prices=prices,
            indices=indices,
            events=[simple_event("n1", saturday, {"A"})],
        )
        panel = build_panel(stores, "own", "positive", 1)
        assert len(panel) == 2


class TestIndirectModes:
    def build(self, mode, edges, events, extra_firms=(), year=2016):
        firm_ids = sorted({f for e in edges for f in e} | {"J"} | set(extra_firms))
        dates, prices, indices = flat_market(firm_ids)
        stores = make_stores(
            firms=[simple_firm(f) for f in firm_ids],
            prices=prices,
            indices=indices,
            events=events,
            edges_by_year={year: list(edges)},
        )
        return build_panel(stores, mode, "positive", 1), dates

    def test_supplier_fan_out(self):
        dates = weekday_dates(START, 40)
        panel, _ = self.build(
            "supplier",
            [("A", "J"), ("B", "J")],
            [simple_event("n1", dates[10], {"J"})],
        )
        assert len(panel) == 4
        assert set(panel.firm_id) == {"A", "B"}

    def test_client_mode_symmetric(self):
        dates = weekday_dates(START, 40)
        panel, _ = self.build(
            "client",
            [("J", "A"), ("J", "B"), ("C", "J")],
            [simple_event("n1", dates[10], {"J"})],
        )
        assert set(panel.firm_id) == {"A", "B"}

    def test_same_article_mentions_excluded(self):
        dates = weekday_dates(START, 40)
        panel, _ = self.build(
            "supplier",
            [("A", "J"), ("B", "J")],
            [simple_event("n1", dates[10], {"J", "A"})],
        )
        assert set(panel.firm_id) == {"B"}

    def test_exposure_via_two_mentions_contributes_once(self):
        dates = weekday_dates(START, 40)
        panel, _ = self.build(
            "supplier",
            [("A", "J"), ("A", "K")],
            [simple_event("n1", dates[10], {"J", "K"})],
            extra_firms=("K",),
        )
        assert panel.firm_id.tolist() == ["A"]
        assert len(panel) == 2

    def test_snapshot_year_fallback(self):
        dates = weekday_dates(START, 40)
        panel, _ = self.build(
            "supplier",
            [("A", "J")],
            [simple_event("n1", dates[10], {"J"})],
            year=2013,  # most recent snapshot before the 2016 event
        )
        assert len(panel) == 2

    def test_no_snapshot_drops_event(self):
        dates = weekday_dates(START, 40)
        panel, _ = self.build(
            "supplier",
            [("A", "J")],
            [simple_event("n1", dates[10], {"J"})],
            year=2019,  # only snapshot is after the event
        )
        assert len(panel) == 0
        assert panel_summary(panel).drop_counts == {"no-snapshot": 1}

    def test_unlinked_firm_contributes_no_rows(self):
        dates = weekday_dates(START, 40)
        panel, _ = self.build(
            "supplier",
            [("A", "J")],
            [simple_event("n1", dates[10], {"J"})],
            extra_firms=("LONER",),
        )
        assert "LONER" not in set(panel.firm_id)


class TestPanelShape:
    def test_balance_invariant(self, rng):
        firm_ids = [f"F{i}" for i in range(8)]
        dates, prices, indices = flat_market(firm_ids, n_days=60)
        # jitter prices so y values differ
        prices = {
            f: make_series(dates, 100.0 * np.exp(rng.normal(0, 0.01, 60).cumsum()))
            for f in firm_ids
        }
        events = [
            simple_event(f"n{i}", dates[int(rng.integers(0, 60))], {firm_ids[int(rng.integers(0, 8))]})
            for i in range(40)
        ]
        stores = make_stores(
            firms=[simple_firm(f) for f in firm_ids],
            prices=prices,
            indices=indices,
            events=events,
        )
        panel = build_panel(stores, "own", "positive", 3)
        pairs = set(zip(panel.news_id.tolist(), panel.firm_id.tolist()))
        assert len(pairs) == len(panel.news_id)
        assert np.isfinite(panel.y).all() and np.isfinite(panel.market_x).all()
        assert len(panel) == 2 * len(pairs)

    def test_output_sorted_and_deterministic(self, rng):
        firm_ids = [f"F{i}" for i in range(5)]
        dates, prices, indices = flat_market(firm_ids, n_days=50)
        events = [
            simple_event(f"n{i:02d}", dates[10 + i % 20], set(rng.choice(firm_ids, 2, replace=False)))
            for i in range(20)
        ]
        stores = make_stores(
            firms=[simple_firm(f) for f in firm_ids],
            prices=prices,
            indices=indices,
            events=events,
        )
        a = build_panel(stores, "own", "positive", 2)
        b = build_panel(stores, "own", "positive", 2)
        for column in ("news_id", "firm_id", "sector", "market", "p_pos", "p_neg", "y", "market_x"):
            assert np.array_equal(getattr(a, column), getattr(b, column))
        assert a.drops == b.drops
        keys = list(zip(a.news_id.tolist(), a.firm_id.tolist()))
        assert keys == sorted(set(keys))

    def test_export_schema(self, tmp_path):
        dates, prices, indices = flat_market(["A"])
        stores = make_stores(
            firms=[simple_firm("A")],
            prices=prices,
            indices=indices,
            events=[simple_event("n1", dates[10], {"A"})],
        )
        panel = build_panel(stores, "own", "positive", 1)
        out = tmp_path / "panel.csv"
        write_panel(panel, out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "firm_id,news_id,w,period,y,news_value,market_x,sector,market"
        assert len(lines) == 3

    def test_rejects_bad_arguments(self):
        stores = make_stores()
        with pytest.raises(ValueError):
            build_panel(stores, "sideways", "positive", 1)
        with pytest.raises(ValueError):
            build_panel(stores, "own", "bullish", 1)
        with pytest.raises(ValueError):
            build_panel(stores, "own", "positive", 0)


def perturbed_sim_stores() -> Stores:
    """A simulated bundle with edges, edited so that every drop reason occurs."""
    config = SimConfig(
        n_firms=30, n_sectors=4, n_markets=2, n_days=500, edge_prob=0.08, news_rate=3.0,
        start_date=dt.date(2016, 6, 1), seed=11,
    )
    stores = simulate(config).stores()
    records = dict(stores.firms)
    del records["F00000"]  # unknown-firm
    records["F00001"] = dataclasses.replace(records["F00001"], sector_code="")
    records["F00002"] = dataclasses.replace(records["F00002"], market_id="")
    prices = dict(stores.prices)
    del prices["F00003"]  # price-window without a series
    m1 = stores.indices["M01"]  # starts 60 quotes late: index-window
    indices = {**stores.indices, "M01": Series(m1.dates[60:], m1.values[60:])}
    # the only snapshot is a year after the first events: no-snapshot
    graph = SupplyChainNetwork(
        {2017: SupplyChainSnapshot.from_edges(2017, stores.graph.snapshot(2016).edges)})
    return Stores(firms=records, prices=prices, indices=indices,
                  news=stores.news, graph=graph)


def reference_pairs(stores: Stores, mode: str, w: int):
    """Per-pair brute force: (news_id, firm_id, drop reason or None, y, market_x)."""
    out = []
    for news_id in sorted(stores.news.events):
        event = stores.news.events[news_id]
        if mode == "own":
            exposed = set(event.mentions)
        else:
            year = stores.graph.snapshot_year_at_or_before(event.date.year)
            if year is None:
                out += [(news_id, f, "no-snapshot", None, None) for f in sorted(event.mentions)]
                continue
            neighbours = stores.graph.suppliers_of if mode == "supplier" else stores.graph.clients_of
            exposed = set().union(*(neighbours(f, year) for f in event.mentions)) - event.mentions
        for firm_id in sorted(exposed):
            record = stores.firms.get(firm_id)
            series = stores.prices.get(firm_id)
            index = stores.indices.get(record.market_id) if record else None
            y = [reference_change(series.dates, series.values, event.date, w, period)
                 for period in (PRE, POST)] if series else [None]
            x = [reference_change(index.dates, index.values, event.date, w, period)
                 for period in (PRE, POST)] if index else [None]
            if record is None:
                reason = "unknown-firm"
            elif not record.sector_code:
                reason = "missing-sector"
            elif not record.market_id:
                reason = "missing-market"
            elif None in y:
                reason = "price-window"
            elif None in x:
                reason = "index-window"
            else:
                reason = None
            out.append((news_id, firm_id, reason, y, x))
    return out


class TestReference:
    def test_columns_and_drops_match_per_pair_reference(self):
        stores = perturbed_sim_stores()
        reasons = set()
        for mode in MODES:
            for w in (1, 3, 7):
                panel = build_panel(stores, mode, "positive", w)
                pairs = reference_pairs(stores, mode, w)
                kept = [p for p in pairs if p[2] is None]
                assert list(zip(panel.news_id.tolist(), panel.firm_id.tolist())) == [
                    (p[0], p[1]) for p in kept
                ]
                assert panel.y.tolist() == [p[3] for p in kept]
                assert panel.market_x.tolist() == [p[4] for p in kept]
                records = [stores.firms.get(p[1]) for p in kept]
                events = [stores.news.events[p[0]] for p in kept]
                assert panel.sector.tolist() == [r.sector_code for r in records]
                assert panel.market.tolist() == [r.market_id for r in records]
                assert panel.p_pos.tolist() == [e.p_pos for e in events]
                assert panel.p_neg.tolist() == [e.p_neg for e in events]
                assert [(d.news_id, d.firm_id, d.reason) for d in panel.drops] == [
                    p[:3] for p in pairs if p[2] is not None
                ]
                reasons |= {d.reason for d in panel.drops}
        assert reasons == {"no-snapshot", "unknown-firm", "missing-sector", "missing-market",
                           "price-window", "index-window"}
        assert all(len(build_panel(stores, m, "positive", 1)) > 0 for m in MODES)


def assert_same_panel(a: Panel, b: Panel) -> None:
    """Field for field, dtypes and drop lists included."""
    for f in dataclasses.fields(Panel):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


def fresh(stores: Stores) -> Stores:
    """The same inputs in a new ``Stores``, so nothing built before is reused."""
    return Stores(firms=stores.firms, prices=stores.prices, indices=stores.indices,
                  news=stores.news, graph=stores.graph)


class TestStackedBuild:
    """Every series laid end to end, and the per-mode tables memoised on ``Stores``."""

    def test_blocks_never_read_a_neighbouring_series(self):
        # A, B and C lie end to end in that order, and C is followed by the index
        # values. Each has its own price level, so a block that read into a
        # neighbour would give a finite, wrong change instead of a drop.
        dates = weekday_dates(START, 12)
        trend = np.exp(np.linspace(0.0, 0.1, 12))
        prices = {f: make_series(dates, level * trend)
                  for f, level in (("A", 10.0), ("B", 200.0), ("C", 3000.0))}
        indices = {"M0": make_series(dates, 500.0 * trend[::-1]),
                   "M1": make_series(dates[3:], 900.0 * trend[3:])}
        events = [simple_event(f"{f}{k:02d}", day, {f})
                  for f in prices for k, day in enumerate([*dates, dates[-1] + dt.timedelta(days=1)])]
        stores = make_stores(
            firms=[simple_firm("A"), simple_firm("B"), simple_firm("C", market="M1")],
            prices=prices, indices=indices, events=events,
        )
        for w in (1, 2, 3, 4):
            panel = build_panel(stores, "own", "positive", w)
            reasons = {(d.news_id, d.firm_id): d.reason for d in panel.drops}
            for f in prices:
                # anchors 0..2w-1 lack block A, and anchors past n - w lack block C
                for k in [*range(2 * w), *range(12 - w + 1, 13)]:
                    assert reasons[f"{f}{k:02d}", f] == "price-window"
            pairs = reference_pairs(stores, "own", w)
            kept = [p for p in pairs if p[2] is None]
            assert panel.news_id.tolist() == [p[0] for p in kept]
            assert panel.y.tolist() == [p[3] for p in kept]
            assert panel.market_x.tolist() == [p[4] for p in kept]
            assert [(d.news_id, d.firm_id, d.reason) for d in panel.drops] == [
                p[:3] for p in pairs if p[2] is not None]
            assert {d.reason for d in panel.drops} == {"price-window", "index-window"}

    def test_memoised_builds_equal_fresh_builds(self):
        stores = perturbed_sim_stores()
        for mode in MODES:
            for w in (30, 1, 5, 1):
                assert_same_panel(build_panel(stores, mode, "positive", w),
                                  build_panel(fresh(stores), mode, "positive", w))
        assert set(stores._memo) >= set(MODES)  # the builds above did share one table per mode

    def test_replace_does_not_reuse_the_memo(self):
        stores = perturbed_sim_stores()
        before = build_panel(stores, "supplier", "positive", 2)
        prices = {f: Series(s.dates, s.values[::-1].copy())
                  for f, s in stores.prices.items() if f != "F00005"}
        replaced = dataclasses.replace(stores, prices=prices)
        after = build_panel(replaced, "supplier", "positive", 2)
        assert_same_panel(after, build_panel(fresh(replaced), "supplier", "positive", 2))
        assert "F00005" in before.firm_id and "F00005" not in after.firm_id
        assert not np.array_equal(before.y, after.y)

    def test_small_gather_batch_changes_nothing(self, monkeypatch):
        stores = perturbed_sim_stores()
        expected = {(m, w): build_panel(stores, m, "positive", w) for m in MODES for w in (1, 3, 7)}
        monkeypatch.setattr(market, "_GATHER_BATCH", 4)  # one block per gather for w > 4
        for (mode, w), panel in expected.items():
            assert_same_panel(build_panel(stores, mode, "positive", w), panel)

from __future__ import annotations

import dataclasses
import datetime as dt
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    make_inputs,
    make_series,
    make_stores,
    reference_change,
    sim_inputs,
    simple_event,
    simple_firm,
    weekday_dates,
)
from newsprop import market
from newsprop.graph import SupplyChainNetwork
from newsprop.market import PRE, POST, Series
from newsprop.panel import (
    MODES, Panel, Stores, _anchor_queries, _index_anchors, _pair_table, build_panel, panel_summary,
    write_panel,
)
from newsprop.regress import within_transform
from newsprop.sentiment import NewsStore
from newsprop.sim import SimConfig, simulate

START = dt.date(2016, 1, 4)


def flat_market(firm_ids, n_days=40, markets=("M0",), close=100.0):
    dates = weekday_dates(START, n_days)
    prices = {f: make_series(dates, [close] * n_days) for f in firm_ids}
    indices = {m: make_series(dates, [1000.0] * n_days) for m in markets}
    return dates, prices, indices


class TestOwnMode:
    def test_no_events_empty_panel(self):
        dates, prices, indices = flat_market(["A", "B"])
        named = make_stores(firms=[simple_firm("A"), simple_firm("B")], prices=prices,
                            indices=indices, edges_by_year={2016: {("A", "B")}})
        # no firm, series, article or link: every table and its index anchors are empty
        empty = Stores({}, {}, {}, NewsStore({}), SupplyChainNetwork({}))
        for stores in (named, empty):
            for mode in MODES:
                panel = build_panel(stores, mode, "positive", 1)
                assert len(panel) == 0 and panel.drops == []
                assert panel_summary(panel).n_obs == 0

    @pytest.mark.parametrize("year", [2 ** 63, -2 ** 63 - 1])
    def test_snapshot_year_int64_cannot_hold_raises_naming_it(self, year):
        dates, prices, indices = flat_market(["A", "B"])
        inputs = make_inputs(firms=[simple_firm("A"), simple_firm("B")], prices=prices, indices=indices,
                             edges_by_year={2016: {("A", "B")}, year: {("B", "A")}})
        with pytest.raises(ValueError, match=f"snapshot year {year} does not fit in int64"):
            Stores(**inputs)
        inputs["graph"] = SupplyChainNetwork({-2 ** 63: {("A", "B")}, 2 ** 63 - 1: {("B", "A")}})
        assert build_panel(Stores(**inputs), "supplier", "positive", 1).drops == []

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

    def test_array_records_compare_and_hash_by_identity(self):
        # a dataclass == over ndarray fields would raise "truth value of an
        # array ... is ambiguous" once a column holds more than one row
        dates, prices, indices = flat_market(["A", "B"])
        events = [simple_event("n1", dates[10], {"A", "B"})]
        inputs = make_inputs(firms=[simple_firm("A"), simple_firm("B")], prices=prices,
                             indices=indices, events=events)
        a, b = Stores(**inputs), Stores(**inputs)
        panels = [build_panel(stores, "own", "positive", 1) for stores in (a, b)]
        designs = [within_transform(panel) for panel in panels]
        series = [prices["A"], Series(prices["A"].dates, prices["A"].values)]
        for one, other in (a, b), panels, designs, series:
            assert one == one and one != other
            assert hash(one) == hash(one)

    def test_rejects_bad_arguments(self):
        stores = make_stores()
        with pytest.raises(ValueError):
            build_panel(stores, "sideways", "positive", 1)
        with pytest.raises(ValueError):
            build_panel(stores, "own", "bullish", 1)
        with pytest.raises(ValueError):
            build_panel(stores, "own", "positive", 0)

    def test_rejects_windows_that_are_not_integers(self):
        dates, prices, indices = flat_market(["A"])
        stores = make_stores(firms=[simple_firm("A")], prices=prices, indices=indices,
                             events=[simple_event("n1", dates[10], {"A"})])
        for w in (1.5, 2.0, "1", True, None):
            with pytest.raises(ValueError, match="window w must be an integer >= 1"):
                build_panel(stores, "own", "positive", w)
        assert_same_panel(build_panel(stores, "own", "positive", np.int64(2)),
                          build_panel(stores, "own", "positive", 2))


SERIES_INVARIANT_CONFIG = SimConfig(n_firms=20, n_days=80, edge_prob=0.1, news_rate=3.0, seed=5)


def series_invariant_inputs() -> dict:
    """A small simulated bundle whose own panel at w = 1 keeps 120 pairs."""
    return sim_inputs(simulate(SERIES_INVARIANT_CONFIG))


class TestSeriesInvariant:
    """A ``Stores`` takes only series with one value per date and strictly
    ascending ``datetime64[D]`` dates, and names the one that is not."""

    def test_simulated_inputs_hold_it(self):
        assert len(build_panel(Stores(**series_invariant_inputs()), "own", "positive", 1)) == 120

    @pytest.mark.parametrize("kind", ["prices", "indices"])
    def test_dates_of_another_unit_raise(self, kind):
        inputs = series_invariant_inputs()
        key, series = next(iter(inputs[kind].items()))
        inputs[kind] = {**inputs[kind], key: Series(series.dates.astype("datetime64[s]"), series.values)}
        with pytest.raises(ValueError, match=f"series '{key}' .* datetime64\\[s\\] dates"):
            build_panel(Stores(**inputs), "own", "positive", 1)

    def test_one_value_short_raises(self):
        inputs = series_invariant_inputs()
        series = inputs["prices"]["F00004"]
        inputs["prices"] = {**inputs["prices"], "F00004": Series(series.dates, series.values[:-1])}
        with pytest.raises(ValueError, match=f"series 'F00004' has {len(series) - 1} values for {len(series)} "):
            build_panel(Stores(**inputs), "own", "positive", 1)

    @pytest.mark.parametrize("order", ["reversed", "repeated day"])
    def test_dates_that_do_not_strictly_ascend_raise(self, order):
        inputs = series_invariant_inputs()
        series = inputs["prices"]["F00007"]
        dates = series.dates[::-1] if order == "reversed" else np.sort(np.r_[series.dates[1:], series.dates[5]])
        inputs["prices"] = {**inputs["prices"], "F00007": Series(dates, series.values)}
        with pytest.raises(ValueError, match="series 'F00007' dates do not strictly ascend"):
            build_panel(Stores(**inputs), "own", "positive", 1)

    @pytest.mark.parametrize("value", [float("nan"), 0.0, -1.0, float("inf")])
    @pytest.mark.parametrize("kind, key", [("prices", "F00003"), ("indices", "M01")])
    def test_values_that_are_not_finite_and_positive_raise(self, kind, key, value):
        # through the constructor and through the simulator's columns alike
        bundle = simulate(SERIES_INVARIANT_CONFIG)
        inputs = sim_inputs(bundle)
        series = inputs[kind][key]
        values = series.values.copy()
        values[7] = value
        inputs[kind] = {**inputs[kind], key: Series(series.dates, values)}
        message = f"series '{key}' holds {value}; its values must be finite and positive"
        with pytest.raises(ValueError, match=message):
            Stores(**inputs)
        sim_inputs(bundle)[kind][key].values[7] = value  # a view into the bundle's columns
        with pytest.raises(ValueError, match=message):
            bundle.stores()

    def test_series_may_be_empty_or_restart_the_calendar(self):
        # each series starts before the day the one laid before it ends, and
        # empty series lie first, between two and last in the stack
        inputs = series_invariant_inputs()
        empty = Series(np.empty(0, "datetime64[D]"), np.empty(0))
        expected = build_panel(Stores(**inputs), "own", "positive", 1)
        prices = inputs["prices"]
        inputs["prices"] = {"Z0": empty, **dict(list(prices.items())[:3]), "Z1": empty,
                            **dict(list(prices.items())[3:]), "Z2": empty}
        assert_same_panel(build_panel(Stores(**inputs), "own", "positive", 1), expected)


def perturbed_sim_inputs() -> dict:
    """A simulated bundle's ``Stores`` arguments with edges, edited so that
    every drop reason occurs."""
    config = SimConfig(
        n_firms=30, n_sectors=4, n_markets=2, n_days=500, edge_prob=0.08, news_rate=3.0,
        start_date=dt.date(2016, 6, 1), seed=11,
    )
    inputs = sim_inputs(simulate(config))
    records = dict(inputs["firms"])
    del records["F00000"]  # unknown-firm
    records["F00001"] = records["F00001"]._replace(sector_code="")
    records["F00002"] = records["F00002"]._replace(market_id="")
    prices = dict(inputs["prices"])
    del prices["F00003"]  # price-window without a series
    m1 = inputs["indices"]["M01"]  # starts 60 quotes late: index-window
    indices = {**inputs["indices"], "M01": Series(m1.dates[60:], m1.values[60:])}
    # the only snapshot is a year after the first events: no-snapshot
    graph = SupplyChainNetwork({2017: inputs["graph"].snapshot(2016).edges})
    return dict(firms=records, prices=prices, indices=indices, news=inputs["news"], graph=graph)


def reference_pairs(inputs: dict, mode: str, w: int):
    """Per-pair brute force over a ``Stores``' arguments: (news_id, firm_id,
    drop reason or None, y, market_x)."""
    firms, prices, indices, events, graph = (
        inputs["firms"], inputs["prices"], inputs["indices"], inputs["news"].events, inputs["graph"])
    out = []
    for news_id in sorted(events):
        event = events[news_id]
        if mode == "own":
            exposed = set(event.mentions)
        else:
            year = graph.snapshot_year_at_or_before(event.date.year)
            if year is None:
                out += [(news_id, f, "no-snapshot", None, None) for f in sorted(event.mentions)]
                continue
            neighbours = graph.suppliers_of if mode == "supplier" else graph.clients_of
            exposed = set().union(*(neighbours(f, year) for f in event.mentions)) - event.mentions
        for firm_id in sorted(exposed):
            record = firms.get(firm_id)
            series = prices.get(firm_id)
            index = indices.get(record.market_id) if record else None
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


def assert_matches_reference(stores: Stores, inputs: dict, mode: str, w: int) -> Panel:
    """The built panel's kept columns and full drop list equal ``reference_pairs``
    over the arguments ``stores`` was made from."""
    panel = build_panel(stores, mode, "positive", w)
    pairs = reference_pairs(inputs, mode, w)
    kept = [p for p in pairs if p[2] is None]
    assert list(zip(panel.news_id.tolist(), panel.firm_id.tolist())) == [
        (p[0], p[1]) for p in kept
    ]
    assert panel.y.tolist() == [p[3] for p in kept]
    assert panel.market_x.tolist() == [p[4] for p in kept]
    records = [inputs["firms"].get(p[1]) for p in kept]
    events = [inputs["news"].events[p[0]] for p in kept]
    assert panel.sector_labels[panel.sector].tolist() == [r.sector_code for r in records]
    assert panel.market.tolist() == [r.market_id for r in records]
    assert panel.p_pos.tolist() == [e.p_pos for e in events]
    assert panel.p_neg.tolist() == [e.p_neg for e in events]
    assert [(d.news_id, d.firm_id, d.reason) for d in panel.drops] == [
        p[:3] for p in pairs if p[2] is not None
    ]
    return panel


class TestReference:
    def test_columns_and_drops_match_per_pair_reference(self):
        inputs = perturbed_sim_inputs()
        stores = Stores(**inputs)
        reasons = set()
        for mode in MODES:
            for w in (1, 3, 7):
                panel = assert_matches_reference(stores, inputs, mode, w)
                reasons |= {d.reason for d in panel.drops}
        assert reasons == {"no-snapshot", "unknown-firm", "missing-sector", "missing-market",
                           "price-window", "index-window"}
        assert all(len(build_panel(stores, m, "positive", 1)) > 0 for m in MODES)


@st.composite
def perturbed_small_inputs(draw) -> dict:
    """A small simulated bundle's ``Stores`` arguments, with registry records dropped, sectors and
    markets blanked, price series deleted, index series truncated, and its one
    snapshot moved to a drawn year, each at random."""
    config = SimConfig(
        n_firms=draw(st.integers(2, 10)), n_sectors=3, n_markets=draw(st.integers(1, 2)),
        n_days=draw(st.integers(30, 90)), edge_prob=draw(st.sampled_from([0.2, 0.6])),
        news_rate=draw(st.sampled_from([1.0, 4.0])), seed=draw(st.integers(0, 2**32 - 1)),
        start_date=dt.date(2016, 11, 1),
    )
    bundle = simulate(config)
    inputs = sim_inputs(bundle)
    firm_ids = sorted(inputs["firms"])

    def some_firms():
        return draw(st.sets(st.sampled_from(firm_ids), max_size=3))

    records = {f: r for f, r in inputs["firms"].items() if f not in some_firms()}
    for field_name in ("sector_code", "market_id"):
        for f in some_firms() & set(records):
            records[f] = records[f]._replace(**{field_name: ""})
    gone = some_firms()
    prices = {f: s for f, s in inputs["prices"].items() if f not in gone}
    indices = {}
    for m, s in inputs["indices"].items():
        head, tail = draw(st.integers(0, 25)), draw(st.integers(0, 25))
        if head + tail < len(s):
            indices[m] = Series(s.dates[head : len(s) - tail], s.values[head : len(s) - tail])
    # 2016 and 2017 hold the events; a snapshot from 2017 on leaves some without one
    graph = SupplyChainNetwork({draw(st.integers(2015, 2018)): {(a, b) for _, a, b in bundle.edges}})
    return dict(firms=records, prices=prices, indices=indices, news=inputs["news"], graph=graph)


class TestReasonProperty:
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(inputs=perturbed_small_inputs())
    def test_kept_columns_and_drops_match_per_pair_reference(self, inputs):
        stores = Stores(**inputs)
        for mode in MODES:
            for w in (1, 3):
                assert_matches_reference(stores, inputs, mode, w)


# listed out of string order: "F10" < "F9", and the non-ASCII "Fé" sorts last
HAND_FIRMS = ("F9", "F10", "F1", "Fé", "A", "Z")
GHOST = "G0"  # mentioned, but in neither the graph nor the registry
HAND_DATES = [dt.date(2015, 12, 28), dt.date(2016, 6, 15), dt.date(2016, 12, 31), dt.date(2017, 1, 2),
              dt.date(2017, 6, 15), dt.date(2018, 1, 3), dt.date(2018, 6, 16), dt.date(2018, 12, 31)]


@st.composite
def hand_built_inputs(draw) -> dict:
    """Two or three snapshots with events before the first, articles naming up
    to three firms, and ids whose string order is not their insertion order.

    In the first snapshot F1 supplies both F9 and F10, and Z is a client of
    both, so one article naming F9 and F10 reaches F1 (supplier) and Z
    (client) twice; F9 also supplies F10, a mentioned neighbour of a
    mentioned firm.
    """
    years = sorted(draw(st.sets(st.sampled_from([2016, 2017, 2018]), min_size=2, max_size=3)))
    links = st.tuples(*[st.sampled_from(HAND_FIRMS)] * 2).filter(lambda edge: edge[0] != edge[1])
    edges = {year: draw(st.sets(links, max_size=8)) for year in years}
    edges[years[0]] |= {("F1", "F9"), ("F1", "F10"), ("F9", "F10"), ("F9", "Z"), ("F10", "Z")}
    mentions = st.sets(st.sampled_from((*HAND_FIRMS, GHOST)), min_size=1, max_size=3)
    drawn = draw(st.lists(st.tuples(st.sampled_from(HAND_DATES), mentions, st.floats(0.0, 1.0)),
                          max_size=10))
    events = [simple_event("N1", dt.date(years[0], 3, 1), {"F9", "F10"}),
              simple_event("Nä", dt.date(2015, 12, 28), {"Fé", GHOST, "Z"})]  # before every snapshot
    events += [simple_event(f"N{k + 2}", day, named, p_pos=p, p_neu=0.0, p_neg=1.0 - p)
               for k, (day, named, p) in enumerate(drawn)]
    dates = weekday_dates(dt.date(2015, 12, 1), 800)
    walks = np.exp(np.cumsum(np.random.default_rng(7).normal(0.0, 0.01, (len(HAND_FIRMS) + 2, 800)), axis=1))
    closes = {f: make_series(dates, 100.0 * walk) for f, walk in zip((*HAND_FIRMS, "M0", "M1"), walks)}
    return make_inputs(
        firms=[simple_firm(f, market=f"M{k % 2}") for k, f in enumerate(HAND_FIRMS)],
        prices={f: closes[f] for f in HAND_FIRMS}, indices={m: closes[m] for m in ("M0", "M1")},
        events=events, edges_by_year=edges,
    )


class TestHandBuiltProperty:
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(inputs=hand_built_inputs())
    def test_every_mode_matches_per_pair_reference(self, inputs):
        stores = Stores(**inputs)
        for mode in MODES:
            for w in (1, 3):
                assert_matches_reference(stores, inputs, mode, w)

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(inputs=hand_built_inputs())
    def test_dict_order_never_reaches_a_panel(self, inputs):
        # every dict in reversed insertion order, so the stack is laid out the other way round
        def reversed_dict(mapping):
            return dict(reversed(list(mapping.items())))

        stores = Stores(**inputs)
        reordered = Stores(firms=reversed_dict(inputs["firms"]), prices=reversed_dict(inputs["prices"]),
                           indices=reversed_dict(inputs["indices"]),
                           news=NewsStore(reversed_dict(inputs["news"].events)), graph=inputs["graph"])
        assert not np.array_equal(reordered._codes.values, stores._codes.values)
        for mode in MODES:
            for w in (1, 3):
                assert_same_panel(build_panel(reordered, mode, "positive", w),
                                  build_panel(stores, mode, "positive", w))


def assert_same_panel(a: Panel, b: Panel) -> None:
    """Field for field, dtypes and drop lists included."""
    for f in dataclasses.fields(Panel):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


def series_firsts(inputs: dict) -> dict:
    """(kind, id) -> first index of each series in the stack of a ``Stores``
    made from ``inputs``: the cumulative lengths of every price series, then
    every index series."""
    series = {**{("price", f): s for f, s in inputs["prices"].items()},
              **{("index", m): s for m, s in inputs["indices"].items()}}
    return dict(zip(series, np.cumsum([0] + [len(s) for s in series.values()]).tolist()))


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
        inputs = make_inputs(
            firms=[simple_firm("A"), simple_firm("B"), simple_firm("C", market="M1")],
            prices=prices, indices=indices, events=events,
        )
        stores = Stores(**inputs)
        for w in (1, 2, 3, 4):
            panel = build_panel(stores, "own", "positive", w)
            reasons = {(d.news_id, d.firm_id): d.reason for d in panel.drops}
            for f in prices:
                # anchors 0..2w-1 lack block A, and anchors past n - w lack block C
                for k in [*range(2 * w), *range(12 - w + 1, 13)]:
                    assert reasons[f"{f}{k:02d}", f] == "price-window"
            pairs = reference_pairs(inputs, "own", w)
            kept = [p for p in pairs if p[2] is None]
            assert panel.news_id.tolist() == [p[0] for p in kept]
            assert panel.y.tolist() == [p[3] for p in kept]
            assert panel.market_x.tolist() == [p[4] for p in kept]
            assert [(d.news_id, d.firm_id, d.reason) for d in panel.drops] == [
                p[:3] for p in pairs if p[2] is not None]
            assert {d.reason for d in panel.drops} == {"price-window", "index-window"}

    def test_memoised_builds_equal_fresh_builds(self):
        inputs = perturbed_sim_inputs()
        stores = Stores(**inputs)
        for mode in MODES:
            for w in (30, 1, 5, 1):
                assert_same_panel(build_panel(stores, mode, "positive", w),
                                  build_panel(Stores(**inputs), mode, "positive", w))
        assert set(stores._memo) >= set(MODES)  # the builds above did share one table per mode

    def test_replace_does_not_reuse_the_memo(self):
        inputs = perturbed_sim_inputs()
        stores = Stores(**inputs)
        before = build_panel(stores, "supplier", "positive", 2)
        prices = {f: Series(s.dates, s.values[::-1].copy())
                  for f, s in inputs["prices"].items() if f != "F00005"}
        replaced = Stores(**{**inputs, "prices": prices})
        after = build_panel(replaced, "supplier", "positive", 2)
        assert_same_panel(after, build_panel(Stores(**{**inputs, "prices": prices}),
                                             "supplier", "positive", 2))
        assert_same_panel(build_panel(stores, "supplier", "positive", 2), before)
        assert "F00005" in before.firm_id and "F00005" not in after.firm_id
        assert not np.array_equal(before.y, after.y)

    def test_inputs_cannot_change_under_the_memo(self):
        inputs = perturbed_sim_inputs()
        stores = Stores(**inputs)
        before = build_panel(stores, "own", "positive", 2)
        firm = str(before.firm_id[0])
        series = inputs["prices"][firm]
        reversed_series = Series(series.dates, series.values[::-1].copy())
        # a dict the caller keeps is copied, so changing it later changes nothing
        prices = dict(inputs["prices"])
        kept = Stores(**{**inputs, "prices": prices})
        prices[firm] = reversed_series
        assert_same_panel(build_panel(kept, "own", "positive", 2), before)
        assert_same_panel(build_panel(stores, "own", "positive", 2), before)
        after = build_panel(Stores(**{**inputs, "prices": prices}), "own", "positive", 2)
        assert not np.array_equal(before.y[before.firm_id == firm], after.y[after.firm_id == firm])

    def test_stores_keeps_no_input(self):
        # a Stores is its coded columns: a write into any input the caller
        # keeps changes no build, and once the caller lets go of the inputs,
        # none of them stays alive
        class Registry(dict):  # a plain dict takes no weak reference
            pass

        inputs = perturbed_sim_inputs()
        inputs["firms"] = Registry(inputs["firms"])
        for name in ("prices", "indices"):  # own calendars: the simulator's one calendar is read-only
            inputs[name] = {k: Series(s.dates.copy(), s.values) for k, s in inputs[name].items()}
        expected = {(mode, w): build_panel(Stores(**inputs), mode, "positive", w)
                    for mode in MODES for w in (2, 5)}
        series = [*inputs["prices"].values(), *inputs["indices"].values()]
        refs = [weakref.ref(value) for value in (inputs["firms"], inputs["news"], inputs["graph"], *series)]
        stores = Stores(**inputs)
        assert_same_panel(build_panel(stores, "own", "positive", 2), expected["own", 2])  # memoised
        for one in series:
            one.values[:] = 1.0
            one.dates[:] = one.dates[-1]
        for name in ("firms", "prices", "indices"):
            inputs[name].clear()
        inputs["news"].events.clear()
        for (mode, w), panel in expected.items():
            assert_same_panel(build_panel(stores, mode, "positive", w), panel)
        del inputs, series, one
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)
        for (mode, w), panel in expected.items():
            assert_same_panel(build_panel(stores, mode, "positive", w), panel)

    def test_callers_arrays_stay_writable_and_unread(self):
        # a Stores copies the series it is given: the caller's arrays stay
        # writable, and a write into one changes no later build
        bundle = simulate(SimConfig(n_firms=30, n_markets=2, n_days=200, edge_prob=0.08,
                                    news_rate=3.0, seed=11))
        inputs = sim_inputs(bundle)
        from_bundle = Stores(**inputs)
        prices = {f: Series(s.dates.copy(), s.values.copy()) for f, s in bundle.prices.items()}
        given = Stores(**{**inputs, "prices": prices})
        expected = {(mode, w): build_panel(Stores(**inputs), mode, "positive", w)
                    for mode in MODES for w in (2, 5)}
        for stores in (from_bundle, given):
            for mode in MODES:
                assert_same_panel(build_panel(stores, mode, "positive", 2), expected[mode, 2])
        for series in (*inputs["prices"].values(), *inputs["indices"].values(), *prices.values()):
            assert series.values.flags.writeable
            series.values[:] = series.values[::-1].copy()
        for stores in (from_bundle, given):
            for (mode, w), panel in expected.items():
                assert_same_panel(build_panel(stores, mode, "positive", w), panel)
            assert set(stores._memo) == set(MODES)  # only the pair tables are memoised

    def test_sector_labels_cannot_change_a_later_build(self):
        # a panel's sector_labels is the Stores' own array, so a write into it
        # must raise rather than relabel a sector in every later build
        inputs = perturbed_sim_inputs()
        stores = Stores(**inputs)
        for mode in MODES:
            panel = build_panel(stores, mode, "positive", 1)
            with pytest.raises(ValueError, match="read-only"):
                panel.sector_labels[0] = "XX"
            assert_same_panel(build_panel(stores, mode, "positive", 1),
                              build_panel(Stores(**inputs), mode, "positive", 1))

    def test_small_gather_batch_changes_nothing(self, monkeypatch):
        stores = Stores(**perturbed_sim_inputs())
        expected = {(m, w): build_panel(stores, m, "positive", w) for m in MODES for w in (1, 3, 7)}
        monkeypatch.setattr(market, "_GATHER_BATCH", 4)  # one block per gather for w > 4
        for (mode, w), panel in expected.items():
            assert_same_panel(build_panel(stores, mode, "positive", w), panel)


@st.composite
def colliding_query_inputs(draw) -> dict:
    """``Stores`` arguments whose window queries share block-C starts.

    Firm N has no price series, so its price query (first 0, length 0, anchor
    0) has the key of an anchor on the first day of series 0, A's. An event
    after the last trading day anchors every series at its length, the key of
    the next series' first day. Market M1 may lack an index series, and G is
    mentioned but in no registry.
    """
    n_days = draw(st.integers(4, 30))
    dates = weekday_dates(START, n_days)
    lengths = {f: draw(st.integers(1, n_days)) for f in ("A", "B")}
    prices = {f: make_series(dates[:k], 100.0 + np.arange(k)) for f, k in lengths.items()}
    indices = {"M0": make_series(dates, 1000.0 - np.arange(n_days))}
    if draw(st.booleans()):
        k = draw(st.integers(1, n_days))
        indices["M1"] = make_series(dates[:k], 500.0 + np.arange(k))
    after = dates[-1] + dt.timedelta(days=1)
    days = st.sampled_from([*dates, after])
    forced = [(dates[0], {"A"}), (draw(days), {"N"}), (after, {"A", "B"})]
    drawn = draw(st.lists(st.tuples(days, st.sets(st.sampled_from("ABNG"), min_size=1, max_size=3)),
                          max_size=8))
    # drawn id order, so the pairs of either colliding query may come first
    ids = draw(st.permutations([f"n{k:02d}" for k in range(len(forced) + len(drawn))]))
    links = st.tuples(*[st.sampled_from("ABNG")] * 2).filter(lambda edge: edge[0] != edge[1])
    return make_inputs(
        firms=[simple_firm("A"), simple_firm("B", market="M1"), simple_firm("N")],
        prices=prices, indices=indices,
        events=[simple_event(i, day, named) for i, (day, named) in zip(ids, forced + drawn)],
        edges_by_year={2016: draw(st.sets(links, max_size=6))},
    )


@st.composite
def calendar_day_inputs(draw) -> dict:
    """``Stores`` arguments whose events fall on many calendar days: weekends,
    the days before, on and after each index series' first and last quote, and
    the weekdays in its gaps.

    Markets M0 and M1 have index series on random subsets of one weekday
    calendar, and M2 has none. Firms A and D trade in M0, B in M1 and C in M2;
    each may lack a price series, and without any the first index series starts
    at position 0 of the stack, where "no series" also reads. Each event is on
    its own day, and links drawn among the four firms give the indirect modes
    pairs too.
    """
    calendar = weekday_dates(START, 40)

    def gapped(k: int) -> list:
        return sorted(draw(st.permutations(calendar))[:k])

    indices = {m: make_series(dates, 1000.0 + np.arange(len(dates)))
               for m in ("M0", "M1") for dates in [gapped(draw(st.integers(1, 30)))]}
    prices = {f: make_series(dates, 100.0 + np.arange(len(dates)))
              for f in draw(st.sets(st.sampled_from("ABCD"))) for dates in [gapped(draw(st.integers(1, 40)))]}
    one = dt.timedelta(days=1)
    days = {START - 2 * one, calendar[-1] + 2 * one}
    for series in indices.values():
        quoted = series.dates.tolist()
        for end in (quoted[0], quoted[-1]):
            days |= {end - one, end, end + one}
        days |= {d for d in calendar if quoted[0] < d < quoted[-1] and d not in quoted}
    days |= {START + k * one for k in range(56) if (START + k * one).weekday() >= 5}
    on = draw(st.lists(st.sampled_from(sorted(days)), min_size=4, max_size=30, unique=True))
    events = [(day, draw(st.sets(st.sampled_from("ABCD"), min_size=1))) for day in on]
    links = st.tuples(*[st.sampled_from("ABCD")] * 2).filter(lambda edge: edge[0] != edge[1])
    return make_inputs(
        firms=[simple_firm("A"), simple_firm("B", market="M1"), simple_firm("C", market="M2"), simple_firm("D")],
        prices=prices, indices=indices,
        events=[simple_event(f"n{k:02d}", day, named) for k, (day, named) in enumerate(events)],
        edges_by_year={2015: draw(st.sets(links, min_size=4, max_size=12))},
    )


def reference_queries(inputs: dict, table) -> np.ndarray:
    """Each pair's price query, then each pair's index query, as (first, length,
    anchor) rows by one ``np.searchsorted`` per query, (0, 0, 0) without a series."""
    events, graph = inputs["news"].events, inputs["graph"]
    firsts = series_firsts(inputs)
    # news and firm codes number the events and the mentioned or linked firms in id order
    news_ids = sorted(events)
    firm_ids = sorted(set().union(*(e.mentions for e in events.values()),
                                  *(edge for year in graph.years for edge in graph.snapshot(year).edges)))
    queries = []
    for kind, series_by_id in (("price", inputs["prices"]), ("index", inputs["indices"])):
        for news, firm in zip(table.news.tolist(), table.firm.tolist()):
            record = inputs["firms"].get(firm_ids[firm])
            ident = firm_ids[firm] if kind == "price" else (record.market_id if record else "")
            series = series_by_id.get(ident)
            day = np.datetime64(events[news_ids[news]].date, "D")
            queries.append((0, 0, 0) if series is None else (
                firsts[kind, ident], len(series), int(np.searchsorted(series.dates, day))))
    return np.array(queries, dtype=np.int64).reshape(-1, 3)


class TestQueryDedupe:
    """The distinct window queries equal an ``np.unique`` dedupe of per-pair queries."""

    @staticmethod
    def assert_unique_reference(inputs: dict, planted: bool) -> None:
        stores = Stores(**inputs)
        for mode in MODES:
            table = _pair_table(stores, mode)
            first, length, anchor = reference_queries(inputs, table).T
            _, pick, query = np.unique(first + anchor, return_index=True, return_inverse=True)
            assert table.first.tolist() == first[pick].tolist()
            assert table.length.tolist() == length[pick].tolist()
            assert table.anchor.tolist() == anchor[pick].tolist()
            assert table.query.tolist() == query.tolist()
            if mode == "own" and planted:  # both collisions colliding_query_inputs plants do occur
                key = first + anchor
                assert ((key == 0) & (length == 0)).any() and ((key == 0) & (length > 0)).any()
                assert ((anchor == length) & (length > 0)).any()

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(inputs=colliding_query_inputs())
    def test_queries_equal_unique_reference(self, inputs):
        self.assert_unique_reference(inputs, planted=True)

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(inputs=calendar_day_inputs())
    def test_calendar_days_equal_unique_reference(self, inputs):
        self.assert_unique_reference(inputs, planted=False)


# series lengths on either side of the powers of two the anchor search steps by
LIFT_LENGTHS = (0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65)


@st.composite
def gapped_inputs(draw) -> dict:
    """``Stores`` arguments whose price and index series lie on random subsets
    of one weekday calendar, so they have calendar gaps of their own, with
    lengths around powers of two. Firm N and market M2 have no series, and C
    is in no registry; one article mentions every firm, so the ``Stores``
    codes all four."""
    calendar = weekday_dates(START, 70)

    def gapped():
        k = draw(st.sampled_from(LIFT_LENGTHS[1:]))
        picked = sorted(draw(st.permutations(range(len(calendar))))[:k])
        return make_series([calendar[i] for i in picked], 100.0 + np.arange(k))

    return make_inputs(
        firms=[simple_firm("A"), simple_firm("B", market="M1"), simple_firm("N", market="M2")],
        prices={f: gapped() for f in ("B", "A", "C")}, indices={m: gapped() for m in ("M1", "M0")},
        events=[simple_event("n0", START, {"A", "B", "C", "N"})],
    )


class TestAnchorQueries:
    """The anchor search over every pair at once equals one ``np.searchsorted`` per series."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(inputs=gapped_inputs())
    def test_anchors_equal_per_series_searchsorted(self, inputs):
        # every calendar day from a week before the first weekday to a week past
        # the last, weekends included: before, inside, in the gaps of and after
        # every series
        days = np.datetime64(START, "D") + np.arange(-7, 105)
        firsts = series_firsts(inputs)
        codes = Stores(**inputs)._codes
        assert codes.firm_id.tolist() == ["A", "B", "C", "N"]
        # the price spans of firms A, B, C and N, and the index spans of markets
        # M0, M1 and M2 through their firms A, B and N, read through each firm
        # code's slot
        for kind, series_by_id, labels, firm_code in (
                ("price", inputs["prices"], ["A", "B", "C", "N"], [0, 1, 2, 3]),
                ("index", inputs["indices"], ["M0", "M1", "M2"], [0, 1, 3])):
            code = np.repeat(np.arange(len(labels)), len(days))
            day = np.tile(days, len(labels))
            first, length = codes.span[:, getattr(codes, kind)[np.array(firm_code)[code]]]
            anchor = _anchor_queries(codes.days, first, length, day.view(np.int64))
            expected = []
            for label, d in zip(np.array(labels)[code].tolist(), day):
                series = series_by_id.get(label)
                expected.append((0, 0, 0) if series is None else (
                    firsts[kind, label], len(series), int(np.searchsorted(series.dates, d))))
            assert list(zip(first.tolist(), length.tolist(), anchor.tolist())) == expected

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(inputs=calendar_day_inputs())
    def test_index_table_equals_per_series_searchsorted(self, inputs):
        # every pair's index anchor, read from the (index series, event day)
        # table, in every mode
        stores = Stores(**inputs)
        for mode in MODES:
            table = _pair_table(stores, mode)
            expected = reference_queries(inputs, table)[len(table.news):, 2]
            assert _index_anchors(stores._codes, table.news, table.firm).tolist() == expected.tolist()
        assert len(set(stores._codes.day[_pair_table(stores, "own").news].tolist())) > 1

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(lengths=st.lists(st.sampled_from(LIFT_LENGTHS), min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1))
    def test_lengths_around_powers_of_two(self, lengths, seed):
        """Stacked ascending runs of any length, searched for every value from
        below the least to past the greatest, and for repeated values."""
        rng = np.random.default_rng(seed)
        runs = [np.cumsum(rng.integers(0, 3, k)) - 5 for k in lengths]  # ties and gaps
        days = np.concatenate([np.empty(0, np.int64), *runs])
        starts = np.cumsum([0, *lengths])[:-1]
        queries = [(a, k, d) for a, k in zip(starts.tolist(), lengths) for d in range(-7, 2 * max(lengths) + 3)]
        first, length, day = np.array(queries, dtype=np.int64).reshape(-1, 3).T
        anchor = _anchor_queries(days, first, length, day)
        assert anchor.tolist() == [int(np.searchsorted(days[a:a + k], d)) for a, k, d in queries]

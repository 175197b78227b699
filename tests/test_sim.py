from __future__ import annotations

import dataclasses
import datetime as dt
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from newsprop import market, panel, regress, sentiment, sim
from newsprop.csvio import write_rows
from newsprop.errors import SimConfigError
from newsprop.firms import load_firms
from newsprop.graph import load_edges
from newsprop.sim import (
    EXPECTED_HEADER,
    SimConfig,
    drift_block_loadings,
    expected_beta_rows,
    expected_betas,
    simulate,
)

SMALL = SimConfig(
    n_firms=30,
    n_sectors=4,
    n_markets=2,
    n_days=90,
    edge_prob=0.05,
    news_rate=4.0,
    gamma_pre=0.3,
    gamma_post=0.9,
    gamma_sup=0.1,
    seed=42,
)


# windows longer than the gaps between a firm's events, so drifts overlap
OVERLAPPING = dataclasses.replace(
    SMALL, n_firms=40, edge_prob=0.1, news_rate=12.0, leak_window=5, effect_window=3,
    gamma_cli=0.05, seed=7,
)


def read_bytes(paths):
    return {name: path.read_bytes() for name, path in paths.items()}


def dense_reference(config):
    """The simulator's draws, with the edges drawn as one dense (n, n) matrix
    and every drift applied as its own slice-add, in injection order.

    Returns the adjacency matrix, the (n_firms, n_trading) closes and the
    events as (news_id, date, mentions, p_pos, p_neu, p_neg) tuples.
    """
    _, ss_edges, ss_market, ss_firms = np.random.SeedSequence(config.seed).spawn(4)
    n = config.n_firms
    adjacency = np.random.default_rng(ss_edges).random((n, n)) < config.edge_prob
    np.fill_diagonal(adjacency, False)
    days = [config.start_date + dt.timedelta(days=k) for k in range(config.n_days)]
    if config.weekend_pattern:
        days = [d for d in days if d.weekday() < 5]
    calendar = np.array(days, dtype="datetime64[D]")
    t = len(days)
    market = np.random.default_rng(ss_market).normal(
        0.0, config.market_vol, size=(config.n_markets, t)
    )
    returns = np.empty((n, t))
    events = []
    for i, child in enumerate(ss_firms.spawn(n)):
        rng = np.random.default_rng(child)
        returns[i] = rng.normal(0.0, config.idio_vol, size=t)
        k = int(rng.poisson(config.news_rate))
        offsets = rng.integers(0, config.n_days, size=k)
        triples = rng.dirichlet(config.sentiment_alpha, size=k)
        events += [(i, int(offsets[e]), triples[e]) for e in range(k)]
    for i in range(n):
        returns[i] += market[i % config.n_markets]

    def inject(firm, anchor, pre_coef, post_coef, q):
        lo = max(anchor - config.leak_window, 0)
        if lo < anchor:
            returns[firm, lo:anchor] += pre_coef * (q - 0.5) / (100.0 * config.leak_window)
        hi = min(anchor + config.effect_window, t)
        if anchor < hi:
            returns[firm, anchor:hi] += post_coef * (q - 0.5) / (100.0 * config.effect_window)

    records = []
    for serial, (i, offset, triple) in enumerate(events):
        date = config.start_date + dt.timedelta(days=offset)
        q = float(triple[0])
        records.append((f"N{serial:07d}", date, frozenset({f"F{i:05d}"}), *map(float, triple)))
        anchor = int(np.searchsorted(calendar, np.datetime64(date, "D"), side="left"))
        if anchor >= t:
            continue
        inject(i, anchor, config.gamma_pre, config.gamma_post, q)
        for s in np.flatnonzero(adjacency[:, i]):
            inject(int(s), anchor, config.gamma_sup, config.gamma_sup, q)
        for c in np.flatnonzero(adjacency[i]):
            inject(int(c), anchor, config.gamma_cli, config.gamma_cli, q)
    return adjacency, np.exp(np.log(100.0) + np.cumsum(returns, axis=1)), records


def event_fields(bundle):
    return [(e.news_id, e.date, e.mentions, e.p_pos, e.p_neu, e.p_neg) for e in bundle.events]


@st.composite
def small_configs(draw):
    """Small configs with windows of 1 to 5 days on a calendar of about 4x the
    longest, so drifts overlap and are clipped at both ends of the calendar."""
    leak, effect = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    n_firms = draw(st.integers(1, 12))
    return SimConfig(
        n_firms=n_firms,
        n_sectors=3,
        n_markets=draw(st.integers(1, min(2, n_firms))),
        n_days=4 * max(leak, effect) + draw(st.integers(0, 3)),
        weekend_pattern=draw(st.booleans()),
        edge_prob=draw(st.sampled_from([0.3, 1.0, 0.0])),
        news_rate=draw(st.sampled_from([3.0, 10.0, 0.5, 0.0])),
        gamma_pre=0.3,
        gamma_post=-0.9,
        gamma_sup=0.1,
        gamma_cli=0.05,
        leak_window=leak,
        effect_window=effect,
        seed=draw(st.integers(0, 2**32 - 1)),
        start_date=draw(st.dates(dt.date(2016, 1, 1), dt.date(2016, 1, 7))),
    )


class TestSimulate:
    def test_same_seed_byte_identical(self, tmp_path):
        a = simulate(SMALL).write(tmp_path / "a")
        b = simulate(SMALL).write(tmp_path / "b")
        assert read_bytes(a) == read_bytes(b)

    def test_different_seed_differs(self, tmp_path):
        a = simulate(SMALL).write(tmp_path / "a")
        b = simulate(dataclasses.replace(SMALL, seed=43)).write(tmp_path / "b")
        assert read_bytes(a)["prices"] != read_bytes(b)["prices"]

    @pytest.mark.parametrize("batch", [None, 50])
    def test_prices_equal_slice_loop_reference(self, batch, monkeypatch):
        if batch is not None:  # many np.add.at batches instead of one
            monkeypatch.setattr("newsprop.sim._DRIFT_BATCH", batch)
        bundle = simulate(OVERLAPPING)
        _, closes, _ = dense_reference(OVERLAPPING)
        for i, firm_id in enumerate(sorted(bundle.prices)):
            assert bundle.prices[firm_id].values.tobytes() == closes[i].tobytes()

    @pytest.mark.parametrize("config", [
        SMALL,
        OVERLAPPING,
        dataclasses.replace(OVERLAPPING, weekend_pattern=False, news_rate=0.0),
        dataclasses.replace(OVERLAPPING, start_date=dt.date(2016, 1, 2), n_days=20),  # a Saturday
    ])
    def test_events_equal_reference(self, config):
        assert event_fields(simulate(config)) == dense_reference(config)[2]

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(config=small_configs(), batch=st.sampled_from([1, 5, 40, sim._DRIFT_BATCH]))
    def test_small_configs_equal_reference(self, config, batch):
        with mock.patch.object(sim, "_DRIFT_BATCH", batch):
            bundle = simulate(config)
        _, closes, events = dense_reference(config)
        assert event_fields(bundle) == events
        for i, firm_id in enumerate(sorted(bundle.prices)):
            assert bundle.prices[firm_id].values.tobytes() == closes[i].tobytes()

    def test_edges_equal_dense_draw(self):
        bundle = simulate(OVERLAPPING)
        adjacency, _, _ = dense_reference(OVERLAPPING)
        ids = sorted(bundle.prices)
        year = OVERLAPPING.start_date.year
        assert bundle.edges == [(year, ids[i], ids[j]) for i, j in np.argwhere(adjacency)]
        graph = bundle.stores().graph
        for k, firm_id in enumerate(ids):
            suppliers = {ids[s] for s in np.flatnonzero(adjacency[:, k])}
            clients = {ids[c] for c in np.flatnonzero(adjacency[k])}
            assert graph.suppliers_of(firm_id, year) == suppliers
            assert graph.clients_of(firm_id, year) == clients

    def test_zero_vol_zero_gamma_prices_constant(self):
        config = dataclasses.replace(
            SMALL, gamma_pre=0.0, gamma_post=0.0, gamma_sup=0.0, market_vol=0.0, idio_vol=0.0
        )
        bundle = simulate(config)
        for series in bundle.prices.values():
            assert np.allclose(series.values, series.values[0])
        stores = bundle.stores()
        result = regress.fit(panel.build_panel(stores, "own", "positive", 1))
        assert result.beta_pre == pytest.approx(0.0, abs=1e-9)
        assert result.beta_post == pytest.approx(0.0, abs=1e-9)

    def test_weekends_skipped_in_calendar(self):
        bundle = simulate(SMALL)
        assert all(d.weekday() < 5 for d in bundle.trading_dates)
        no_weekend = simulate(dataclasses.replace(SMALL, weekend_pattern=False))
        assert any(d.weekday() >= 5 for d in no_weekend.trading_dates)

    def test_impossible_calendar_rejected(self):
        with pytest.raises(SimConfigError):
            simulate(dataclasses.replace(SMALL, n_days=10, leak_window=5, effect_window=5))

    def test_bad_config_rejected(self):
        with pytest.raises(SimConfigError):
            simulate(dataclasses.replace(SMALL, edge_prob=1.5))
        with pytest.raises(SimConfigError):
            simulate(dataclasses.replace(SMALL, sentiment_alpha=(1.0, -1.0, 1.0)))
        with pytest.raises(SimConfigError):
            simulate(dataclasses.replace(SMALL, idio_vol=-0.1))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", [
        "edge_prob", "news_rate", "gamma_pre", "gamma_post", "gamma_sup", "gamma_cli",
        "market_vol", "idio_vol", "sentiment_alpha",
    ])
    def test_non_finite_setting_rejected(self, name, value):
        bad = (value, 1.0, 1.0) if name == "sentiment_alpha" else value
        with pytest.raises(SimConfigError, match=name):
            simulate(dataclasses.replace(SMALL, **{name: bad}))

    def test_round_trip_loads_without_rejections(self, tmp_path):
        paths = simulate(SMALL).write(tmp_path)
        _, rej = load_firms(paths["firms"])
        assert rej == []
        _, rej = market.load_prices(paths["prices"])
        assert rej == []
        _, rej = market.load_indices(paths["indices"])
        assert rej == []
        store, rej = sentiment.load_news(paths["news"])
        assert rej == []
        assert len(store) == len(simulate(SMALL).events)
        load_edges(paths["edges"])  # raises on any invalid row

    def test_round_trip_panel_matches_in_memory(self, tmp_path):
        bundle = simulate(SMALL)
        paths = bundle.write(tmp_path)
        firms, _ = load_firms(paths["firms"])
        prices, _ = market.load_prices(paths["prices"])
        indices, _ = market.load_indices(paths["indices"])
        news, _ = sentiment.load_news(paths["news"])
        loaded = panel.Stores(
            firms=firms, prices=prices, indices=indices, news=news, graph=load_edges(paths["edges"])
        )
        a = panel.build_panel(bundle.stores(), "own", "positive", 1)
        b = panel.build_panel(loaded, "own", "positive", 1)
        assert len(a) == len(b)
        assert np.array_equal(a.firm_id, b.firm_id)
        assert np.array_equal(a.news_id, b.news_id)
        assert a.y == pytest.approx(b.y, abs=1e-7)  # file precision is 12 significant digits

    def test_index_is_mean_log_price(self):
        bundle = simulate(SMALL)
        members = [f for i, f in enumerate(sorted(bundle.prices)) if i % SMALL.n_markets == 0]
        stacked = np.log([bundle.prices[f].values for f in members])
        assert np.allclose(np.log(bundle.indices["M00"].values), stacked.mean(axis=0))


def enumerated_loadings(w, leak_window, effect_window):
    """drift_block_loadings by enumerating every block position."""
    pre_days = range(-leak_window, 0)
    post_days = range(0, effect_window)

    def cumulated(position, days, length):
        return sum(1 for d in days if d <= position) / (100.0 * length)

    def block_mean(block, days, length):
        return sum(cumulated(k, days, length) for k in block) / len(block)

    loadings = np.zeros((2, 2))
    for col, (days, length) in enumerate(((pre_days, leak_window), (post_days, effect_window))):
        mean_a, mean_b, mean_c = (
            block_mean(block, days, length)
            for block in (range(-2 * w, -w), range(-w, 0), range(0, w))
        )
        loadings[0, col] = 100.0 * (mean_b - mean_a) / w
        loadings[1, col] = 100.0 * (mean_c - mean_b) / w
    return loadings


class TestDriftBlockLoadings:
    def test_closed_form_equals_enumeration(self):
        for w, leak, effect in itertools.product(range(1, 13), range(1, 7), range(1, 7)):
            np.testing.assert_allclose(
                drift_block_loadings(w, leak, effect), enumerated_loadings(w, leak, effect),
                rtol=1e-14, atol=0.0, err_msg=f"w={w} leak={leak} effect={effect}",
            )

    def test_huge_window_is_instant_and_finite(self):
        # the enumeration takes about 6 s at w = 10**6
        for w in (10**6, 10**18, 10**19, 10**40):
            loadings = drift_block_loadings(w, 3, 5)
            assert np.isfinite(loadings).all()
            assert loadings[1, 1] == pytest.approx(1.0 / w, rel=1e-5)
    def test_unit_windows_identity(self):
        assert np.allclose(drift_block_loadings(1, 1, 1), np.eye(2))

    def test_hand_enumerated_cases(self):
        # w=1, leak=2: half the leak drift falls before block B
        assert np.allclose(drift_block_loadings(1, 2, 1), [[0.5, 0.0], [0.0, 1.0]])
        # w=2, leak=2, effect=2: ramped accumulation inside each block
        assert np.allclose(drift_block_loadings(2, 2, 2), [[0.375, 0.0], [0.125, 0.375]])

    def test_post_injection_never_leaks_into_pre_blocks(self):
        for w in (1, 2, 3, 5):
            for effect in (1, 2, 4):
                assert drift_block_loadings(w, 1, effect)[0, 1] == 0.0

    def test_window_bounds_validated(self):
        with pytest.raises(ValueError):
            drift_block_loadings(0, 1, 1)


class TestExpectedBetas:
    def test_zero_gammas_zero_everywhere(self):
        config = dataclasses.replace(SMALL, gamma_pre=0.0, gamma_post=0.0, gamma_sup=0.0)
        for mode in ("own", "supplier", "client"):
            for polarity in ("positive", "negative"):
                for w in (1, 2, 5):
                    e = expected_betas(config, w, mode, polarity)
                    assert e.beta_pre == e.beta_post == 0.0

    def test_supplier_scales_with_gamma_ratio(self):
        config = dataclasses.replace(SMALL, edge_prob=0.0, n_firms=10**6, gamma_sup=0.09)
        own = expected_betas(config, 1, "own", "positive")
        sup = expected_betas(config, 1, "supplier", "positive")
        # symmetric supplier injection has no omitted-period projection, so
        # beta_pre = beta_post = gamma_sup at the population level
        assert sup.beta_pre == pytest.approx(0.09, abs=1e-6)
        assert sup.beta_post == pytest.approx(0.09, abs=1e-6)
        assert sup.beta_post < own.beta_post / 5.0

    def test_negative_polarity_mirrors_sign(self):
        e = expected_betas(SMALL, 1, "own", "negative")
        assert e.beta_pre < 0.0
        assert e.beta_post < e.beta_pre

    def test_projection_formula_against_monte_carlo(self):
        # brute-force the population regression the formula claims to solve
        rng = np.random.default_rng(991)
        n = 1_500_000
        alpha = SMALL.sentiment_alpha
        trip = rng.dirichlet(alpha, n)
        q = trip[:, 0]
        a_pre, a_post = 0.3, 0.9
        y = np.concatenate(
            [a_pre * (q - 0.5) + rng.normal(0, 0.5, n), a_post * (q - 0.5) + rng.normal(0, 0.5, n)]
        )
        u = np.concatenate([q, np.zeros(n)])
        v = np.concatenate([np.zeros(n), q])
        X = np.column_stack([u - u.mean(), v - v.mean()])
        beta = np.linalg.lstsq(X, y - y.mean(), rcond=None)[0]
        config = dataclasses.replace(
            SMALL, gamma_pre=a_pre, gamma_post=a_post, n_firms=10**9, edge_prob=0.0
        )
        e = expected_betas(config, 1, "own", "positive")
        assert beta[0] == pytest.approx(e.beta_pre, abs=3e-3)
        assert beta[1] == pytest.approx(e.beta_post, abs=3e-3)

    def test_pipeline_recovery_single_seed(self):
        config = SimConfig(
            n_firms=200,
            n_sectors=8,
            n_markets=2,
            n_days=200,
            edge_prob=0.02,
            news_rate=15.0,
            gamma_pre=0.3,
            gamma_post=0.9,
            gamma_sup=0.09,
            seed=20240901,
        )
        stores = simulate(config).stores()
        result = regress.fit(panel.build_panel(stores, "own", "positive", 1))
        e = expected_betas(config, 1, "own", "positive")
        assert abs(result.beta_pre - e.beta_pre) < 3.0 * result.se_pre
        assert abs(result.beta_post - e.beta_post) < 3.0 * result.se_post

    def test_sidecar_schema(self, tmp_path):
        out = tmp_path / "expected.csv"
        write_rows(out, EXPECTED_HEADER, expected_beta_rows(SMALL, [1, 5]))
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "mode,polarity,w,beta_pre,beta_post"
        assert len(lines) == 1 + 3 * 2 * 2

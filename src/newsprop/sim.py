"""Synthetic market generator with analytically known injected effects.

Generates firms, a shared trading calendar, log-random-walk prices, market
indices, single-mention news events with Dirichlet sentiment triples, and a
directed supply chain, then emits the whole bundle in the exact file schemas
the loaders accept. Every draw is reproducible: all generators are NumPy
PCG64 streams, and the seed feeds a root SeedSequence that is split, in this
fixed order, into

    0. registry stream   (sector assignment)
    1. edge stream       (supplier->client coin flips)
    2. market stream     (per-day market factors, one row per market)
    3. firm spawn        (one child stream per firm: idiosyncratic returns
                          first, then event count, event days, sentiment
                          triples, in that order)

so per-firm generation could run on any number of workers without changing a
single draw. The per-firm loop only draws; everything after it is array code.

Effect injection: an event about firm j with positiveness q adds
gamma_pre * (q - 0.5) / leak_window percent to j's daily log return on each
of the leak_window trading days before the anchor, and
gamma_post * (q - 0.5) / effect_window percent on each of the effect_window
trading days from the anchor on. Suppliers and clients of j receive the same
pattern with gamma_sup / gamma_cli replacing both direct coefficients. The
anchor is the event's trading position; weekend-dated events shift forward
exactly as the panel's anchor rule does. Injection is one array pass: every
event's anchor comes from one searchsorted, each firm's targets (itself, then
its suppliers, then its clients) are flat arrays expanded over the tradable
events with np.repeat, and the drifts go into the returns through unbuffered
np.add.at batches, which add in injection order, so every return gets the same
float additions as one slice-add per drift would give it.

``expected_betas`` turns a configuration into the coefficients the pooled
regression is expected to recover. Two pieces feed it:

* block loadings: the cumulated injected drift averaged inside each pre/post
  block of the position axis (for w >= 2 the log of the block's average
  price is linearized to the average of its log prices; exact for w = 1),
  in closed form, by counting for each injection day the block positions at
  or after it, so the cost does not grow with w;
* the population least-squares projection. Because the injected driver is
  centered (q - 0.5) while the regressor is the raw probability, the data
  contain a period-level term -A/2 per row that the intercept-free model
  omits; its projection onto the interactions shifts the expected
  coefficients and is included in closed form via the Dirichlet moments.

The market index averages every firm's log price, so it carries the event's
whole injected footprint (direct drift on the mentioned firm, propagated
drift on that firm's suppliers and clients) at weight 1/market size. The
fitted market-control coefficient converges to exactly 1, which subtracts
that footprint from the recovered signal; ``expected_betas`` nets it out to
first order in 1/market size and in edge_prob.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, fields
from itertools import repeat
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .csvio import write_rows
from .errors import SimConfigError
from .firms import FIRM_HEADER, FirmRecord
from .graph import EDGE_HEADER, SupplyChainNetwork
from .market import INDEX_HEADER, PRICE_HEADER, Series
from .panel import MODES, POLARITIES, Stores
from .sentiment import NEWS_HEADER, NewsEvent, NewsStore

BUNDLE_FILES = ("firms", "prices", "indices", "news", "edges")

_DRIFT_BATCH = 1 << 20  # expanded (firm, day) additions per np.add.at, at most


@dataclass(frozen=True)
class SimConfig:
    n_firms: int = 100
    n_sectors: int = 8
    n_markets: int = 2
    n_days: int = 180
    weekend_pattern: bool = True
    edge_prob: float = 0.01
    news_rate: float = 5.0
    sentiment_alpha: tuple[float, float, float] = (0.25, 0.25, 0.25)
    gamma_pre: float = 0.0
    gamma_post: float = 0.0
    gamma_sup: float = 0.0
    gamma_cli: float = 0.0
    market_vol: float = 0.008
    idio_vol: float = 0.01
    leak_window: int = 1
    effect_window: int = 1
    seed: int = 0
    start_date: dt.date = dt.date(2016, 1, 4)

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, float) and not math.isfinite(value):
                raise SimConfigError(f"{f.name} must be finite, got {value}")
        if self.n_firms < 1 or self.n_sectors < 1 or self.n_markets < 1:
            raise SimConfigError("n_firms, n_sectors, n_markets must be positive")
        if self.n_markets > self.n_firms:
            raise SimConfigError(
                "n_markets must be <= n_firms: every market needs at least one firm"
            )
        if self.leak_window < 1 or self.effect_window < 1:
            raise SimConfigError("leak_window and effect_window must be >= 1")
        if self.n_days < 4 * max(self.leak_window, self.effect_window):
            raise SimConfigError(
                f"n_days={self.n_days} cannot hold windows up to "
                f"{max(self.leak_window, self.effect_window)} days (need >= 4x)"
            )
        try:
            self.start_date + dt.timedelta(days=self.n_days - 1)
        except OverflowError:
            raise SimConfigError(
                f"start_date {self.start_date} plus n_days={self.n_days} runs past {dt.date.max}"
            ) from None
        if not 0.0 <= self.edge_prob <= 1.0:
            raise SimConfigError("edge_prob must lie in [0, 1]")
        if self.news_rate < 0.0:
            raise SimConfigError("news_rate must be nonnegative")
        if self.seed < 0:
            raise SimConfigError("seed must be nonnegative")
        if self.market_vol < 0.0 or self.idio_vol < 0.0:
            raise SimConfigError("volatilities must be nonnegative")
        alpha = self.sentiment_alpha
        if len(alpha) != 3 or not all(0.0 < a < math.inf for a in alpha):
            raise SimConfigError("sentiment_alpha must be three positive finite reals")


@dataclass
class SimBundle:
    """An in-memory dataset bundle plus writers for the five file schemas."""

    firm_records: list[FirmRecord]
    trading_dates: list[dt.date]
    prices: dict[str, Series]
    indices: dict[str, Series]
    events: list[NewsEvent]
    edges: list[tuple[int, str, str]]

    def stores(self) -> Stores:
        """Wrap the bundle as panel-ready stores without a file round trip."""
        by_year: dict[int, set[tuple[str, str]]] = {}
        for year, supplier, client in self.edges:
            by_year.setdefault(year, set()).add((supplier, client))
        return Stores(
            firms={r.firm_id: r for r in self.firm_records},
            prices=dict(self.prices),
            indices=dict(self.indices),
            news=NewsStore({e.news_id: e for e in self.events}),
            graph=SupplyChainNetwork(by_year),
        )

    def write(self, outdir) -> dict[str, Path]:
        """Emit firms/prices/indices/news/edges CSVs; returns path per file."""
        paths = {name: Path(outdir) / f"{name}.csv" for name in BUNDLE_FILES}
        write_rows(paths["firms"], FIRM_HEADER, self.firm_records)
        write_rows(paths["prices"], PRICE_HEADER, _series_rows(self.prices))
        write_rows(paths["indices"], INDEX_HEADER, _series_rows(self.indices))
        write_rows(paths["news"], NEWS_HEADER, (
            (e.news_id, e.date.isoformat(), firm_id, e.p_pos, e.p_neu, e.p_neg)
            for e in self.events
            for firm_id in sorted(e.mentions)
        ))
        write_rows(paths["edges"], EDGE_HEADER, self.edges)
        return paths


def _series_rows(store: dict[str, Series]):
    """(id, ISO date, value) rows, series by series in id order, each series'
    dates and values converted to Python objects in one call each."""
    for ident, series in sorted(store.items()):
        dates = np.datetime_as_string(series.dates).tolist()
        yield from zip(repeat(ident), dates, series.values.tolist())


def _concat_ranges(start: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges [start, start + length) laid end to end, as one int array."""
    slots = np.cumsum(lengths) - lengths  # each range's first slot in the result
    return np.arange(int(lengths.sum())) + np.repeat(start - slots, lengths)


def simulate(config: SimConfig) -> SimBundle:
    """Generate one dataset bundle, deterministically for a given seed."""
    config.validate()
    root = np.random.SeedSequence(config.seed)
    ss_registry, ss_edges, ss_market, ss_firms = root.spawn(4)

    n = config.n_firms
    firm_ids = [f"F{i:05d}" for i in range(n)]
    market_ids = [f"M{m:02d}" for m in range(config.n_markets)]
    rng_reg = np.random.default_rng(ss_registry)
    sectors = rng_reg.integers(0, config.n_sectors, size=n)
    firm_records = [
        FirmRecord(
            firm_id=firm_ids[i],
            market_id=market_ids[i % config.n_markets],
            sector_code=f"S{sectors[i]:02d}",
            country="SIM",
        )
        for i in range(n)
    ]

    rng_edges = np.random.default_rng(ss_edges)
    # one row of coin flips at a time: the same draws as one (n, n) draw,
    # without its n_firms^2 memory; edge k runs from supplier[k] to client[k]
    client_rows = []
    for i in range(n):
        row = rng_edges.random(n) < config.edge_prob
        row[i] = False
        client_rows.append(np.flatnonzero(row))
    supplier = np.repeat(np.arange(n), [len(c) for c in client_rows])
    client = np.concatenate(client_rows)
    edges = [(config.start_date.year, firm_ids[s], firm_ids[c])
             for s, c in zip(supplier.tolist(), client.tolist())]

    start = np.datetime64(config.start_date, "D")
    date_index = start + np.arange(config.n_days)
    if config.weekend_pattern:
        date_index = date_index[np.is_busday(date_index)]
    n_trading = len(date_index)

    rng_market = np.random.default_rng(ss_market)
    market_factor = rng_market.normal(0.0, config.market_vol, size=(config.n_markets, n_trading))

    returns = np.empty((n, n_trading))
    event_offsets = []  # per firm, its events' day offsets from start_date
    event_triples = []  # per firm, its events' (p_pos, p_neu, p_neg) rows
    for i, child in enumerate(ss_firms.spawn(n)):
        rng = np.random.default_rng(child)
        returns[i] = rng.normal(0.0, config.idio_vol, size=n_trading)
        n_events = int(rng.poisson(config.news_rate))
        event_offsets.append(rng.integers(0, config.n_days, size=n_events))
        event_triples.append(rng.dirichlet(config.sentiment_alpha, size=n_events))
    returns += market_factor[np.arange(n) % config.n_markets]

    # events in serial order: firm by firm, each firm's in draw order
    event_firm = np.repeat(np.arange(n), [len(o) for o in event_offsets])
    event_day = start + np.concatenate(event_offsets)
    triples = np.concatenate(event_triples)
    news_events = [
        NewsEvent(
            news_id=f"N{serial:07d}",
            date=date,
            mentions=frozenset({firm_ids[i]}),
            p_pos=p_pos,
            p_neu=p_neu,
            p_neg=p_neg,
        )
        for serial, (i, date, (p_pos, p_neu, p_neg)) in enumerate(
            zip(event_firm.tolist(), event_day.tolist(), triples.tolist())
        )
    ]

    # an event injects into its firm, then the firm's suppliers, then its
    # clients: each target adds a pre drift to returns[target, anchor-leak:anchor]
    # and a post drift to returns[target, anchor:anchor+effect], clipped to the
    # calendar. Events disclosed after the horizon have no tradable reaction.
    # Each firm's targets are one run of the target arrays: a stable sort by
    # (firm, kind) keeps the edge order inside each kind.
    owner = np.concatenate((np.arange(n), client, supplier))  # the firm whose events reach it
    kind = np.repeat([0, 1, 2], [n, len(supplier), len(client)])  # self, supplier, client
    order = np.lexsort((kind, owner))
    target_firm = np.concatenate((np.arange(n), supplier, client))[order]
    gammas = np.array([  # (pre, post) coefficients per kind
        [config.gamma_pre, config.gamma_post],
        [config.gamma_sup, config.gamma_sup],
        [config.gamma_cli, config.gamma_cli],
    ])
    target_pre, target_post = gammas[kind[order]].T
    n_targets = np.bincount(owner, minlength=n)
    first_target = np.cumsum(n_targets) - n_targets

    anchor = np.searchsorted(date_index, event_day, side="left")
    tradable = anchor < n_trading
    source, anchor, q = event_firm[tradable], anchor[tradable], triples[tradable, 0]
    reps = n_targets[source]
    # expanded (firm, day) additions, at most, up to and including each tradable event
    expanded = np.cumsum(reps) * (config.leak_window + config.effect_window)

    # The injections are applied in batches of whole events by one unbuffered
    # np.add.at each, which adds in index order, so every element gets the
    # same float additions in the same order as one slice-add per drift in
    # injection order would give it. Batches keep the expanded arrays small.
    lo = 0
    while lo < len(reps):
        done = int(expanded[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(expanded, done + _DRIFT_BATCH, side="right")))
        k = _concat_ranges(first_target[source[lo:hi]], reps[lo:hi])  # into the targets
        drift_q = np.repeat(q[lo:hi], reps[lo:hi]) - 0.5
        # coefficients are percent per day; returns are in log units
        drift_pre = target_pre[k] * drift_q / (100.0 * config.leak_window)
        drift_post = target_post[k] * drift_q / (100.0 * config.effect_window)
        drift_anchor = np.repeat(anchor[lo:hi], reps[lo:hi])
        pre_lo = np.maximum(drift_anchor - config.leak_window, 0)
        post_hi = np.minimum(drift_anchor + config.effect_window, n_trading)
        # [start, stop) day spans, each injection's pre drift then its post drift
        span_start = np.column_stack((pre_lo, drift_anchor)).ravel()
        lengths = np.column_stack((drift_anchor, post_hi)).ravel() - span_start
        days = _concat_ranges(span_start, lengths)
        rows = np.repeat(np.repeat(target_firm[k], 2), lengths)
        values = np.repeat(np.column_stack((drift_pre, drift_post)).ravel(), lengths)
        np.add.at(returns, (rows, days), values)
        lo = hi

    log_prices = np.log(100.0) + np.cumsum(returns, axis=1)
    prices = {firm_ids[i]: Series(date_index.copy(), np.exp(log_prices[i])) for i in range(n)}
    indices = {}
    for m, market_id in enumerate(market_ids):
        members = np.arange(m, n, config.n_markets)
        indices[market_id] = Series(date_index.copy(), np.exp(log_prices[members].mean(axis=0)))

    return SimBundle(
        firm_records=firm_records,
        trading_dates=date_index.tolist(),
        prices=prices,
        indices=indices,
        events=news_events,
        edges=sorted(edges),
    )


# ---------------------------------------------------------------------------
# analytic expectations


class ExpectedBetas(NamedTuple):
    """One expected-coefficient cell; the field order is the sidecar's column order."""

    mode: str
    polarity: str
    w: int
    beta_pre: float
    beta_post: float


EXPECTED_HEADER = ExpectedBetas._fields


def drift_block_loadings(w: int, leak_window: int, effect_window: int) -> np.ndarray:
    """Per-unit-gamma drift loadings of the pre/post changes, in closed form.

    Returns a 2x2 matrix M with rows (pre change, post change) and columns
    (gamma_pre, gamma_post): the expected windowed change in percent per day
    contributed by a unit gamma at unit centered positiveness. Positions are
    relative to the anchor at 0, blocks are A = [-2w, -w), B = [-w, 0) and
    C = [0, w), and the leak days are [-leak_window, 0) and the effect days
    [0, effect_window). Daily log drift of an injection day is
    1 / (100 * window length), and a block's log mean collects every
    injection day at or before each of its positions. So a block's summed
    drift is the count, over injection days, of block positions at or after
    the day, over 100 * window length: integer work in the window lengths,
    none in w, and each loading is one correctly rounded integer ratio.
    """
    if w < 1 or leak_window < 1 or effect_window < 1:
        raise ValueError("windows must be >= 1")

    def positions_at_or_after(days: range, lo: int, hi: int) -> int:
        return sum(max(0, hi - max(lo, d)) for d in days)

    loadings = np.zeros((2, 2))
    for col, days in enumerate((range(-leak_window, 0), range(0, effect_window))):
        a, b, c = (positions_at_or_after(days, lo, lo + w) for lo in (-2 * w, -w, 0))
        # 100 * (mean_b - mean_a) / w with mean = count / (100 * len(days) * w)
        loadings[0, col] = (b - a) / (len(days) * w * w)
        loadings[1, col] = (c - b) / (len(days) * w * w)
    return loadings


def _dirichlet_moments(alpha: Sequence[float], polarity: str) -> tuple[float, float, float]:
    """(E r, E r^2, E r*s) where r is the regressed probability, s = p_pos."""
    a_pos, a_neu, a_neg = alpha
    a0 = a_pos + a_neu + a_neg
    a_r = a_pos if polarity == "positive" else a_neg
    mu_r = a_r / a0
    m2_r = a_r * (a_r + 1.0) / (a0 * (a0 + 1.0))
    if polarity == "positive":
        m_rs = m2_r
    else:
        m_rs = a_pos * a_neg / (a0 * (a0 + 1.0))
    return mu_r, m2_r, m_rs


def expected_betas(config: SimConfig, w: int, mode: str, polarity: str) -> ExpectedBetas:
    """Closed-form expected regression coefficients for one configuration.

    Derivation (population, balanced pre/post rows, sector means equal
    population means): with drift slopes A_pre, A_post per unit (q - 0.5),
    each row satisfies

        y = A_pre * PRE * (s - 1/2) + A_post * POST * (s - 1/2) + noise

    while the model regresses y on u = PRE*r and v = POST*r (r = regressed
    probability, s = positiveness). Solving the 2x2 population normal
    equations, with the omitted +-A/2 period term projected in, gives

        beta_pre + beta_post = (A_pre + A_post) * Cov(r, s) / Var(r)
        beta_pre - beta_post = (A_pre - A_post) * (E[rs] - E[r]/2) / E[r^2]

    All moments are Dirichlet closed forms.

    The drift slopes net out the index footprint: for a row exposed through
    firm i, the index of i's market averages in the event's direct drift
    (when the mentioned firm shares the market, probability 1/n_markets; the
    mentioned firm itself in own mode), i's own drift, and the drift of the
    event's other propagation targets that land in the market (expected
    count edge_prob * (n_firms - 1) / n_markets per side). Each enters at
    weight 1/market size and is subtracted in full because the market-control
    coefficient converges to 1. Dual supplier-and-client links are second
    order in edge_prob and ignored.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if polarity not in POLARITIES:
        raise ValueError(f"unknown polarity {polarity!r}")

    loadings = drift_block_loadings(w, config.leak_window, config.effect_window)
    direct = loadings @ np.array([config.gamma_pre, config.gamma_post])
    sup = loadings @ np.array([config.gamma_sup, config.gamma_sup])
    cli = loadings @ np.array([config.gamma_cli, config.gamma_cli])

    market_size = config.n_firms / config.n_markets
    neighbors_in_market = config.edge_prob * (config.n_firms - 1) / config.n_markets
    if mode == "own":
        signal = direct
        footprint = direct + neighbors_in_market * (sup + cli)
    elif mode == "supplier":
        signal = sup
        footprint = direct / config.n_markets + (1.0 + neighbors_in_market) * sup
        footprint = footprint + neighbors_in_market * cli
    else:
        signal = cli
        footprint = direct / config.n_markets + (1.0 + neighbors_in_market) * cli
        footprint = footprint + neighbors_in_market * sup
    a_pre, a_post = signal - footprint / market_size

    mu_r, m2_r, m_rs = _dirichlet_moments(config.sentiment_alpha, polarity)
    mu_s = config.sentiment_alpha[0] / sum(config.sentiment_alpha)
    var_r = m2_r - mu_r**2
    cov_rs = m_rs - mu_r * mu_s

    total = (a_pre + a_post) * cov_rs / var_r
    gap = (a_pre - a_post) * (m_rs - mu_r / 2.0) / m2_r
    return ExpectedBetas(
        mode=mode,
        polarity=polarity,
        w=w,
        beta_pre=(total + gap) / 2.0 + 0.0,  # + 0.0 normalizes negative zero
        beta_post=(total - gap) / 2.0 + 0.0,
    )


def expected_beta_rows(config: SimConfig, windows: Sequence[int]) -> list[ExpectedBetas]:
    """The expected-coefficient sidecar's rows, one per mode/polarity/window cell."""
    return [expected_betas(config, w, mode, polarity)
            for mode in MODES for polarity in POLARITIES for w in windows]

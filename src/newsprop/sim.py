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

A ``SimBundle`` is the simulator's columns: per firm its id, sector and
market, the closes as one (firm, trading day) array, the index values, per
event its id, day, firm and triple, and per link its supplier and client.
``stores()`` hands them to ``panel.Stores.from_columns``, which codes them.
Every public form is made from them only on request: ``firm_records``,
``prices`` and ``indices`` (``Series`` over rows of the closes), ``edges``,
``events`` (a view that makes each ``NewsEvent`` when it is read), and the five
``Stores`` arguments of ``inputs()``. ``write`` writes the files from them,
the closes row by row in id order, the one calendar turned to text once.

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
events with np.repeat, and each injection's leak days and effect days, which
meet at the anchor, are one run of flat indices into the returns. The drifts
go in through unbuffered np.add.at batches, which add in injection order, so
every return gets the same float additions as one slice-add per drift would.

A kind of target (the firm itself, its suppliers, its clients) whose pre and
post coefficients are both zero gets no injections at all, and that moves no
close: each of its drifts is 0.0 or -0.0, and x + ±0.0 is x bit for bit except
that -0.0 + 0.0 is 0.0. Skipping them can at most flip the sign of a zero
return or partial sum, and a zero's sign cannot reach a close,
exp(log(100) + cumsum(returns)): a zero added to a partial sum leaves its
value, and log(100) + ±0.0 is log(100).

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
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .csvio import write_rows
from .firms import FIRM_HEADER, FirmRecord
from .graph import EDGE_HEADER, SupplyChainNetwork
from .market import INDEX_HEADER, PRICE_HEADER, Series, check_window
from .panel import BUNDLE_FILES, MODES, POLARITIES, Stores, concat_ranges
from .sentiment import NEWS_HEADER, NewsEvent, NewsStore

_DRIFT_BATCH = 1 << 20  # expanded (firm, day) additions per np.add.at, at most
_FLIP_BATCH = 1 << 17  # edge coin flips per draw, at most, unless one row holds more
# the largest settings numpy's draws take: Poisson's lam (its POISSON_LAM_MAX),
# and the exclusive high of an int64 rng.integers
_MAX_NEWS_RATE = float(np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10)
_MAX_SECTORS = int(np.iinfo(np.int64).max) + 1


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
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.n_firms < 1 or self.n_sectors < 1 or self.n_markets < 1:
            raise ValueError("n_firms, n_sectors, n_markets must be positive")
        if self.n_markets > self.n_firms:
            raise ValueError(
                "n_markets must be <= n_firms: every market needs at least one firm"
            )
        if self.leak_window < 1 or self.effect_window < 1:
            raise ValueError("leak_window and effect_window must be >= 1")
        if self.n_days < 4 * max(self.leak_window, self.effect_window):
            raise ValueError(
                f"n_days={self.n_days} cannot hold windows up to "
                f"{max(self.leak_window, self.effect_window)} days (need >= 4x)"
            )
        try:
            self.start_date + dt.timedelta(days=self.n_days - 1)
        except OverflowError:
            raise ValueError(
                f"start_date {self.start_date} plus n_days={self.n_days} runs past {dt.date.max}"
            ) from None
        if not 0.0 <= self.edge_prob <= 1.0:
            raise ValueError("edge_prob must lie in [0, 1]")
        if self.news_rate < 0.0:
            raise ValueError("news_rate must be nonnegative")
        if self.news_rate > _MAX_NEWS_RATE:
            raise ValueError(f"news_rate must be <= {_MAX_NEWS_RATE:g}, numpy's Poisson limit")
        if self.n_sectors > _MAX_SECTORS:
            raise ValueError(f"n_sectors must be <= {_MAX_SECTORS}, the int64 draw limit")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.market_vol < 0.0 or self.idio_vol < 0.0:
            raise ValueError("volatilities must be nonnegative")
        alpha = self.sentiment_alpha
        if len(alpha) != 3 or not all(0.0 < a < math.inf for a in alpha):
            raise ValueError("sentiment_alpha must be three positive finite reals")


class SimEvents(Sequence[NewsEvent]):
    """A view of a bundle's events in serial order (news_id order up to 10**7
    events), each ``NewsEvent`` made from the bundle's columns when it is read;
    a slice reads a list of them. Every event mentions one firm, and the view's
    events of one firm share that firm's one mention set."""

    def __init__(self, bundle: SimBundle):
        self._bundle = bundle

    def __len__(self) -> int:
        return len(self._bundle.event_firm)

    @cached_property
    def _mentions(self) -> list[frozenset[str]]:
        return [frozenset((firm_id,)) for firm_id in self._bundle.firm_id.tolist()]

    def __getitem__(self, k: int | slice) -> NewsEvent | list[NewsEvent]:
        if isinstance(k, slice):
            return list(self._make(k))
        at = range(len(self))[k]  # an IndexError past either end
        return next(self._make(slice(at, at + 1)))

    def __iter__(self):
        return self._make(slice(None))

    def _make(self, rows: slice):
        b = self._bundle
        return map(NewsEvent._make, zip(b.news_id[rows].tolist(), b.event_day[rows].tolist(),
                                        map(self._mentions.__getitem__, b.event_firm[rows].tolist()),
                                        *b.triples[rows].T.tolist()))


@dataclass(eq=False)
class SimBundle:
    """An in-memory dataset bundle: the simulator's columns, the public forms
    made from them on request, and writers for the five file schemas."""

    firm_id: np.ndarray  # str, per firm in serial order
    sector: np.ndarray  # str, per firm
    market: np.ndarray  # str, per firm
    index_id: np.ndarray  # str, per market
    calendar: np.ndarray  # datetime64[D], read-only: every series' dates
    closes: np.ndarray  # (n_firms, n_trading) float64
    index_closes: np.ndarray  # (n_markets, n_trading) float64
    news_id: np.ndarray  # str, per event in serial order, which is id order up to 10**7 events
    event_day: np.ndarray  # datetime64[D]
    event_firm: np.ndarray  # int64, the one firm each event mentions
    triples: np.ndarray  # (n_events, 3) float64: p_pos, p_neu, p_neg
    edge_year: int  # the one snapshot year of every link
    supplier: np.ndarray  # int64, per link in (supplier, client) order
    client: np.ndarray  # int64

    @property
    def events(self) -> SimEvents:
        return SimEvents(self)

    @cached_property
    def firm_records(self) -> list[FirmRecord]:
        return list(map(FirmRecord, self.firm_id.tolist(), self.market.tolist(), self.sector.tolist(),
                        repeat("SIM")))

    @cached_property
    def prices(self) -> dict[str, Series]:
        return dict(zip(self.firm_id.tolist(), map(Series, repeat(self.calendar), self.closes)))

    @cached_property
    def indices(self) -> dict[str, Series]:
        return dict(zip(self.index_id.tolist(), map(Series, repeat(self.calendar), self.index_closes)))

    @cached_property
    def edges(self) -> list[tuple[int, str, str]]:
        return sorted(zip(repeat(self.edge_year), self.firm_id[self.supplier].tolist(),
                          self.firm_id[self.client].tolist()))

    def inputs(self) -> dict:
        """The five ``Stores`` arguments, as the loaders would give them."""
        links = zip(self.firm_id[self.supplier].tolist(), self.firm_id[self.client].tolist())
        return dict(
            firms={r.firm_id: r for r in self.firm_records},
            prices=self.prices,
            indices=self.indices,
            news=NewsStore({e.news_id: e for e in self.events}),
            graph=SupplyChainNetwork({self.edge_year: links} if len(self.supplier) else {}),
        )

    def stores(self) -> Stores:
        """The bundle's columns coded into panel-ready stores, with no public form made."""
        n_series = len(self.firm_id) + len(self.index_id)
        return Stores.from_columns(
            news_id=self.news_id, day=self.event_day, p_pos=self.triples[:, 0], p_neg=self.triples[:, 2],
            mention=np.vstack((np.arange(len(self.event_firm)), self.event_firm)),
            firm_id=self.firm_id, sector=self.sector, market=self.market,
            registered=np.ones(len(self.firm_id), dtype=bool),
            years=np.array([self.edge_year] if len(self.supplier) else [], dtype=np.int64),
            edge=np.vstack((np.zeros_like(self.supplier), self.supplier, self.client)),
            price_id=self.firm_id.tolist(), index_id=self.index_id.tolist(),
            length=np.full(n_series, len(self.calendar)), days=np.tile(self.calendar, n_series),
            values=np.concatenate((self.closes.ravel(), self.index_closes.ravel())),
        )

    def write(self, outdir) -> dict[str, Path]:
        """Emit firms/prices/indices/news/edges CSVs; returns path per file."""
        paths = {name: Path(outdir) / f"{name}.csv" for name in BUNDLE_FILES}
        write_rows(paths["firms"], FIRM_HEADER, self.firm_records)
        dates = np.datetime_as_string(self.calendar).tolist()  # every series' dates, as text
        for name, header, ids, closes in (("prices", PRICE_HEADER, self.firm_id, self.closes),
                                          ("indices", INDEX_HEADER, self.index_id, self.index_closes)):
            # (id, ISO date, value) rows, series by series in id order
            order, ids = np.argsort(ids, kind="stable").tolist(), ids.tolist()
            write_rows(paths[name], header, chain.from_iterable(
                zip(repeat(ids[k]), dates, closes[k].tolist()) for k in order))
        write_rows(paths["news"], NEWS_HEADER, zip(
            self.news_id.tolist(), np.datetime_as_string(self.event_day).tolist(),
            self.firm_id[self.event_firm].tolist(), *self.triples.T.tolist()))
        write_rows(paths["edges"], EDGE_HEADER, self.edges)
        return paths


def _serial_ids(letter: str, n: int, digits: int) -> np.ndarray:
    """``f"{letter}{k:0{digits}d}"`` for k in range(n), as one str array. Up to
    10 ** digits ids, it is made from code points: formatting thousands of ids
    one by one takes ten times as long."""
    if not 0 < n <= 10 ** digits:
        return np.array([f"{letter}{k:0{digits}d}" for k in range(n)], dtype=str)
    points = np.empty((n, 1 + digits), dtype=np.uint32)
    points[:, 0] = ord(letter)
    k = np.arange(n)
    for j in range(digits, 0, -1):
        k, points[:, j] = np.divmod(k, 10)
    points[:, 1:] += ord("0")
    return points.view(f"U{1 + digits}").ravel()


def simulate(config: SimConfig) -> SimBundle:
    """Generate one dataset bundle, deterministically for a given seed."""
    config.validate()
    root = np.random.SeedSequence(config.seed)
    ss_registry, ss_edges, ss_market, ss_firms = root.spawn(4)

    n = config.n_firms
    firm_id = _serial_ids("F", n, 5)
    market_id = _serial_ids("M", config.n_markets, 2)
    rng_reg = np.random.default_rng(ss_registry)
    sectors = rng_reg.integers(0, config.n_sectors, size=n)

    rng_edges = np.random.default_rng(ss_edges)
    # coin flips a block of whole rows at a time: the same draws as one (n, n)
    # draw, without its n_firms^2 memory; edge k runs from supplier[k] to client[k]
    rows = max(1, _FLIP_BATCH // n)
    blocks = []
    for lo in range(0, n, rows):
        flips = rng_edges.random((min(rows, n - lo), n)) < config.edge_prob
        flips.reshape(-1)[lo::n + 1] = False  # no firm supplies itself
        blocks.append(np.flatnonzero(flips) + lo * n)
    supplier, client = np.divmod(np.concatenate(blocks), n)

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

    # an event injects into its firm, then the firm's suppliers, then its
    # clients: each target adds a pre drift to returns[target, anchor-leak:anchor]
    # and a post drift to returns[target, anchor:anchor+effect], clipped to the
    # calendar. Events disclosed after the horizon have no tradable reaction.
    # A kind whose two coefficients are zero has no targets (module docstring).
    # Each firm's targets are one run of the target arrays: a stable sort by
    # (firm, kind) keeps the edge order inside each kind.
    gammas = np.array([  # (pre, post) coefficients per kind
        [config.gamma_pre, config.gamma_post],
        [config.gamma_sup, config.gamma_sup],
        [config.gamma_cli, config.gamma_cli],
    ])
    kinds = np.flatnonzero(gammas.any(axis=1))  # of self, supplier, client
    # per kind, the firm whose events reach a target, then the target
    ends = [(np.arange(n), np.arange(n)), (client, supplier), (supplier, client)]
    owner = np.concatenate([np.empty(0, np.int64), *(ends[k][0] for k in kinds)])
    kind = np.repeat(kinds, [len(ends[k][0]) for k in kinds])
    order = np.lexsort((kind, owner))
    target_firm = np.concatenate([np.empty(0, np.int64), *(ends[k][1] for k in kinds)])[order]
    target_pre, target_post = gammas[kind[order]].T
    n_targets = np.bincount(owner, minlength=n)
    first_target = np.cumsum(n_targets) - n_targets

    anchor = np.searchsorted(date_index, event_day, side="left")
    tradable = anchor < n_trading
    source, anchor, q = event_firm[tradable], anchor[tradable], triples[tradable, 0]
    reps = n_targets[source]
    # expanded (firm, day) additions, at most, up to and including each tradable event
    expanded = np.cumsum(reps) * (config.leak_window + config.effect_window)

    # The injections are applied in batches of whole events, each by one
    # unbuffered np.add.at on a flat view of returns, which adds in index order:
    # every element gets the same float additions in the same order as one
    # slice-add per drift in injection order. Batches keep the arrays small.
    lo = 0
    while lo < len(reps):
        done = int(expanded[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(expanded, done + _DRIFT_BATCH, side="right")))
        k = concat_ranges(first_target[source[lo:hi]], reps[lo:hi])  # into the targets
        drift_q = np.repeat(q[lo:hi], reps[lo:hi]) - 0.5
        # coefficients are percent per day; returns are in log units
        drift_pre = target_pre[k] * drift_q / (100.0 * config.leak_window)
        drift_post = target_post[k] * drift_q / (100.0 * config.effect_window)
        drift_anchor = np.repeat(anchor[lo:hi], reps[lo:hi])
        pre_lo = np.maximum(drift_anchor - config.leak_window, 0)
        post_hi = np.minimum(drift_anchor + config.effect_window, n_trading)
        # an injection's pre days end where its post days start: one run of flat
        # indices [pre_lo, post_hi) on its target's row, pre drift then post drift
        index = concat_ranges(target_firm[k] * n_trading + pre_lo, post_hi - pre_lo)
        values = np.repeat(np.column_stack((drift_pre, drift_post)).ravel(),
                           np.column_stack((drift_anchor - pre_lo, post_hi - drift_anchor)).ravel())
        np.add.at(returns.reshape(-1), index, values)
        lo = hi

    log_prices = np.log(100.0) + np.cumsum(returns, axis=1)
    date_index.flags.writeable = False  # one calendar, shared by every series
    return SimBundle(
        firm_id=firm_id,
        sector=np.array([f"S{sector:02d}" for sector in sectors.tolist()]),
        market=market_id[np.arange(n) % config.n_markets],
        index_id=market_id,
        calendar=date_index,
        closes=np.exp(log_prices),
        index_closes=np.array([np.exp(log_prices[np.arange(m, n, config.n_markets)].mean(axis=0))
                               for m in range(config.n_markets)]),
        news_id=_serial_ids("N", len(event_firm), 7),
        event_day=event_day,
        event_firm=event_firm,
        triples=triples,
        edge_year=config.start_date.year,
        supplier=supplier,
        client=client,
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
    check_window(w)
    if leak_window < 1 or effect_window < 1:
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
        beta_pre=float((total + gap) / 2.0 + 0.0),  # + 0.0 normalizes negative zero
        beta_post=float((total - gap) / 2.0 + 0.0),
    )


def expected_beta_rows(config: SimConfig, windows: Sequence[int]) -> list[ExpectedBetas]:
    """The expected-coefficient sidecar's rows, one per mode/polarity/window cell."""
    return [expected_betas(config, w, mode, polarity)
            for mode in MODES for polarity in POLARITIES for w in windows]

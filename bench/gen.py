"""Seeded input bundles for the ``grid`` and ``ingest`` workloads.

NumPy only, and independent of ``newsprop.sim``: a simulator change can never
alter these inputs. The generator plants the properties of real inputs that
the engine branches on:

* market holidays and per-firm missing quotes (gaps on the position axis);
* articles dated on weekends and holidays (forward anchoring);
* articles that mention several firms (shared exposure, own-mention exclusion);
* several yearly supply-chain snapshots with hub-skewed degrees, and articles
  dated before the first snapshot (``no-snapshot`` drops);
* a few firms without a sector, without quotes, or absent from the registry
  (``missing-sector``, ``price-window`` and ``unknown-firm`` drops).

A dirty bundle also carries a known count of malformed rows per file and
rejection reason, so the loaders' audit can be checked exactly.
"""

from __future__ import annotations

import datetime as dt
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FILES = ("firms", "prices", "indices", "news", "edges")
HOLIDAY_RATE = 0.02  # share of weekdays a market is closed
MISSING_RATE = 0.01  # share of open days a firm has no quote


@dataclass(frozen=True)
class Spec:
    n_firms: int
    n_markets: int
    n_sectors: int
    start: dt.date  # first calendar day
    n_days: int  # calendar days covered by quotes and articles
    snapshot_years: tuple[int, ...]
    n_articles: int
    edges_per_year: int
    # planted malformed rows as (file, reason, count); empty for a clean bundle.
    # Reasons: duplicate, bad_date, off_simplex (news), wrong_columns.
    dirty: tuple[tuple[str, str, int], ...] = ()


# Short history, dense news and a wide supply chain: panel assembly dominates.
GRID = Spec(
    n_firms=150, n_markets=2, n_sectors=10, start=dt.date(2017, 11, 1), n_days=516,
    snapshot_years=(2018, 2019), n_articles=1600, edges_per_year=180,
)

# Long history and sparse news: the loaders dominate.
INGEST = Spec(
    n_firms=160, n_markets=3, n_sectors=12, start=dt.date(2008, 1, 1), n_days=3653,
    snapshot_years=tuple(range(2010, 2018)), n_articles=500, edges_per_year=300,
    dirty=(
        ("firms", "duplicate", 3),
        ("prices", "duplicate", 40),
        ("prices", "bad_date", 30),
        ("prices", "wrong_columns", 20),
        ("news", "duplicate", 10),
        ("news", "bad_date", 10),
        ("news", "off_simplex", 15),
        ("news", "wrong_columns", 10),
    ),
)

SPECS = {"grid": GRID, "ingest": INGEST}


@dataclass
class Bundle:
    """File texts keyed by name, the planted rejections and the input sizes."""

    texts: dict[str, str]
    planted: dict[tuple[str, str], int]
    sizes: dict[str, int]

    def write(self, outdir: Path) -> None:
        """Write the five CSVs, plus ``bundle.json`` (planted counts and sizes),
        which the benchmark reads and the program never sees."""
        outdir.mkdir(parents=True, exist_ok=True)
        for name in FILES:
            (outdir / f"{name}.csv").write_text(self.texts[name], encoding="utf-8")
        planted = {f"{name}/{reason}": count for (name, reason), count in self.planted.items()}
        sidecar = {"planted": planted, "sizes": self.sizes}
        (outdir / "bundle.json").write_text(json.dumps(sidecar, sort_keys=True), encoding="utf-8")


def _lines(header: str, rows: list[str]) -> str:
    return header + "\n" + "\n".join(rows) + "\n"


def _insert_copies(rng, rows: list[str], count: int) -> list[str]:
    """Repeat ``count`` distinct rows, each right after its original."""
    picks = set(rng.choice(len(rows), size=count, replace=False).tolist())
    out = []
    for i, row in enumerate(rows):
        out.append(row)
        if i in picks:
            out.append(row)
    return out


def _scatter(rng, rows: list[str], extra: list[str]) -> list[str]:
    """Insert ``extra`` rows at seeded positions, keeping both orders."""
    slots = np.sort(rng.integers(0, len(rows) + 1, size=len(extra)))
    out, last = [], 0
    for slot, row in zip(slots.tolist(), extra):
        out.extend(rows[last:slot])
        out.append(row)
        last = slot
    out.extend(rows[last:])
    return out


def _zipf(size_rank: np.ndarray, exponent: float) -> np.ndarray:
    """Weights of a fixed Zipf shape, by each firm's size rank.

    News attention and supply-chain degree both follow firm size, as in real
    markets. A fixed shape keeps the amount of work steady from seed to seed:
    weights drawn from a heavy tail, or news and hubs on unrelated firms,
    would let one seed's hubs set the run time.
    """
    weights = 1.0 / (size_rank + 2.0) ** exponent
    return weights / weights.sum()


def generate(spec: Spec, seed: int) -> Bundle:
    """Build one bundle; the same (spec, seed) always gives the same bytes."""
    rng = np.random.default_rng([seed, spec.n_firms, spec.n_days])
    n = spec.n_firms
    firm_ids = [f"F{i:04d}" for i in range(n)]
    market_ids = [f"M{m}" for m in range(spec.n_markets)]
    firm_market = rng.integers(0, spec.n_markets, size=n)
    firm_market[: spec.n_markets] = np.arange(spec.n_markets)  # no empty market
    sectors = [f"S{s:02d}" for s in rng.integers(0, spec.n_sectors, size=n)]
    no_sector = {n - 1, n - 2}
    no_quotes = {n - 3}

    # calendar: weekdays, minus per-market holidays, minus per-firm missing quotes
    days = [spec.start + dt.timedelta(days=k) for k in range(spec.n_days)]
    day_text = [d.isoformat() for d in days]
    weekday = np.array([d.weekday() < 5 for d in days])
    open_mask = weekday[None, :] & (rng.random((spec.n_markets, spec.n_days)) >= HOLIDAY_RATE)
    quoted = open_mask[firm_market] & (rng.random((n, spec.n_days)) >= MISSING_RATE)

    market_ret = rng.normal(0.0, 0.008, size=(spec.n_markets, spec.n_days))
    firm_ret = rng.normal(0.0, 0.012, size=(n, spec.n_days)) + market_ret[firm_market]
    base = rng.lognormal(np.log(40.0), 0.8, size=n)
    log_px = np.log(base)[:, None] + np.cumsum(np.where(weekday, firm_ret, 0.0), axis=1)
    closes = np.exp(log_px)

    firm_rows = [
        f"{firm_ids[i]},{market_ids[firm_market[i]]},{'' if i in no_sector else sectors[i]},XX"
        for i in range(n)
    ]
    price_rows = []
    for i in range(n):
        if i in no_quotes:
            continue
        fid = firm_ids[i]
        price_rows += [f"{fid},{day_text[k]},{closes[i, k]:.4f}" for k in np.flatnonzero(quoted[i])]
    index_rows = []
    for m, market_id in enumerate(market_ids):
        members = np.flatnonzero(firm_market == m)
        level = 1000.0 * np.exp((log_px[members] - np.log(base[members])[:, None]).mean(axis=0))
        index_rows += [f"{market_id},{day_text[k]},{level[k]:.4f}" for k in np.flatnonzero(open_mask[m])]

    # articles: any calendar day, Zipf-like firm popularity, 1-3 mentions
    size_rank = rng.permutation(n)
    popularity = _zipf(size_rank, 0.3)
    article_day = np.sort(rng.integers(0, spec.n_days, size=spec.n_articles))
    n_mentions = rng.choice([1, 2, 3], size=spec.n_articles, p=[0.75, 0.18, 0.07])
    triples = rng.dirichlet((0.25, 0.25, 0.25), size=spec.n_articles)
    news_rows = []
    for a in range(spec.n_articles):
        mentioned = sorted(rng.choice(n, size=n_mentions[a], replace=False, p=popularity).tolist())
        p = triples[a]
        date = day_text[article_day[a]]
        for i in mentioned:
            news_rows.append(f"N{a:06d},{date},{firm_ids[i]},{p[0]:.12g},{p[1]:.12g},{p[2]:.12g}")

    # supply chain: hub-skewed degrees, 80% of links persist into the next year
    out_w = _zipf(size_rank, 0.8)
    in_w = _zipf(size_rank, 0.8)
    edge_rows = []
    links: set[tuple[str, str]] = set()
    for year in spec.snapshot_years:
        keep = rng.random(len(links)) < 0.8
        links = {link for link, k in zip(sorted(links), keep) if k}
        while len(links) < spec.edges_per_year:
            s = rng.choice(n, p=out_w, size=64)
            c = rng.choice(n, p=in_w, size=64)
            for si, ci in zip(s.tolist(), c.tolist()):
                if si != ci and len(links) < spec.edges_per_year:
                    links.add((firm_ids[si], firm_ids[ci]))
        # partners missing from the registry (delisted or foreign)
        links |= {(f"U{k:03d}", firm_ids[int(rng.integers(n))]) for k in range(2)}
        links |= {(firm_ids[int(rng.integers(n))], f"U{k + 2:03d}") for k in range(2)}
        edge_rows += [f"{year},{s},{c}" for s, c in sorted(links)]

    rows = {"firms": firm_rows, "prices": price_rows, "indices": index_rows,
            "news": news_rows, "edges": edge_rows}
    planted = {}
    for name, reason, count in spec.dirty:
        planted[(name, reason)] = count
        if reason == "duplicate":
            rows[name] = _insert_copies(rng, rows[name], count)
            continue
        year = spec.start.year
        if name == "prices":
            bad = {"bad_date": lambda k: f"F{k % n:04d},{year}-02-30,10.0",
                   "wrong_columns": lambda k: f"F{k % n:04d},{day_text[k % spec.n_days]}"}[reason]
        else:
            bad = {"bad_date": lambda k: f"X{k:05d},{year}-13-01,F0000,0.2,0.3,0.5",
                   "off_simplex": lambda k: f"Y{k:05d},{day_text[k]},F0000,0.5,0.5,0.5",
                   "wrong_columns": lambda k: f"Z{k:05d},{day_text[k]},F0000,0.2,0.8"}[reason]
        rows[name] = _scatter(rng, rows[name], [bad(k) for k in range(count)])

    texts = {
        "firms": _lines("firm_id,market_id,sector_code,country", rows["firms"]),
        "prices": _lines("firm_id,date,close", rows["prices"]),
        "indices": _lines("market_id,date,value", rows["indices"]),
        "news": _lines("news_id,date,firm_id,p_pos,p_neu,p_neg", rows["news"]),
        "edges": _lines("year,supplier_id,client_id", rows["edges"]),
    }
    sizes = {f"{name}_rows": len(rows[name]) for name in FILES}
    sizes.update({f"{name}_bytes": len(texts[name].encode()) for name in FILES})
    sizes["articles"] = spec.n_articles
    return Bundle(texts=texts, planted=planted, sizes=sizes)


if __name__ == "__main__":
    # python3 bench/gen.py <grid|ingest> <seed> <outdir>
    workload, seed, outdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    generate(SPECS[workload], seed).write(outdir)

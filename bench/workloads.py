"""Workload definitions and metric names, shared by the driver and its children.

Standard library only: the driver process imports this module and must stay
small, because a child process's peak RSS counts its parent's RSS at spawn.
"""

from __future__ import annotations

from pathlib import Path

WORKLOADS = ("grid", "ingest", "oracle")

# Workload seeds with a stored reference (bench/reference/<workload>.json): the
# seeds a ten-seed sweep runs, plus each workload's default seed.
DEFAULT_SEED = {"grid": 1, "ingest": 1, "oracle": 30}
SWEEP_SEEDS = tuple(range(1, 11))


def reference_seeds(workload: str) -> list[int]:
    return sorted({*SWEEP_SEEDS, DEFAULT_SEED[workload]})

GRID_MODES = ("own", "supplier", "client")
GRID_POLARITIES = ("positive", "negative")
GRID_WINDOWS = (1, 2, 5, 30)
INGEST_WINDOWS = (1, 30)

# Simulator configuration of the acceptance suite's recovery criteria
# (tests/test_acceptance.py, RECOVERY_CONFIG), copied so that a test edit
# cannot change the workload.
RECOVERY_CONFIG = dict(
    n_firms=300, n_sectors=12, n_markets=2, n_days=250, edge_prob=0.02, news_rate=20.0,
    sentiment_alpha=(0.25, 0.25, 0.25), gamma_pre=0.3, gamma_post=0.9, gamma_sup=0.09,
    gamma_cli=0.0, market_vol=0.008, idio_vol=0.01, leak_window=1, effect_window=1,
)
ORACLE_BATCH = 2  # consecutive simulator seeds per replicate batch
ORACLE_MODES = ("own", "supplier")

# (name, unit, better)
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.cpu_util", "ratio", "lower"),
    ("firms.load_s", "s", "lower"),
    ("market.load_prices_s", "s", "lower"),
    ("market.load_indices_s", "s", "lower"),
    ("sentiment.load_s", "s", "lower"),
    ("graph.load_s", "s", "lower"),
    ("market.price_rows", "count", "higher"),
    ("load.rows_rejected", "count", "higher"),
    ("load.rows_per_s", "1/s", "higher"),
    ("panel.own_s", "s", "lower"),
    ("panel.supplier_s", "s", "lower"),
    ("panel.client_s", "s", "lower"),
    ("panel.builds", "count", "lower"),
    ("panel.rows", "count", "higher"),
    ("panel.rows_per_s", "1/s", "higher"),
    ("panel.drops", "count", "lower"),
    ("panel.kept_frac", "ratio", "higher"),
    ("panel.export_s", "s", "lower"),
    ("panel.export_bytes", "B", "lower"),
    ("market.window_calls", "count", "lower"),
    ("market.window_s", "s", "lower"),
    ("market.window_share", "ratio", "lower"),
    ("graph.lookup_calls", "count", "lower"),
    ("graph.lookup_s", "s", "lower"),
    ("regress.fit_s", "s", "lower"),
    ("regress.within_s", "s", "lower"),
    ("regress.fits", "count", "lower"),
    ("regress.rows_per_s", "1/s", "higher"),
    ("report.write_s", "s", "lower"),
    ("report.bytes", "B", "lower"),
    ("sim.simulate_s", "s", "lower"),
    ("sim.stores_s", "s", "lower"),
    ("sim.expected_s", "s", "lower"),
    ("sim.events", "count", "higher"),
    ("sim.injections", "count", "higher"),
    ("sim.recovered", "count", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_cover", "ratio", "higher"),
)

BUNDLE_FLAGS = ("firms", "prices", "indices", "news", "edges")


def commands(workload: str, bundle: Path, out: Path) -> list[list[str]]:
    """The ``newsprop`` argument lists one pass of a file workload runs."""
    inputs = []
    for name in BUNDLE_FLAGS:
        inputs += [f"--{name}", str(bundle / f"{name}.csv")]
    if workload == "grid":
        return [[
            "run", *inputs,
            "--mode", ",".join(GRID_MODES),
            "--polarity", ",".join(GRID_POLARITIES),
            "--windows", ",".join(map(str, GRID_WINDOWS)),
            "--threads", "2", "--out", str(out),
        ]]
    return [
        ["validate", *inputs],
        [
            "run", *inputs, "--mode", "own", "--polarity", "positive",
            "--windows", ",".join(map(str, INGEST_WINDOWS)), "--export-panel", "--out", str(out),
        ],
    ]


def cells(workload: str) -> list[str]:
    """Keys of the cells one pass must produce, as ``mode/polarity/w``."""
    if workload == "grid":
        return [f"{m}/{p}/{w}" for m in GRID_MODES for p in GRID_POLARITIES for w in GRID_WINDOWS]
    if workload == "ingest":
        return [f"own/positive/{w}" for w in INGEST_WINDOWS]
    raise ValueError(f"{workload} has replicates, not cells")

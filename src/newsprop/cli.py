"""Command-line driver: validate inputs, run the estimation grid, simulate.

Each command's settings are one table of keys and value parsers: ``RUN_KEYS``
for run and validate (so one --config file serves both), ``SIM_KEYS`` for
simulate. Every value of the plain key=value file (--config) is parsed by its
key's parser, and flags override file values. An unknown, repeated or
unparsable key or a bad flag exits 2 before any input is read; ``main`` turns
any other ``OSError``, ``ValueError`` or ``MemoryError`` a command raises into
``<command>: <message>`` on stderr and exit 1. Every output goes through the
atomic writers in ``csvio``, so an interrupted run never leaves a truncated
export. Estimation cells (mode, polarity, window) run in sorted order, one
panel per (mode, window) serving every polarity; no file is written until all
are assembled.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as dt
import itertools
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import graph, market, panel, regress, report, sentiment, sim
from .csvio import atomic_write_text, parse_date, write_rows
from .firms import load_firms

DEFAULT_WINDOWS = (1, 2, 3, 4, 5, 30, 180, 365)


class UsageError(Exception):
    """A flag or config-file value no command can start with; exits 2 like argparse."""


def read_config_file(path) -> dict[str, str]:
    """Parse a plain key=value file; '#' starts a comment, blank lines skipped.
    A leading UTF-8 byte-order mark is skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise UsageError(f"cannot read --config {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read --config {path}: {exc}") from None
    values: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise UsageError(f"--config {key} = {value.strip()!r}: repeated key")
        values[key] = value.strip()
    return values


def _parse_windows(text: str) -> list[int]:
    # ArgumentTypeError, unlike ValueError, keeps its message in argparse's error
    try:
        windows = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        windows = []
    if not windows or any(w < 1 for w in windows):
        raise argparse.ArgumentTypeError(f"windows must be positive integers, got {text!r}")
    if len(set(windows)) != len(windows):
        raise argparse.ArgumentTypeError(f"windows must be distinct, got {text!r}")
    return windows


def _parse_names(text: str, allowed: tuple[str, ...]) -> list[str]:
    names = [part.strip() for part in text.split(",")]
    for name in names:
        if name not in allowed:
            raise argparse.ArgumentTypeError(
                f"{name!r} in {text!r} is not one of {','.join(allowed)}"
            )
    if len(set(names)) != len(names):
        raise argparse.ArgumentTypeError(f"duplicate entry in {text!r}")
    return names


def _parse_modes(text: str) -> list[str]:
    return _parse_names(text, panel.MODES)


def _parse_polarities(text: str) -> list[str]:
    return _parse_names(text, panel.POLARITIES)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _sim_field_parser(default):
    """The config-file parser of a ``SimConfig`` field, chosen by its default's type."""
    if isinstance(default, bool):
        return _parse_bool
    if isinstance(default, tuple):
        return lambda text: tuple(float(x) for x in text.split(","))
    if isinstance(default, dt.date):
        return parse_date
    return type(default)  # int or float


# each command's settings: its --config keys and the parser of each key's value;
# validate takes the run keys, so one file serves both
RUN_KEYS = {
    **dict.fromkeys(sim.BUNDLE_FILES, str),
    "strict": _parse_bool, "robust_se": _parse_bool, "export_panel": _parse_bool,
    "threads": int, "windows": _parse_windows, "mode": _parse_modes,
    "polarity": _parse_polarities, "out": str,
}
SIM_KEYS = {
    "windows": _parse_windows, "out": str,
    **{f.name: _sim_field_parser(f.default) for f in dataclasses.fields(sim.SimConfig)},
}


def _settings(args: argparse.Namespace, keys: dict) -> dict:
    """The --config values, each parsed by its key's parser, with the given flags laid over.

    An unknown key or an unparsable value is a UsageError, whether or not the
    command goes on to use that key.
    """
    settings = {}
    for key, text in (read_config_file(args.config) if args.config else {}).items():
        if key not in keys:
            raise UsageError(f"--config {key} = {text!r}: unknown key")
        try:
            settings[key] = keys[key](text)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise UsageError(f"--config {key} = {text!r}: {exc}") from None
    settings.update((k, v) for k, v in vars(args).items() if k in keys and v is not None)
    return settings


def _load_bundle(settings: dict):
    """Run every loader in audit mode; returns (stores, report lines, n rejected)."""
    for key in sim.BUNDLE_FILES:  # checked before any file is read; empty is missing
        if not settings.get(key):
            raise ValueError(f"missing required input path --{key}")
    lines = []
    total_rejected = 0

    def audit(name, accepted_text, rejected):
        nonlocal total_rejected
        lines.append(f"{name}: {accepted_text} accepted, {len(rejected)} rejected")
        lines.extend(f"  {name} {r}" for r in rejected)
        total_rejected += len(rejected)

    firms, rej = load_firms(settings["firms"])
    audit("firms", len(firms), rej)
    prices, rej = market.load_prices(settings["prices"])
    audit("prices", f"{len(prices)} series / {sum(map(len, prices.values()))} quotes", rej)
    indices, rej = market.load_indices(settings["indices"])
    audit("indices", f"{len(indices)} series / {sum(map(len, indices.values()))} quotes", rej)
    news, rej = sentiment.load_news(settings["news"])
    audit("news", f"{len(news)} events", rej)
    network = graph.load_edges(settings["edges"])
    n_links = sum(len(network.snapshot(y).edges) for y in network.years)
    audit("edges", f"{len(network.years)} snapshots / {n_links} links", [])

    stores = panel.Stores(firms=firms, prices=prices, indices=indices, news=news, graph=network)
    return stores, lines, total_rejected


def cmd_validate(args: argparse.Namespace) -> int:
    settings = _settings(args, RUN_KEYS)
    _, lines, rejected = _load_bundle(settings)
    for line in lines:
        print(line)
    print(f"{rejected} rejected")
    if settings.get("strict") and rejected:
        return 1
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    settings = _settings(args, RUN_KEYS)  # threads is accepted and ignored
    windows = settings.get("windows", DEFAULT_WINDOWS)
    modes = settings.get("mode", ["own"])
    polarities = settings.get("polarity", ["positive"])
    outdir = Path(settings.get("out") or "out")

    stores, _, rejected = _load_bundle(settings)
    if settings.get("strict") and rejected:
        raise ValueError(f"strict mode: {rejected} rejected rows")

    cells = sorted((m, p, w) for m in modes for p in polarities for w in windows)
    panels = {}  # (mode, w) -> the panel every polarity of that cell fits
    fits = {}
    for cell in cells:
        mode, polarity, w = cell
        try:
            if (mode, w) not in panels:
                panels[mode, w] = panel.build_panel(stores, mode=mode, polarity=polarity, w=w)
            built = dataclasses.replace(panels[mode, w], polarity=polarity)
            result = regress.fit(built, robust=settings.get("robust_se", False))
        except Exception as exc:  # cell failures are reported, not fatal
            print(f"cell mode={mode} polarity={polarity} w={w}: ERROR {exc}")
            continue
        fits[cell] = built, result
        print(
            f"cell mode={mode} polarity={polarity} w={w}: "
            f"n_obs={result.n_obs} diff={result.diff:.6g} p={result.diff_p:.3g}"
        )

    results = [result for _, result in fits.values()]
    if settings.get("export_panel"):
        for (mode, polarity, w), (built, _) in fits.items():
            panel.write_panel(built, outdir / f"panel_{mode}_{polarity}_w{w}.csv")
    if results:
        regress.write_fits(results, outdir / "fits.csv")
        report.write_effects(report.effect_plot_data(results), outdir / "effects.csv")
        # results follow the sorted cells, so each (mode, polarity) is one run
        groups = itertools.groupby(results, key=lambda r: (r.mode, r.polarity))
        sections = [report.coefficient_table(list(group)) for _, group in groups]
        atomic_write_text(outdir / "table.txt", "\n".join(sections))

    failed = len(cells) - len(fits)
    if failed:
        print(f"{failed} of {len(cells)} cells failed", file=sys.stderr)
        return 1
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    settings = _settings(args, SIM_KEYS)
    windows = settings.pop("windows", DEFAULT_WINDOWS)
    outdir = Path(settings.pop("out", None) or "out")
    config = sim.SimConfig(**settings)  # --seed overrides a file seed like any flag
    # simulate validates the config, and every row is computed before any file
    # is written, so a bad setting or a failing window leaves no half-written bundle
    bundle = sim.simulate(config)
    expected = sim.expected_beta_rows(config, windows)
    paths = bundle.write(outdir)
    write_rows(outdir / "expected_betas.csv", sim.EXPECTED_HEADER, expected)
    for name in sim.BUNDLE_FILES:
        print(f"wrote {paths[name]}")
    print(f"wrote {outdir / 'expected_betas.csv'}")
    print(f"{len(bundle.events)} events, {len(bundle.trading_dates)} trading days")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newsprop",
        description="News-sentiment event studies over firms and their supply-chain partners.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_bundle_flags(p):
        p.add_argument("--firms", help="firm registry CSV")
        p.add_argument("--prices", help="daily close prices CSV")
        p.add_argument("--indices", help="market index CSV")
        p.add_argument("--news", help="news sentiment CSV")
        p.add_argument("--edges", help="supply-chain edge list CSV")
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--strict", action="store_true", default=None,
                       help="fail on any rejected row")

    p_validate = sub.add_parser("validate", help="check every input file against its schema")
    add_bundle_flags(p_validate)
    p_validate.set_defaults(func=cmd_validate, usage_error=p_validate.error)

    p_run = sub.add_parser("run", help="build panels, fit every cell, write reports")
    add_bundle_flags(p_run)
    p_run.add_argument("--mode", type=_parse_modes,
                       help="comma list of own,supplier,client (default own)")
    p_run.add_argument("--polarity", type=_parse_polarities,
                       help="comma list of positive,negative (default positive)")
    p_run.add_argument("--windows", type=_parse_windows, help="comma list of window days")
    p_run.add_argument("--out", help="output directory (default ./out)")
    p_run.add_argument("--robust-se", dest="robust_se", action="store_true", default=None,
                       help="HC1 covariance instead of homoskedastic")
    p_run.add_argument("--export-panel", dest="export_panel", action="store_true", default=None,
                       help="also write one panel CSV per cell")
    p_run.add_argument("--threads", type=int, help="accepted and ignored")
    p_run.set_defaults(func=cmd_run, usage_error=p_run.error)

    p_sim = sub.add_parser("simulate", help="emit a synthetic bundle with known effects")
    p_sim.add_argument("--config", help="key=value simulation parameters")
    p_sim.add_argument("--seed", type=int, help="override the config seed")
    p_sim.add_argument("--windows", type=_parse_windows, help="windows for the expected-beta sidecar")
    p_sim.add_argument("--out", help="output directory (default ./out)")
    p_sim.set_defaults(func=cmd_simulate, usage_error=p_sim.error)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        args.usage_error(str(exc))  # exits 2
    except (OSError, ValueError, MemoryError) as exc:
        print(f"{args.command}: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

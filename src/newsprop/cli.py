"""Command-line driver: validate inputs, run the estimation grid, simulate.

Configuration comes from flags, optionally backed by a plain key=value file
(--config); flags override file values, and a bad value in either exits 2
before any input is read. Every output goes through the atomic writers in
``csvio``, so an interrupted run never leaves a truncated export. Estimation
cells (mode, polarity, window) run in sorted order, one panel per (mode,
window) serving every polarity; no file is written until all are assembled.
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
from .csvio import atomic_write_text, write_rows
from .errors import LoadError
from .firms import load_firms

DEFAULT_WINDOWS = (1, 2, 3, 4, 5, 30, 180, 365)


class UsageError(Exception):
    """A flag or config-file value no command can start with; exits 2 like argparse."""


def read_config_file(path) -> dict[str, str]:
    """Parse a plain key=value file; '#' starts a comment, blank lines skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8")
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
        values[key.strip()] = value.strip()
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


def _merge(args: argparse.Namespace, file_values: dict[str, str], key: str, parse=str):
    """Flag value if given, else config-file value, else None."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key not in file_values:
        return None
    try:
        return parse(file_values[key])
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"--config {key} = {file_values[key]!r}: {exc}") from None


def _load_bundle(paths: dict[str, str], strict: bool):
    """Run every loader in audit mode; returns (stores, report lines, n rejected)."""
    lines = []
    total_rejected = 0

    def audit(name, accepted_text, rejected):
        nonlocal total_rejected
        lines.append(f"{name}: {accepted_text} accepted, {len(rejected)} rejected")
        lines.extend(f"  {name} {r}" for r in rejected)
        total_rejected += len(rejected)

    firms, rej = load_firms(paths["firms"])
    audit("firms", len(firms), rej)
    prices, rej = market.load_prices(paths["prices"])
    audit("prices", f"{len(prices)} series / {sum(map(len, prices.values()))} quotes", rej)
    indices, rej = market.load_indices(paths["indices"])
    audit("indices", f"{len(indices)} series / {sum(map(len, indices.values()))} quotes", rej)
    news, rej = sentiment.load_news(paths["news"])
    audit("news", f"{len(news)} events", rej)
    network = graph.load_edges(paths["edges"])
    n_links = sum(len(network.snapshot(y).edges) for y in network.years)
    audit("edges", f"{len(network.years)} snapshots / {n_links} links", [])

    stores = panel.Stores(firms=firms, prices=prices, indices=indices, news=news, graph=network)
    if strict and total_rejected:
        raise LoadError(f"strict mode: {total_rejected} rejected rows")
    return stores, lines, total_rejected


def _bundle_paths(args, file_values) -> dict[str, str]:
    paths = {}
    for key in ("firms", "prices", "indices", "news", "edges"):
        value = _merge(args, file_values, key)
        if value is None:
            raise ValueError(f"missing required input path --{key}")
        paths[key] = value
    return paths


def cmd_validate(args: argparse.Namespace) -> int:
    file_values = read_config_file(args.config) if args.config else {}
    strict = bool(_merge(args, file_values, "strict", _parse_bool))
    try:
        paths = _bundle_paths(args, file_values)
        _, lines, rejected = _load_bundle(paths, strict=False)
    except (OSError, ValueError) as exc:
        print(f"validate: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(f"{rejected} rejected")
    if strict and rejected:
        return 1
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    file_values = read_config_file(args.config) if args.config else {}
    strict = bool(_merge(args, file_values, "strict", _parse_bool))
    robust = bool(_merge(args, file_values, "robust_se", _parse_bool))
    export_panel = bool(_merge(args, file_values, "export_panel", _parse_bool))
    _merge(args, file_values, "threads", int)  # accepted and ignored for one release
    windows = _merge(args, file_values, "windows", _parse_windows) or list(DEFAULT_WINDOWS)
    modes = _merge(args, file_values, "mode", _parse_modes) or ["own"]
    polarities = _merge(args, file_values, "polarity", _parse_polarities) or ["positive"]
    outdir = Path(_merge(args, file_values, "out") or "out")

    try:
        paths = _bundle_paths(args, file_values)
        stores, _, _ = _load_bundle(paths, strict=strict)
    except (OSError, ValueError) as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 1

    cells = sorted((m, p, w) for m in modes for p in polarities for w in windows)
    panels = {}  # (mode, w) -> the panel every polarity of that cell fits
    fits = {}
    for cell in cells:
        mode, polarity, w = cell
        try:
            if (mode, w) not in panels:
                panels[mode, w] = panel.build_panel(stores, mode=mode, polarity=polarity, w=w)
            built = dataclasses.replace(panels[mode, w], polarity=polarity)
            result = regress.fit(built, robust=robust)
        except Exception as exc:  # cell failures are reported, not fatal
            print(f"cell mode={mode} polarity={polarity} w={w}: ERROR {exc}")
            continue
        fits[cell] = built, result
        print(
            f"cell mode={mode} polarity={polarity} w={w}: "
            f"n_obs={result.n_obs} diff={result.diff:.6g} p={result.diff_p:.3g}"
        )

    results = [result for _, result in fits.values()]
    try:
        if export_panel:
            for (mode, polarity, w), (built, _) in fits.items():
                panel.write_panel(built, outdir / f"panel_{mode}_{polarity}_w{w}.csv")
        if results:
            regress.write_fits(results, outdir / "fits.csv")
            report.write_effects(report.effect_plot_data(results), outdir / "effects.csv")
            # results follow the sorted cells, so each (mode, polarity) is one run
            groups = itertools.groupby(results, key=lambda r: (r.mode, r.polarity))
            sections = [report.coefficient_table(list(group)) for _, group in groups]
            atomic_write_text(outdir / "table.txt", "\n".join(sections))
    except OSError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 1

    failed = len(cells) - len(fits)
    if failed:
        print(f"{failed} of {len(cells)} cells failed", file=sys.stderr)
        return 1
    return 0


def _sim_field_parser(default):
    """The config-file parser of a ``SimConfig`` field, chosen by its default's type."""
    if isinstance(default, bool):
        return _parse_bool
    if isinstance(default, tuple):
        return lambda text: tuple(float(x) for x in text.split(","))
    if isinstance(default, dt.date):
        return dt.date.fromisoformat
    return type(default)  # int or float


def sim_config_from_mapping(values: dict[str, str]) -> sim.SimConfig:
    """Parse simulation keys; an unknown key or unparsable value is a UsageError."""
    defaults = {f.name: f.default for f in dataclasses.fields(sim.SimConfig)}
    kwargs = {}
    for key, value in values.items():
        if key in ("out", "windows", "strict", "robust_se"):
            continue
        if key not in defaults:
            raise UsageError(f"--config {key} = {value!r}: unknown simulation key")
        try:
            kwargs[key] = _sim_field_parser(defaults[key])(value)
        except ValueError as exc:
            raise UsageError(f"--config {key} = {value!r}: {exc}") from None
    return sim.SimConfig(**kwargs)


def cmd_simulate(args: argparse.Namespace) -> int:
    file_values = read_config_file(args.config) if args.config else {}
    windows = _merge(args, file_values, "windows", _parse_windows) or list(DEFAULT_WINDOWS)
    outdir = Path(_merge(args, file_values, "out") or "out")
    config = sim_config_from_mapping(file_values)
    try:
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
        # every row is computed before any file is written, so a window that
        # fails leaves no half-written bundle behind
        config.validate()
        expected = sim.expected_beta_rows(config, windows)
        bundle = sim.simulate(config)
        paths = bundle.write(outdir)
        write_rows(outdir / "expected_betas.csv", sim.EXPECTED_HEADER, expected)
    except (OSError, ValueError) as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return 1
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
    p_run.add_argument("--threads", type=int, help="ignored; accepted for one more release")
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


if __name__ == "__main__":
    sys.exit(main())

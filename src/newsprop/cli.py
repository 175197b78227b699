"""Command-line driver: validate inputs, run the estimation grid, simulate.

Each command's settings are one table of keys, each with its value parser and
the help of its flag: ``RUN_KEYS`` for run and validate (so one --config file
serves both), ``sim_keys()`` for simulate. ``build_parser`` makes every flag
from these tables, and a flag's text and a plain key=value file's (--config)
value go through the same parser; flags override file values. An unknown,
repeated or unparsable key or flag value exits 2 before any input is read,
named by its ``--config key = 'text'`` line or its ``--flag 'text'``; ``main`` turns
any other ``OSError``, ``ValueError`` or ``MemoryError`` a command raises into
``<command>: <message>`` on stderr and exit 1. Every output goes through the
atomic writers in ``csvio``, so an interrupted run never leaves a truncated
export. Estimation cells (mode, polarity, window) are reported in sorted order.
One panel per (mode, window) serves every polarity; its export panels are
written as soon as it is fitted, and it is released before the next build.
The three reports are written at the end, from every fitted cell.

A command imports only the modules it runs, since each one starts a fresh
process: every command loads the loaders and ``panel``, ``run`` adds
``regress`` and ``report``, and only ``simulate`` loads ``sim``.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as dt
import itertools
import sys
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

from . import graph, market, panel, sentiment
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
    try:
        windows = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        windows = []
    if not windows or any(w < 1 for w in windows):
        raise ValueError(f"windows must be positive integers, got {text!r}")
    if len(set(windows)) != len(windows):
        raise ValueError(f"windows must be distinct, got {text!r}")
    return windows


def _parse_names(allowed: tuple[str, ...], text: str) -> list[str]:
    names = [part.strip() for part in text.split(",")]
    for name in names:
        if name not in allowed:
            raise ValueError(f"{name!r} in {text!r} is not one of {','.join(allowed)}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate entry in {text!r}")
    return names


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


# each command's settings: key -> (the parser of its value, the help of its
# flag, or None for a key only --config sets); build_parser makes the flags
RUN_KEYS = {
    **{name: (str, f"{name} input CSV") for name in panel.BUNDLE_FILES},
    "strict": (_parse_bool, "fail on any rejected row"),
    "mode": (partial(_parse_names, panel.MODES),
             f"comma list of {','.join(panel.MODES)} (default own)"),
    "polarity": (partial(_parse_names, panel.POLARITIES),
                 f"comma list of {','.join(panel.POLARITIES)} (default positive)"),
    "windows": (_parse_windows, "comma list of window days"),
    "out": (str, "output directory (default ./out)"),
    "robust_se": (_parse_bool, "HC1 covariance instead of homoskedastic"),
    "export_panel": (_parse_bool, "also write one panel CSV per cell"),
    "threads": (int, "accepted and ignored"),
}
# validate parses every run key, so one file serves both, and takes the paths
# and strict as flags
VALIDATE_KEYS = {key: (parse, text if key in (*panel.BUNDLE_FILES, "strict") else None)
                 for key, (parse, text) in RUN_KEYS.items()}
SIM_FLAGS = {
    "seed": (int, "override the config seed"),
    "windows": (_parse_windows, "windows for the expected-beta sidecar"),
    "out": (str, "output directory (default ./out)"),
}


def sim_keys() -> dict:
    """simulate's settings: one key per ``SimConfig`` field, and its three flags."""
    from . import sim

    return {**{f.name: (_sim_field_parser(f.default), None) for f in dataclasses.fields(sim.SimConfig)},
            **SIM_FLAGS}


def _settings(args: argparse.Namespace, keys: dict) -> dict:
    """The --config values, then the given flags, each parsed by its key's parser.

    An unknown key or an unparsable value is a UsageError that names its
    ``--config key = 'text'`` line or its ``--flag 'text'``, whether or not the
    command goes on to use that key. A flag comes after the file, so it wins.
    """
    config = read_config_file(args.config) if args.config else {}
    given = [(f"--config {key} = {text!r}", key, text) for key, text in config.items()]
    given += [(f"--{key.replace('_', '-')} {text!r}", key, text)
              for key, text in vars(args).items() if key in keys and text is not None]
    settings = {}
    for name, key, text in given:
        if key not in keys:
            raise UsageError(f"{name}: unknown key")
        try:
            settings[key] = keys[key][0](text)
        except ValueError as exc:
            raise UsageError(f"{name}: {exc}") from None
    return settings


def _load_bundle(settings: dict):
    """Run every loader in audit mode; returns ({Stores field: value}, report lines, n rejected)."""
    for key in panel.BUNDLE_FILES:  # checked before any file is read; empty is missing
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

    inputs = dict(firms=firms, prices=prices, indices=indices, news=news, graph=network)
    return inputs, lines, total_rejected


def cmd_validate(args: argparse.Namespace) -> int:
    settings = _settings(args, RUN_KEYS)
    _, lines, rejected = _load_bundle(settings)
    for line in lines:
        print(line)
    print(f"{rejected} rejected")
    if settings.get("strict") and rejected:
        raise ValueError(f"strict mode: {rejected} rejected rows")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from . import regress, report

    settings = _settings(args, RUN_KEYS)  # threads is accepted and ignored
    windows = sorted(settings.get("windows", DEFAULT_WINDOWS))
    modes = sorted(settings.get("mode", ["own"]))
    polarities = sorted(settings.get("polarity", ["positive"]))
    outdir = Path(settings.get("out") or "out")

    inputs, _, rejected = _load_bundle(settings)
    if settings.get("strict") and rejected:
        raise ValueError(f"strict mode: {rejected} rejected rows")
    stores = panel.Stores(**inputs)
    del inputs  # the Stores holds the one copy of each series

    fits = {}  # (mode, polarity, w) -> FitResult of each cell that fitted
    for mode in modes:
        status = {}  # (polarity, w) -> the end of that cell's line
        for w in windows:
            built = None  # one panel alive at a time; a failed build is retried per polarity
            for polarity in polarities:
                try:
                    if built is None:
                        built = panel.build_panel(stores, mode=mode, polarity=polarity, w=w)
                    # the same columns under this polarity: no panel changes once built
                    built = dataclasses.replace(built, polarity=polarity)
                    result = regress.fit(built, robust=settings.get("robust_se", False))
                except Exception as exc:  # cell failures are reported, not fatal
                    status[polarity, w] = f"ERROR {exc}"
                    continue
                fits[mode, polarity, w] = result
                status[polarity, w] = (
                    f"n_obs={result.n_obs} diff={result.diff:.6g} p={result.diff_p:.3g}")
                if settings.get("export_panel"):
                    panel.write_panel(built, outdir / f"panel_{mode}_{polarity}_w{w}.csv")
        for polarity, w in sorted(status):
            print(f"cell mode={mode} polarity={polarity} w={w}: {status[polarity, w]}")

    results = [fits[cell] for cell in sorted(fits)]
    if results:
        regress.write_fits(results, outdir / "fits.csv")
        report.write_effects(report.effect_plot_data(results), outdir / "effects.csv")
        # results follow the sorted cells, so each (mode, polarity) is one run
        groups = itertools.groupby(results, key=lambda r: (r.mode, r.polarity))
        sections = [report.coefficient_table(list(group)) for _, group in groups]
        atomic_write_text(outdir / "table.txt", "\n".join(sections))

    n_cells = len(modes) * len(polarities) * len(windows)
    if len(fits) < n_cells:
        print(f"{n_cells - len(fits)} of {n_cells} cells failed", file=sys.stderr)
        return 1
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import sim

    settings = _settings(args, sim_keys())
    windows = settings.pop("windows", DEFAULT_WINDOWS)
    outdir = Path(settings.pop("out", None) or "out")
    config = sim.SimConfig(**settings)  # --seed overrides a file seed like any flag
    # simulate validates the config and its closes, and every row, the sidecar's
    # too, is computed before any file is written, so a bad setting or a failing
    # window leaves no half-written bundle
    bundle = sim.simulate(config)
    expected = sim.expected_beta_rows(config, windows)
    paths = bundle.write(outdir)
    write_rows(outdir / "expected_betas.csv", sim.EXPECTED_HEADER, expected)
    for name in panel.BUNDLE_FILES:
        print(f"wrote {paths[name]}")
    print(f"wrote {outdir / 'expected_betas.csv'}")
    print(f"{len(bundle.events)} events, {len(bundle.calendar)} trading days")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newsprop",
        description="News-sentiment event studies over firms and their supply-chain partners.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, keys, about in (
        ("validate", cmd_validate, VALIDATE_KEYS, "check every input file against its schema"),
        ("run", cmd_run, RUN_KEYS, "build panels, fit every cell, write reports"),
        ("simulate", cmd_simulate, SIM_FLAGS, "emit a synthetic bundle with known effects"),
    ):
        p = sub.add_parser(name, help=about)
        p.add_argument("--config", help="key=value settings file; flags override it")
        for key, (parse, text) in keys.items():
            if text is not None:  # a switch stores a text its parser reads as true
                switch = dict(action="store_const", const="true") if parse is _parse_bool else {}
                p.add_argument(f"--{key.replace('_', '-')}", dest=key, help=text, **switch)
        p.set_defaults(func=func, usage_error=p.error)

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

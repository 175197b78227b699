"""Child-process side of the benchmark; ``bench/run.py`` starts it with the
checkout's ``src/`` on PYTHONPATH.

    python3 bench/child.py oracle <seed>
        One untraced batch of simulator replicates, between two calibration
        runs (see calibration.py).
    python3 bench/child.py trace <workload> <seed> <seconds> <workdir>
        Passes of one workload in process, each once untraced and once with
        every layer wrapped, until <seconds> have passed.

Both print ``ready`` once newsprop is imported, then one JSON line.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

import newsprop.cli as cli
from newsprop import graph, market, panel, regress, report, sentiment, sim

import checks
import gen
import workloads
from calibration import calibrate
from spans import Tracer, summarize

LOADERS = {
    "firms.load_s": "firms.load",
    "market.load_prices_s": "market.load_prices",
    "market.load_indices_s": "market.load_indices",
    "sentiment.load_s": "sentiment.load",
    "graph.load_s": "graph.load",
}
PANELS = ("panel.own", "panel.supplier", "panel.client")


def replicate(seed: int) -> dict:
    """One recovery replicate: simulate, build own and supplier panels at
    w = 1, fit, and test the own fit against the closed-form expectation
    (acceptance criterion 4: both coefficients within 2 SE)."""
    config = sim.SimConfig(**workloads.RECOVERY_CONFIG, seed=seed)
    bundle = sim.simulate(config)
    stores = bundle.stores()
    rep = {"seed": seed, "events": len(bundle.events), "edges": len(bundle.edges),
           "quotes": sum(len(s) for s in bundle.prices.values()), "cells": {}}
    for mode in workloads.ORACLE_MODES:
        built = panel.build_panel(stores, mode, "positive", 1)
        result = regress.fit(built)
        expected = sim.expected_betas(config, 1, mode, "positive")
        rep["cells"][mode] = {
            "n_obs": result.n_obs,
            "drops": dict(sorted(Counter(d.reason for d in built.drops).items())),
            **{name: getattr(result, name) for name in checks.FIT_FIELDS},
        }
        if mode == "own":
            rep["recovered"] = bool(
                abs(result.beta_pre - expected.beta_pre) <= 2.0 * result.se_pre
                and abs(result.beta_post - expected.beta_post) <= 2.0 * result.se_post
            )
    return rep


def _injections(args, kwargs, bundle) -> dict:
    """Events times one plus the mentioned firm's suppliers and clients."""
    degree = Counter()
    for _, supplier, client in bundle.edges:
        degree[supplier] += 1
        degree[client] += 1
    total = sum(1 + degree[firm] for e in bundle.events for firm in e.mentions)
    return {"events": len(bundle.events), "injections": total}


def instrument(tracer: Tracer, drops: dict) -> None:
    """Wrap every layer at the name its caller looks up."""
    t = tracer

    def wrap(owner, attr, name, note=None):
        t.patch(owner, attr, t.spanned(name, getattr(owner, attr), note))

    def series_rows(args, kwargs, result):
        store, rejected = result
        return {"rows": sum(len(s) for s in store.values()) + len(rejected), "rejected": len(rejected)}

    def panel_note(args, kwargs, built):
        drops[f"{built.mode}/{built.polarity}/{built.w}"] = dict(
            sorted(Counter(d.reason for d in built.drops).items()))
        return {"rows": len(built), "drops": len(built.drops)}

    wrap(cli, "load_firms", "firms.load",
         lambda a, k, r: {"rows": len(r[0]) + len(r[1]), "rejected": len(r[1])})
    wrap(market, "load_prices", "market.load_prices", series_rows)
    wrap(market, "load_indices", "market.load_indices", series_rows)
    wrap(sentiment, "load_news", "sentiment.load", lambda a, k, r: {
        "rows": sum(len(e.mentions) for e in r[0].events.values()) + len(r[1]),
        "rejected": len(r[1])})
    wrap(graph, "load_edges", "graph.load",
         lambda a, k, r: {"rows": sum(len(r.snapshot(y).edges) for y in r.years)})
    t.patch(panel, "build_panel", t.spanned(
        lambda *a, **k: "panel." + (k["mode"] if "mode" in k else a[1]), panel.build_panel, panel_note))
    wrap(panel, "write_panel", "panel.export", lambda a, k, r: {"bytes": os.path.getsize(a[1])})
    for owner, attr in ((market, "window_change"), (market, "market_control")):
        t.patch(owner, attr, t.counted("market.window", getattr(owner, attr)))
    network = graph.SupplyChainNetwork
    for attr in ("suppliers_of", "clients_of", "snapshot_year_at_or_before"):
        t.patch(network, attr, t.counted("graph.lookup", getattr(network, attr)))
    wrap(regress, "fit", "regress.fit", lambda a, k, r: {"n_obs": r.n_obs})
    wrap(regress, "within_transform", "regress.within")
    for owner, attr in ((regress, "write_fits"), (report, "effect_plot_data"),
                        (report, "write_effects"), (report, "coefficient_table"),
                        (cli, "atomic_write_text")):
        wrap(owner, attr, "report.write")
    wrap(sim, "simulate", "sim.simulate", _injections)
    wrap(sim.SimBundle, "stores", "sim.stores")
    wrap(sim, "expected_betas", "sim.expected")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, traced: dict, untraced: dict) -> dict:
    """Per-layer metrics of one traced pass (cli.import_s is the driver's).

    ``traced`` and ``untraced`` are the two passes' ``one_pass`` results.
    """
    outcome = traced["outcome"]
    layers, counted = summarize(tracer.spans)

    def get(name, field="self_s"):
        layer = layers.get(name)
        return 0.0 if layer is None else getattr(layer, field)

    def note(name, key):
        layer = layers.get(name)
        return 0.0 if layer is None else layer.notes.get(key, 0.0)

    loaders = LOADERS.values()
    loader_rows = sum(note(n, "rows") for n in loaders)
    panel_total = sum(get(n, "total_s") for n in PANELS)
    panel_rows = sum(note(n, "rows") for n in PANELS)
    drops = sum(note(n, "drops") for n in PANELS)
    window_calls, window_s = counted.get("market.window", (0, 0.0))
    lookup_calls, lookup_s = counted.get("graph.lookup", (0, 0.0))
    metrics = {
        "cli.self_s": get("cli.main"),
        "cli.cpu_util": _ratio(untraced["cpu"], untraced["wall"]),
        **{metric: get(name) for metric, name in LOADERS.items()},
        "market.price_rows": note("market.load_prices", "rows"),
        "load.rows_rejected": sum(note(n, "rejected") for n in loaders),
        "load.rows_per_s": _ratio(loader_rows, sum(get(n) for n in loaders)),
        "panel.own_s": get("panel.own"),
        "panel.supplier_s": get("panel.supplier"),
        "panel.client_s": get("panel.client"),
        "panel.builds": sum(get(n, "spans") for n in PANELS),
        "panel.rows": panel_rows,
        "panel.rows_per_s": _ratio(panel_rows, panel_total),
        "panel.drops": drops,
        "panel.kept_frac": _ratio(panel_rows / 2, panel_rows / 2 + drops),
        "panel.export_s": get("panel.export"),
        "panel.export_bytes": note("panel.export", "bytes"),
        "market.window_calls": window_calls,
        "market.window_s": window_s,
        "market.window_share": _ratio(window_s, panel_total),
        "graph.lookup_calls": lookup_calls,
        "graph.lookup_s": lookup_s,
        "regress.fit_s": get("regress.fit"),
        "regress.within_s": get("regress.within"),
        "regress.fits": get("regress.fit", "spans"),
        "regress.rows_per_s": _ratio(note("regress.fit", "n_obs"), get("regress.fit", "total_s")),
        "report.write_s": get("report.write"),
        "report.bytes": outcome.get("report_bytes", 0),
        "sim.simulate_s": get("sim.simulate"),
        "sim.stores_s": get("sim.stores"),
        "sim.expected_s": get("sim.expected"),
        "sim.events": note("sim.simulate", "events"),
        "sim.injections": note("sim.simulate", "injections"),
        "sim.recovered": sum(r["recovered"] for r in outcome.get("replicates", [])),
        "trace.wall_s": traced["wall"],
        "trace.overhead_s": traced["wall"] - untraced["wall"],
        # against CPU, not wall time: the pool threads on grid overlap, so their
        # CPU-clock self times can add up to more than the wall time
        "trace.self_cover": _ratio(
            sum(layer.self_s for layer in layers.values()) + window_s + lookup_s, traced["cpu"]),
    }
    return metrics


def one_pass(workload: str, seed: int, bundle: Path, out: Path, tracer: Tracer | None) -> dict:
    """Run one pass in process; returns wall and CPU time and the outcome."""
    drops: dict = {}
    if tracer is not None:
        instrument(tracer, drops)

    def root_span(name):
        return tracer.span(name, root=True) if tracer else contextlib.nullcontext()

    codes, stdouts = [], []
    t0, c0 = perf_counter(), process_time()
    try:
        if workload == "oracle":
            with root_span("oracle.batch"):
                reps = [replicate(s) for s in range(seed, seed + workloads.ORACLE_BATCH)]
        else:
            for argv in workloads.commands(workload, bundle, out):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), root_span("cli.main"):
                    codes.append(cli.main(argv))
                stdouts.append(buf.getvalue())
    finally:
        wall, cpu = perf_counter() - t0, process_time() - c0
        if tracer is not None:
            tracer.restore()
    if workload == "oracle":
        outcome = {"replicates": reps}
    else:
        outcome = checks.collect(workload, codes, stdouts, out)
        if tracer is not None:
            outcome["drops"] = drops
    return {"wall": wall, "cpu": cpu, "outcome": outcome}


def trace_main(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    passes, sidecar, start = [], {}, perf_counter()
    while not passes or perf_counter() - start < seconds:
        here = workdir / f"pass{len(passes)}"
        if workload != "oracle":
            bundle = gen.generate(gen.SPECS[workload], seed)
            bundle.write(here / "bundle")
            sidecar = json.loads((here / "bundle" / "bundle.json").read_text(encoding="utf-8"))
        # alternate which side runs first, so warm-up favours neither
        order = (False, True) if len(passes) % 2 == 0 else (True, False)
        tracer, runs = Tracer(), {}
        for traced in order:
            runs[traced] = one_pass(workload, seed, here / "bundle", here / f"out{int(traced)}",
                                    tracer if traced else None)
        metrics = layer_metrics(tracer, runs[True], runs[False])
        passes.append({"metrics": metrics, "outcomes": [runs[False]["outcome"], runs[True]["outcome"]]})
        shutil.rmtree(here, ignore_errors=True)  # oracle passes write no files
    tracer.write(workdir / "trace_spans.json")
    return {"passes": passes, **sidecar}


def main(argv: list[str]) -> int:
    print("ready", flush=True)
    if argv[0] == "oracle":
        before = calibrate()
        result = one_pass("oracle", int(argv[1]), Path(), Path(), None)
        result["calibration"] = [before, calibrate()]
    else:
        workload, seed, seconds, workdir = argv[1], int(argv[2]), float(argv[3]), Path(argv[4])
        result = trace_main(workload, seed, seconds, workdir)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The names the traced benchmark wraps must exist and be the ones ``run`` calls.

``bench/child.py`` times each layer by replacing a module attribute (a loader,
``panel.build_panel``, ``regress.fit``, the graph lookups and so on) with a
spanned or counted wrapper. If one of those names is renamed away, or ``run``
or the oracle replicate stops calling through it, or a record loses a field a
wrapper's note reads, only a traced benchmark run would notice; these tests
notice in the ordinary suite.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

from newsprop.cli import main
from newsprop.sim import SimConfig, simulate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import child  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, summarize  # noqa: E402


def test_instrumented_run_records_every_layer(tmp_path):
    data = tmp_path / "data"
    bundle = simulate(SimConfig(n_firms=20, n_days=80, edge_prob=0.1, news_rate=3.0, seed=5))
    bundle.write(data)
    flags = [f"--{name}={data / (name + '.csv')}"
             for name in ("firms", "prices", "indices", "news", "edges")]
    tracer = Tracer()
    child.instrument(tracer, {})
    patched = list(tracer._patched)
    try:
        code = main(["run", *flags, "--mode", "own,supplier", "--windows", "1",
                     "--out", str(tmp_path / "out")])
    finally:
        tracer.restore()
    assert code == 0
    layers, counted = summarize(tracer.spans)
    assert {"panel.own", "panel.supplier", "regress.fit"} <= set(layers)
    # the pair tables read each snapshot's edges whole, with no per-event lookup
    assert "graph.lookup" not in counted
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"


def test_instrumented_replicate_records_the_simulator_and_panels():
    # the oracle workload's notes read every event's mentions and every drop's
    # reason, so a record type without those fields fails here
    tracer, drops = Tracer(), {}
    child.instrument(tracer, drops)
    try:
        rep = child.replicate(30)
    finally:
        tracer.restore()
    layers, _ = summarize(tracer.spans)
    bundle = simulate(SimConfig(**workloads.RECOVERY_CONFIG, seed=30))
    per_firm = Counter(firm for e in bundle.events for firm in e.mentions)
    # every event injects into its firm, and each edge carries its two ends' events
    injections = len(bundle.events) + sum(per_firm[s] + per_firm[c] for _, s, c in bundle.edges)
    assert layers["sim.simulate"].spans == 1
    assert layers["sim.simulate"].notes == {"events": rep["events"], "injections": injections}
    assert injections > rep["events"] > 0
    for mode in ("own", "supplier"):
        cell, notes = rep["cells"][mode], layers[f"panel.{mode}"].notes
        assert cell["drops"] and drops[f"{mode}/positive/1"] == cell["drops"]
        assert notes == {"rows": cell["n_obs"], "drops": sum(cell["drops"].values())}

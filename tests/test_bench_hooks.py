"""The names the traced benchmark wraps must exist and be the ones ``run`` calls.

``bench/child.py`` times each layer by replacing a module attribute (a loader,
``panel.build_panel``, ``regress.fit``, the graph lookups and so on) with a
spanned or counted wrapper. If one of those names is renamed away, or ``run``
stops calling through it, only a traced benchmark run would notice; this test
notices in the ordinary suite.
"""

from __future__ import annotations

import sys
from pathlib import Path

from newsprop.cli import main
from newsprop.sim import SimConfig, simulate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import child  # noqa: E402
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

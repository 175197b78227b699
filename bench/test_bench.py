"""Self-tests of the benchmark's own code.

    python -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from newsprop import cli  # noqa: E402
from spans import Span, self_times, summarize  # noqa: E402


@pytest.mark.parametrize("workload", ["grid", "ingest"])
def test_generator_is_deterministic(tmp_path, workload):
    for name in ("a", "b"):
        gen.generate(gen.SPECS[workload], 7).write(tmp_path / name)
    for path in sorted((tmp_path / "a").iterdir()):
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes(), path.name
    other = gen.generate(gen.SPECS[workload], 8)
    assert other.texts["prices"] != (tmp_path / "a" / "prices.csv").read_text(encoding="utf-8")


@pytest.mark.parametrize("workload", ["grid", "ingest"])
def test_loaders_reject_exactly_the_planted_rows(tmp_path, workload):
    bundle = gen.generate(gen.SPECS[workload], 3)
    bundle.write(tmp_path)
    argv = ["validate"] + [arg for name in gen.FILES
                           for arg in (f"--{name}", str(tmp_path / f"{name}.csv"))]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    planted = json.loads((tmp_path / "bundle.json").read_text(encoding="utf-8"))["planted"]
    assert checks.reject_counts(out.getvalue()) == planted
    assert bool(planted) == (workload == "ingest")
    assert out.getvalue().splitlines()[-1] == f"{sum(planted.values())} rejected"


def _span(id_, parent, thread, start, end, counted=0.0, name="x"):
    span = Span(id_, name, parent, thread, start=start, cpu_start=start)
    span.end = span.cpu_end = end
    if counted:
        span.counted["row"] = [3, counted]
    return span


def test_self_time_arithmetic():
    spans = [
        _span(0, None, 1, 0.0, 10.0, name="root"),
        _span(1, 0, 1, 1.0, 4.0, counted=0.5, name="a"),  # overlaps b on [3, 4]
        _span(2, 0, 1, 3.0, 6.0, name="b"),
        _span(3, 2, 1, 3.5, 5.0, name="c"),
        _span(4, 0, 1, 9.0, 12.0, name="d"),  # runs past its parent: clipped
        _span(5, 0, 2, 0.0, 8.0, name="e"),  # another thread: another CPU clock
    ]
    selfs = self_times(spans)
    assert selfs == {0: 10.0 - 5.0 - 1.0, 1: 3.0 - 0.5, 2: 3.0 - 1.5, 3: 1.5, 4: 3.0, 5: 8.0}
    layers, counted = summarize(spans)
    assert layers["a"].total_s == 3.0 and layers["a"].self_s == 2.5
    assert counted == {"row": [3, 0.5]}


def _passing_outcome(reference: dict) -> dict:
    fits = {key: {k: v for k, v in cell.items() if k != "drops"}
            for key, cell in reference["cells"].items()}
    drops = {key: cell["drops"] for key, cell in reference["cells"].items()}
    return {"exit": [0], "listed": {key: True for key in fits}, "fits": fits, "drops": drops}


@pytest.mark.parametrize("workload", ["grid", "oracle"])
def test_check_fails_on_one_perturbed_reference_coefficient(workload):
    stored = json.loads((BENCH / "reference" / f"{workload}.json").read_text(encoding="utf-8"))
    assert sorted(map(int, stored["seeds"])) == workloads.reference_seeds(workload)
    reference = stored["seeds"][str(workloads.DEFAULT_SEED[workload])]
    if workload == "oracle":
        by_seed: dict = {}
        for key, cell in reference["cells"].items():
            seed, mode = key.split("/")
            by_seed.setdefault(int(seed), {})[mode] = cell
        outcome = {"replicates": [{"seed": s, "cells": c} for s, c in by_seed.items()]}
    else:
        outcome = _passing_outcome(reference)
    attempted, problems = checks.check_pass(workload, outcome, reference, None)
    assert attempted > 0 and problems == []

    perturbed = copy.deepcopy(reference)
    cell = next(iter(perturbed["cells"].values()))
    cell["beta_post"] *= 1.0 + 1e-6
    attempted, problems = checks.check_pass(workload, outcome, perturbed, None)
    assert len(problems) == 1 and "beta_post" in problems[0]

    cell["beta_post"] = next(iter(reference["cells"].values()))["beta_post"]
    cell["drops"] = {**cell["drops"], "price-window": cell["drops"].get("price-window", 0) + 1}
    attempted, problems = checks.check_pass(workload, outcome, perturbed, None)
    assert len(problems) == 1 and "drops" in problems[0]


def test_each_run_is_checked_against_the_reference_for_its_own_seed():
    stored = json.loads((BENCH / "reference" / "grid.json").read_text(encoding="utf-8"))
    outcome = _passing_outcome(stored["seeds"]["3"])
    assert run.verify("grid", 3, [outcome], None)[1] == 0
    attempted, failed, _ = run.verify("grid", 4, [outcome], None)
    assert failed == attempted == len(workloads.cells("grid"))


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["run", "--firms", "missing.csv"], 1)])
def test_calibration_wrapper_times_a_command_and_keeps_its_exit_code(tmp_path, argv, code):
    timing = tmp_path / "timing.json"
    env = {**os.environ, "PYTHONPATH": str(BENCH.parent / "src")}
    done = subprocess.run([sys.executable, str(BENCH / "calibration.py"), str(timing),
                           "-m", "newsprop.cli", *argv], cwd=tmp_path, env=env, capture_output=True)
    assert done.returncode == code
    record = json.loads(timing.read_text(encoding="utf-8"))
    assert record["wall"] > 0 and len(record["calibration"]) == 2 and min(record["calibration"]) > 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    for key, metrics in (("end_to_end", workloads.END_TO_END), ("per_layer", workloads.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == list(metrics)

"""Output collection and correctness checks, shared by the driver and the
traced child. Standard library only.

An *outcome* is the JSON-ready record of one pass of a workload: what the
commands printed and wrote, reduced to the values the checks compare.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from pathlib import Path

from workloads import cells

# fits.csv fields compared against the stored reference, besides n_obs
FIT_FIELDS = ("beta_pre", "se_pre", "beta_post", "se_post", "diff")
REL_TOL = 1e-8
DIGESTED = ("fits.csv", "effects.csv", "table.txt")

_CELL_LINE = re.compile(r"^cell mode=(\S+) polarity=(\S+) w=(\d+): (.*)$")
_REJECT_LINE = re.compile(r"^  (\w+) row \d+: (.*)$")
# rejection labels planted by bench/gen.py, by the start of the loader's message
_REASONS = (
    ("duplicate", "duplicate"),
    ("malformed date", "bad_date"),
    ("probabilities sum to", "off_simplex"),
    ("wrong column count", "wrong_columns"),
)


def _reason(message: str) -> str:
    for prefix, label in _REASONS:
        if message.startswith(prefix):
            return label
    return "other"


def reject_counts(validate_stdout: str) -> dict[str, int]:
    """Rejected rows by ``file/reason`` from ``newsprop validate`` output."""
    counts: dict[str, int] = {}
    for line in validate_stdout.splitlines():
        match = _REJECT_LINE.match(line)
        if match:
            key = f"{match.group(1)}/{_reason(match.group(2))}"
            counts[key] = counts.get(key, 0) + 1
    return counts


def read_fits(path: Path) -> dict[str, dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return {
            f"{row['mode']}/{row['polarity']}/{row['w']}": {
                "n_obs": int(row["n_obs"]),
                **{name: float(row[name]) for name in FIT_FIELDS},
            }
            for row in csv.DictReader(fh)
        }


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def collect(workload: str, exit_codes: list[int], stdouts: list[str], out: Path) -> dict:
    """Outcome of one pass of ``grid`` or ``ingest`` from its exit codes,
    standard outputs and output directory."""
    listed = {}
    for line in stdouts[-1].splitlines():
        match = _CELL_LINE.match(line)
        if match:
            mode, polarity, w, rest = match.groups()
            listed[f"{mode}/{polarity}/{w}"] = rest.startswith("n_obs=")
    present = [name for name in DIGESTED if (out / name).is_file()]
    outcome = {
        "exit": exit_codes,
        "listed": listed,
        "fits": read_fits(out / "fits.csv") if "fits.csv" in present else {},
        "digests": {name: _digest(out / name) for name in present},
        "report_bytes": sum((out / name).stat().st_size for name in present),
    }
    if workload == "ingest":
        outcome["rejects"] = reject_counts(stdouts[0])
        panels = sorted(out.glob("panel_*.csv"))
        outcome["digests"].update({p.name: _digest(p) for p in panels})
        outcome["export_bytes"] = sum(p.stat().st_size for p in panels)
        outcome["panel_rows"] = {}
        for p in panels:
            _, mode, polarity, w = p.stem.split("_")
            with open(p, encoding="utf-8") as fh:
                outcome["panel_rows"][f"{mode}/{polarity}/{w[1:]}"] = sum(1 for _ in fh) - 1
    return outcome


def close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def compare(expected: dict, actual: dict) -> list[str]:
    """Problems of one cell or replicate against its reference record: exact
    ``n_obs`` and drop counts (when both sides have them), fit fields within
    ``REL_TOL`` relative."""
    problems = []
    if actual["n_obs"] != expected["n_obs"]:
        problems.append(f"n_obs {actual['n_obs']} != {expected['n_obs']}")
    if "drops" in expected and "drops" in actual and actual["drops"] != expected["drops"]:
        problems.append(f"drops {actual['drops']} != {expected['drops']}")
    for name in FIT_FIELDS:
        if not close(actual[name], expected[name]):
            problems.append(f"{name} {actual[name]!r} != {expected[name]!r}")
    return problems


def check_pass(workload: str, outcome: dict, reference: dict | None,
               planted: dict | None) -> tuple[int, list[str]]:
    """Operations attempted in one pass and a problem line per failed one.

    An operation is a cell, a ``validate`` invocation or a replicate.
    """
    problems = []
    if workload == "oracle":
        replicates = outcome["replicates"]
        for rep in replicates:
            for mode, cell in rep["cells"].items():
                key = f"{rep['seed']}/{mode}"
                bad = [] if cell["n_obs"] > 0 and all(
                    math.isfinite(cell[name]) for name in FIT_FIELDS
                ) else ["empty or non-finite fit"]
                if reference is not None and key in reference["cells"]:
                    bad += compare(reference["cells"][key], cell)
                if bad:
                    problems.append(f"replicate {key}: {'; '.join(bad)}")
                    break
        return len(replicates), problems

    expected_cells = cells(workload)
    attempted = len(expected_cells)
    run_exit = outcome["exit"][-1]
    if workload == "ingest":
        attempted += 1
        if outcome["exit"][0] != 0:
            problems.append(f"validate exited {outcome['exit'][0]}")
        elif outcome["rejects"] != planted:
            problems.append(f"validate rejects {outcome['rejects']} != planted {planted}")
    for key in expected_cells:
        bad = []
        fit = outcome["fits"].get(key)
        if run_exit != 0:
            bad.append(f"run exited {run_exit}")
        if not outcome["listed"].get(key):
            bad.append("no status line or ERROR")
        if fit is None:
            bad.append("missing from fits.csv")
        else:
            if key in outcome.get("drops", {}):
                fit = {**fit, "drops": outcome["drops"][key]}
            if reference is not None:
                bad += compare(reference["cells"][key], fit)
            if workload == "ingest" and outcome["panel_rows"].get(key) != fit["n_obs"]:
                bad.append(f"exported panel rows {outcome['panel_rows'].get(key)} != n_obs")
        if bad:
            problems.append(f"cell {key}: {'; '.join(bad)}")
    return attempted, problems

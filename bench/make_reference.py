"""Write ``bench/reference/<workload>.json`` from the program as it is now.

    python3 bench/make_reference.py [workload ...]

For each workload seed in ``workloads.reference_seeds`` (seeds 1-10, which a
ten-seed sweep runs, plus the workload's default seed), runs one traced
in-process pass and stores, per cell (or per replicate and mode), ``n_obs``,
the drop counts by reason and the compared fit fields. ``bench/run.py``
checks every run against the reference for its own seed. Regenerate only for
a change that moves output values on purpose, and say which values moved and
why.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def reference(workload: str, seed: int) -> dict:
    work = run.WORK / f"reference-{workload}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = work / "child.log"
    done = run.spawn([run.PYTHON, str(run.BENCH / "child.py"), "trace", workload, str(seed), "0",
                      str(work)], work, log, ready=True)
    traced = run.last_json(done, "traced child", log)["passes"][0]["outcomes"][1]
    shutil.rmtree(work)
    if workload == "oracle":
        cells = {f"{rep['seed']}/{mode}": cell
                 for rep in traced["replicates"] for mode, cell in rep["cells"].items()}
    else:
        cells = {key: {**fit, "drops": traced["drops"][key]} for key, fit in traced["fits"].items()}
    return {"cells": cells}


def main(names: list[str]) -> int:
    for workload in names or workloads.WORKLOADS:
        seeds = {}
        for seed in workloads.reference_seeds(workload):
            seeds[str(seed)] = reference(workload, seed)
            print(f"{workload} seed {seed}: {len(seeds[str(seed)]['cells'])} cells", flush=True)
        path = run.BENCH / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"seeds": seeds}, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

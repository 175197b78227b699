"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/sweep.py [--workloads grid,oracle] [--seeds 1-10] [--trace 0]
                           [--seconds N] [--out bench/baseline/end_to_end.json]

Runs ``bench/run.py`` once per seed and workload, one run at a time, with the
workloads interleaved within each seed. For every workload and metric it
prints the median, the quartiles and the spread: the distance between the
quartiles as a share of the median, with the quartiles that
``statistics.quantiles(values, n=4)`` gives. ``--workloads`` and ``--seconds``
default to the workloads and ``run_seconds`` of BENCHMARK.json. With ``--out`` the summary, the per-run
values and the run environment are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
            "n": len(values)}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    report: dict = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    names = args.workloads.split(",")
    runs: dict[str, list[dict]] = {workload: [] for workload in names}
    ok = True
    # seeds outermost, so a slow spell of the host falls on every workload alike
    for seed in parse_seeds(args.seeds):
        for workload in names:
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=BENCH.parent, capture_output=True, text=True, check=False)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if done.returncode != 0 or result is None:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                ok = False
                continue
            runs[workload].append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
    for workload in names:
        done_runs = runs[workload]
        if not done_runs:
            continue
        units = {name: m["unit"] for name, m in done_runs[0]["metrics"].items()}
        summary = {name: {**summarise([r["metrics"][name]["value"] for r in done_runs]), "unit": unit}
                   for name, unit in units.items()}
        for name, s in summary.items():
            print(f"  {workload:7s} {name:24s} median {s['median']:12.6g} {s['unit']:6s} "
                  f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:.4f} (n={s['n']})")
        last = BENCH.parent / ".bench_work" / f"result-{workload}-seed{done_runs[-1]['seed']}-trace{args.trace}.json"
        env = json.loads(last.read_text(encoding="utf-8"))["env"]
        report["workloads"][workload] = {"summary": summary, "runs": done_runs, "env": env}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

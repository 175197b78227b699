"""Benchmark driver for newsprop.

    python3 bench/run.py --workload {grid,ingest,oracle} --seed N --seconds S --trace {0,1}

Run from the root of a checkout. Each pass of a workload starts from nothing:
``grid`` and ``ingest`` generate their inputs from the seed into a fresh
directory and run ``python -m newsprop.cli`` on them; ``oracle`` starts a
fresh interpreter that imports newsprop and runs a batch of simulator
replicates. Passes repeat until S seconds have passed. Outputs are checked
after every pass.

With ``--trace 0`` the end-to-end metrics are reported (medians over the
passes); with ``--trace 1`` the per-layer metrics of a traced in-process run
(medians over its passes). Every metric is printed by name with its unit and
sample count, then the run environment, then, as the last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record, samples included, is written to
``.bench_work/result-<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

import calibration
import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
PYTHON = sys.executable
RUN_LIMIT_S = 170  # a run must end within 180 s; stop a hung child before then
# No workload may use more than two threads: the program's own pool is the only
# parallelism. Multithreaded BLAS would add spinning workers that compete with
# the pool for the cores and make timings swing by 10-20% from run to run.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def add_pass(samples: dict, calibrations: list[float], wall: float, setup: float,
             rss_mb: float) -> None:
    """Record one untraced pass, its times scaled to the reference host speed
    (see calibration.py). The raw times stay in the run's record."""
    scale = calibration.REFERENCE_S / statistics.mean(calibrations)
    for name, value in (("wall_s", wall * scale), ("setup_s", setup * scale), ("peak_rss_mb", rss_mb),
                        ("raw_wall_s", wall), ("raw_setup_s", setup),
                        ("calibration_s", statistics.mean(calibrations))):
        samples.setdefault(name, []).append(value)


def summary(name: str, samples: dict) -> float:
    """One metric's value over the passes of a run.

    ``wall_s`` is the run's total raw command time over its total calibration
    time, times ``REFERENCE_S``. Summing first averages out the calibration
    job's own second-to-second noise, which a per-pass ratio keeps; in a
    five-seed sweep this narrowed the spread of ``wall_s`` on ``oracle`` from
    0.14 to 0.05. ``peak_rss_mb`` is the largest of the passes, and every other
    metric, ``setup_s`` included, the median.
    """
    if name == "wall_s":
        return calibration.REFERENCE_S * sum(samples["raw_wall_s"]) / sum(samples["calibration_s"])
    if name == "peak_rss_mb":
        return max(samples[name])
    return statistics.median(samples[name])


class BenchError(RuntimeError):
    """The run cannot complete: a child failed or the run was stopped."""


@dataclass
class Exit:
    code: int
    wall: float  # from spawn to reaped
    ready: float | None  # from spawn to the child's ``ready`` line
    rss_mb: float  # the child's own peak RSS
    stdout: str


def spawn(argv: list[str], cwd: Path, log: Path, ready: bool = False) -> Exit:
    """Run a child to completion, reaping it with ``wait4`` for its own rusage.

    A signal that ends the run (the run-time limit, SIGTERM) kills the child
    and waits for it before the exception propagates.
    """
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **ONE_BLAS_THREAD}
    with open(log, "ab") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            ready_s = None
            if ready and proc.stdout.readline() == "ready\n":
                ready_s = perf_counter() - t0
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(proc.returncode, wall, ready_s, usage.ru_maxrss / 1024.0, out)


def last_json(exit_: Exit, what: str, log: Path) -> dict:
    lines = exit_.stdout.strip().splitlines()
    if exit_.code != 0 or not lines:
        raise BenchError(f"{what} exited {exit_.code}; see {log}")
    return json.loads(lines[-1])


def file_passes(workload: str, seed: int, seconds: float, work: Path) -> dict:
    """Untraced passes of ``grid`` or ``ingest``, each on freshly generated inputs.

    The generator and each ``python -m newsprop.cli`` command run in their own
    process, between two calibration runs in that process.
    """
    samples: dict = {}
    outcomes, sidecar, start = [], {}, perf_counter()
    timing_file = work / "timing.json"

    def timed(argv: list[str], cwd: Path, log: Path) -> tuple[Exit, dict]:
        timing_file.unlink(missing_ok=True)
        done = spawn([PYTHON, str(BENCH / "calibration.py"), str(timing_file), *argv], cwd, log)
        if not timing_file.is_file():
            raise BenchError(f"{argv[0]} exited {done.code} without timing; see {log}")
        return done, json.loads(timing_file.read_text(encoding="utf-8"))

    while not outcomes or perf_counter() - start < seconds:
        here = work / f"pass{len(outcomes)}"
        here.mkdir()
        gen, gen_timing = timed([str(BENCH / "gen.py"), workload, str(seed), str(here / "bundle")],
                                here, work / "gen.log")
        if gen.code != 0:
            raise BenchError(f"input generator exited {gen.code}")
        sidecar = json.loads((here / "bundle" / "bundle.json").read_text(encoding="utf-8"))
        codes, stdouts, wall, rss = [], [], 0.0, 0.0
        calibrations = list(gen_timing["calibration"])
        for argv in workloads.commands(workload, here / "bundle", here / "out"):
            done, timing = timed(["-m", "newsprop.cli", *argv], here, work / "newsprop.log")
            codes.append(done.code)
            stdouts.append(done.stdout)
            wall += timing["wall"]
            calibrations += timing["calibration"]
            rss = max(rss, done.rss_mb)
        add_pass(samples, calibrations, wall, gen_timing["wall"], rss)
        outcomes.append(checks.collect(workload, codes, stdouts, here / "out"))
        shutil.rmtree(here)
    return {"samples": samples, "outcomes": outcomes, **sidecar}


def oracle_passes(seed: int, seconds: float, work: Path) -> dict:
    """Untraced replicate batches, each in a fresh interpreter."""
    samples: dict = {}
    outcomes, start = [], perf_counter()
    while not outcomes or perf_counter() - start < seconds:
        log = work / "child.log"
        done = spawn([PYTHON, str(BENCH / "child.py"), "oracle", str(seed)], work, log, ready=True)
        result = last_json(done, "oracle child", log)
        if done.ready is None:
            raise BenchError("oracle child never reported ready")
        add_pass(samples, result["calibration"], result["wall"], done.ready, done.rss_mb)
        outcomes.append(result["outcome"])
    return {"samples": samples, "outcomes": outcomes, "sizes": _oracle_sizes(outcomes[0])}


def traced_passes(workload: str, seed: int, seconds: float, work: Path) -> dict:
    """Per-layer samples from the traced child, plus the import cost of the CLI."""
    log = work / "child.log"
    bare, imported = [], []
    for _ in range(3):
        bare.append(spawn([PYTHON, "-c", "pass"], work, log).wall)
        imported.append(spawn([PYTHON, "-c", "import newsprop.cli"], work, log).wall)
    done = spawn([PYTHON, str(BENCH / "child.py"), "trace", workload, str(seed), str(seconds),
                  str(work)], work, log, ready=True)
    result = last_json(done, "traced child", log)
    samples = {"cli.import_s": [i - b for i, b in zip(imported, bare)]}
    for p in result["passes"]:
        for name, value in p["metrics"].items():
            samples.setdefault(name, []).append(value)
    outcomes = [o for p in result["passes"] for o in p["outcomes"]]
    sizes = result.get("sizes") or _oracle_sizes(outcomes[0])
    return {"samples": samples, "outcomes": outcomes, "planted": result.get("planted"), "sizes": sizes}


def _oracle_sizes(outcome: dict) -> dict:
    first = outcome["replicates"][0]
    return {k: first[k] for k in ("events", "edges", "quotes")}


def verify(workload: str, seed: int, outcomes: list[dict], planted: dict | None) -> tuple[int, int, list[str]]:
    """Attempted and failed operations over all passes, with problem lines.

    Besides each pass's own checks, every pass must reproduce the first
    pass's outputs exactly; a pass that does not fails all its operations.
    Values are compared with the stored reference for ``seed``, if there is one.
    """
    stored = json.loads((BENCH / "reference" / f"{workload}.json").read_text(encoding="utf-8"))
    reference = stored["seeds"].get(str(seed))
    attempted = failed = 0
    problems: list[str] = []
    first = None
    for i, outcome in enumerate(outcomes):
        n, bad = checks.check_pass(workload, outcome, reference, planted)
        key = json.dumps(outcome.get("digests", outcome.get("replicates")), sort_keys=True)
        first = key if first is None else first
        if key != first:
            bad = [f"pass {i}: outputs differ from pass 0"]
            failed += n
        else:
            failed += len(bad)
        attempted += n
        problems += bad
    return attempted, failed, problems


def environment(workload: str, sizes: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip() or sha
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "input_sizes": sizes,
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "newsprop" / "cli.py").is_file():
        print(f"run.py: no newsprop sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _stop)
    signal.signal(signal.SIGTERM, _stop)
    signal.alarm(RUN_LIMIT_S)
    try:
        return run_workload(args)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1


def run_workload(args: argparse.Namespace) -> int:
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if args.trace:
        run = traced_passes(args.workload, args.seed, args.seconds, work)
        specs = workloads.PER_LAYER
    elif args.workload == "oracle":
        run = oracle_passes(args.seed, args.seconds, work)
        specs = workloads.END_TO_END
    else:
        run = file_passes(args.workload, args.seed, args.seconds, work)
        specs = workloads.END_TO_END

    planted = run.get("planted") or None
    attempted, failed, problems = verify(args.workload, args.seed, run["outcomes"], planted)
    samples = run["samples"]
    metrics = {}
    for name, unit, _ in specs:
        values = samples[name]
        value = summary(name, samples)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:24s} {value:14.6g} {unit:6s} (n={len(values)})")
    env = environment(args.workload, run["sizes"])
    for key, value in env.items():
        print(f"env {key}: {value}")
    for line in problems:
        print(f"FAILED {line}")
    correct = failed == 0
    record = {"env": env, "samples": samples, "metrics": metrics, "problems": problems,
              "correct": correct, "attempted": attempted, "failed": failed}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _stop(signum, frame):
    raise BenchError(f"stopped by {signal.Signals(signum).name}")


if __name__ == "__main__":
    sys.exit(main())

"""Host-speed calibration for the end-to-end timings. Standard library only.

The host these timings come from changes speed by up to 2x, in spells that
last tens of seconds, and CPU time swings with wall time, so the cause is not
steal time. A fixed pure-Python job run in the same process, right before and
right after the timed work, slows down with it; a job run in another process
does not track it well. Each timed pass is therefore scaled by
``REFERENCE_S`` over the mean of its calibration runs: the reported times are
what the pass would take on a host where the job takes ``REFERENCE_S``. The
raw times stay in each run's record.

    python3 bench/calibration.py <timing.json> -m <module> [args ...]
    python3 bench/calibration.py <timing.json> <script.py> [args ...]

runs a module (as ``python -m`` would) or a script between two calibration
runs and writes ``{"wall": s, "calibration": [before, after]}`` to
<timing.json>. ``wall`` covers the module's imports and its run, not the
interpreter's own start-up.
"""

from __future__ import annotations

import json
import runpy
import sys
from time import perf_counter

REFERENCE_S = 0.2


def calibrate() -> float:
    """Seconds the fixed job takes now: dict, list and sort work over a
    working set of a few megabytes, like the program's own."""
    t0 = perf_counter()
    for _ in range(6):
        groups: dict[str, list[float]] = {}
        for i in range(60_000):
            groups.setdefault(f"F{i % 997:04d}", []).append(i * 0.5)
        for values in groups.values():
            values.sort(reverse=True)
    return perf_counter() - t0


def main(argv: list[str]) -> int:
    timing, target = argv[0], argv[1:]
    before = calibrate()
    t0 = perf_counter()
    code = 0
    try:
        if target[0] == "-m":
            sys.argv = target[1:]
            runpy.run_module(target[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = target
            runpy.run_path(target[0], run_name="__main__")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    wall = perf_counter() - t0
    sys.stdout.flush()
    calibration = [before, calibrate()]
    with open(timing, "w", encoding="utf-8") as fh:
        json.dump({"wall": wall, "calibration": calibration}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""
The batch pipeline end to end, through the file interfaces
==========================================================

simulate -> validate -> run, exactly as the command line drives it. Every
artifact is a plain CSV or text file; rerunning reproduces the same bytes.
"""

import sys
import tempfile
from pathlib import Path

from newsprop.cli import main


def step(argv):
    """Run one command; a failed step ends the demo with its exit status."""
    status = main(argv)
    if status:
        sys.exit(status)


with tempfile.TemporaryDirectory(prefix="newsprop-demo-") as tmp:
    workdir = Path(tmp)
    sim_cfg = workdir / "sim.cfg"
    sim_cfg.write_text(
        "\n".join(
            [
                "# synthetic market with leaked and disclosed effects",
                "n_firms = 60",
                "n_days = 150",
                "edge_prob = 0.04",
                "news_rate = 8",
                "gamma_pre = 0.25",
                "gamma_post = 0.8",
                "gamma_sup = 0.08",
                "seed = 21",
            ]
        )
        + "\n",
        encoding="utf-8",
    )

    data = workdir / "data"
    out = workdir / "out"

    print("== simulate ==")
    step(["simulate", "--config", str(sim_cfg), "--out", str(data), "--windows", "1,2,3,4,5"])

    bundle_flags = []
    for name in ("firms", "prices", "indices", "news", "edges"):
        bundle_flags += [f"--{name}", str(data / f"{name}.csv")]

    print("\n== validate ==")
    step(["validate", *bundle_flags, "--strict"])

    print("\n== run ==")
    step(
        [
            "run",
            *bundle_flags,
            "--mode", "own,supplier,client",
            "--polarity", "positive,negative",
            "--windows", "1,2,3,4,5",
            "--out", str(out),
        ]
    )

    print("\n== artifacts ==")
    for path in sorted(out.iterdir()):
        print(f"  {path}")

    print("\nfirst effect-plot rows:")
    for line in (out / "effects.csv").read_text(encoding="utf-8").splitlines()[:6]:
        print(f"  {line}")

    print(f"\neverything lived under {workdir}, which is removed on exit")

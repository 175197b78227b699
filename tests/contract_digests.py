"""The contract bytes of a fixed command matrix, and the script that rewrites them.

``run_matrix()`` drives ``newsprop.cli.main`` in process, in the current
directory (which should be empty), through a small fixed matrix:

* ``simulate`` for three seeds of one small config and for the demo-04 config;
* ``validate --strict`` on each of those four bundles;
* ``run --mode own,supplier,client --polarity positive,negative
  --windows 1,2,5,30 --export-panel`` on each bundle, and one ``--robust-se``
  run on the demo-04 bundle.

Every path is relative, so nothing about the directory reaches stdout. The
result records each command's argv, exit code and stdout lines, and the sha256
and size of every file under ``data/`` and ``out/``, together with the numpy
version, since a float digit may move with it.

``tests/test_contract_digests.py`` recomputes the matrix and compares it with
the committed ``contract_digests.json``. A change that moves bytes on purpose
rewrites that file in the same commit:

    PYTHONPATH=src python tests/contract_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy

from newsprop.cli import main

DIGEST_FILE = Path(__file__).with_name("contract_digests.json")

SMALL_CONFIG = """\
n_firms = 30
n_sectors = 4
n_days = 200
edge_prob = 0.06
news_rate = 4
gamma_pre = 0.3
gamma_post = 0.9
gamma_sup = 0.1
gamma_cli = 0.05
leak_window = 2
"""

# the simulation config of demos/04_full_pipeline_files.py
DEMO_04_CONFIG = """\
n_firms = 60
n_days = 150
edge_prob = 0.04
news_rate = 8
gamma_pre = 0.25
gamma_post = 0.8
gamma_sup = 0.08
seed = 21
"""

WINDOWS = "1,2,5,30"


def commands() -> list[list[str]]:
    """The fixed matrix, in run order; it reads small.cfg and demo04.cfg."""
    bundles = {f"small_s{seed}": ["--config", "small.cfg", "--seed", str(seed)] for seed in (1, 2, 3)}
    bundles["demo04"] = ["--config", "demo04.cfg"]
    argvs = []
    for name, flags in bundles.items():
        argvs.append(["simulate", *flags, "--windows", WINDOWS, "--out", f"data/{name}"])
    inputs = {
        name: [arg for key in ("firms", "prices", "indices", "news", "edges")
               for arg in (f"--{key}", f"data/{name}/{key}.csv")]
        for name in bundles
    }
    for name in bundles:
        argvs.append(["validate", *inputs[name], "--strict"])
    for name in bundles:
        argvs.append(["run", *inputs[name], "--mode", "own,supplier,client",
                      "--polarity", "positive,negative", "--windows", WINDOWS,
                      "--export-panel", "--out", f"out/{name}"])
    argvs.append(["run", *inputs["demo04"], "--mode", "own,supplier,client",
                  "--polarity", "positive,negative", "--windows", WINDOWS,
                  "--robust-se", "--out", "out/demo04_robust"])
    return argvs


def run_matrix() -> dict:
    """Run the matrix in the current directory; returns the digest record."""
    Path("small.cfg").write_text(SMALL_CONFIG, encoding="utf-8")
    Path("demo04.cfg").write_text(DEMO_04_CONFIG, encoding="utf-8")
    records = []
    for argv in commands():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        records.append({"argv": argv, "exit": code, "stdout": stdout.getvalue().splitlines()})
    files = {}
    for top in ("data", "out"):
        for path in sorted(Path(top).rglob("*")):
            if path.is_file():
                data = path.read_bytes()
                files[path.as_posix()] = {"sha256": hashlib.sha256(data).hexdigest(), "size": len(data)}
    return {
        "numpy": numpy.__version__,
        "commands": records,
        "files": files,
    }


def rewrite() -> None:
    """Recompute the matrix in a temporary directory and rewrite the digest file."""
    home = Path.cwd()
    with tempfile.TemporaryDirectory(prefix="newsprop-digests-") as tmp:
        os.chdir(tmp)
        try:
            record = run_matrix()
        finally:
            os.chdir(home)
    DIGEST_FILE.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {DIGEST_FILE}: {len(record['commands'])} commands, {len(record['files'])} files")


if __name__ == "__main__":
    rewrite()

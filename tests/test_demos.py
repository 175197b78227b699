"""Smoke test: the demo scripts still run against the public loaders and writers."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    ["01_window_arithmetic", "02_synthetic_recovery", "03_network_and_mentions",
     "04_full_pipeline_files"],
)
def test_demo_exits_zero(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # TMPDIR keeps the files demo 04 writes inside the test's own directory,
    # where the test can see that the demo removed them
    env = {**os.environ, "PYTHONPATH": path, "TMPDIR": str(tmp_path)}
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert list(tmp_path.glob("newsprop-demo-*")) == []


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    start = readme.index("```python\n", readme.index("## Library quick start")) + len("```python\n")
    code = readme[start:readme.index("```", start)]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    # the oracle's coefficients print as plain floats
    assert "ExpectedBetas(mode='own'" in done.stdout and "np.float64" not in done.stdout

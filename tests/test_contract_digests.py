"""The committed contract bytes still come out of the code, byte for byte.

``contract_digests.json`` pins the stdout, exit code and output-file digests
of the fixed command matrix in ``contract_digests.py``. A change that moves
bytes on purpose rewrites the file (see that module) and says which moved.
"""

from __future__ import annotations

import json

import numpy

from contract_digests import DIGEST_FILE, run_matrix


def test_contract_bytes_match_committed_digests(tmp_path, monkeypatch):
    expected = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
    assert numpy.__version__ == expected["numpy"], (
        f"the digests were made with numpy {expected['numpy']}, this is numpy "
        f"{numpy.__version__}: rerun tests/contract_digests.py and check that only float "
        "digits moved"
    )
    monkeypatch.chdir(tmp_path)
    actual = run_matrix()

    moved = [
        f"{' '.join(want['argv'])}: exit {got['exit']} (was {want['exit']})"
        if got["exit"] != want["exit"] else f"{' '.join(want['argv'])}: stdout"
        for want, got in zip(expected["commands"], actual["commands"])
        if want != got
    ]
    if len(actual["commands"]) != len(expected["commands"]):
        moved.append(f"{len(actual['commands'])} commands, {len(expected['commands'])} pinned")
    files, pinned_files = actual["files"], expected["files"]
    moved += [f"{name}: digest moved" for name in sorted(files.keys() & pinned_files.keys())
              if files[name] != pinned_files[name]]
    moved += [f"{name}: not written" for name in sorted(pinned_files.keys() - files.keys())]
    moved += [f"{name}: not pinned" for name in sorted(files.keys() - pinned_files.keys())]
    assert not moved, "contract bytes moved:\n" + "\n".join(moved)

from __future__ import annotations

import numpy as np
import pytest

from newsprop.csvio import atomic_write_text, write_rows


def failing_rows():
    yield ("a", 1, 0.1)
    raise RuntimeError("interrupted")


class TestAtomicWriters:
    def test_formats_floats_and_stringifies_the_rest(self, tmp_path):
        path = tmp_path / "sub" / "rows.csv"
        write_rows(path, ("name", "n", "x"), [("a", 3, 1 / 3), ("b", 10**13, np.float64(2e-7))])
        assert path.read_bytes() == (
            b"name,n,x\r\na,3,0.333333333333\r\nb,10000000000000,2e-07\r\n"
        )

    def test_interrupted_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "rows.csv"
        with pytest.raises(RuntimeError, match="interrupted"):
            write_rows(path, ("name", "n", "x"), failing_rows())
        assert list(tmp_path.iterdir()) == []

    def test_interrupted_write_keeps_existing_target(self, tmp_path):
        path = tmp_path / "rows.csv"
        atomic_write_text(path, "previous\n")
        with pytest.raises(RuntimeError, match="interrupted"):
            write_rows(path, ("name", "n", "x"), failing_rows())
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text(encoding="utf-8") == "previous\n"

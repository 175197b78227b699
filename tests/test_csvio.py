from __future__ import annotations

import datetime as dt

import numpy as np
import pytest

from newsprop.csvio import LoadError, atomic_write_text, parse_date, read_rows, write_rows


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


class TestReadRows:
    @pytest.mark.parametrize("lines, row", [
        (["a," + "x" * 200_000], 0),
        (["a,b", "1,2", '"3\n4",' + "x" * 200_000], 2),
    ], ids=["header", "quoted-row"])
    def test_csv_error_names_file_and_data_row(self, tmp_path, lines, row):
        path = tmp_path / "rows.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(LoadError) as err:
            list(read_rows(path, ("a", "b")))
        assert str(err.value) == f"{path}: field larger than field limit (131072) at row {row}"

    @pytest.mark.parametrize("at", ["header", "late-row"])
    def test_non_utf8_names_file_and_no_row(self, tmp_path, at):
        rows = [b"a,b"] + [b"%d,%d" % (k, k) for k in range(5000)]
        rows[0 if at == "header" else -1] += b"\xff"
        path = tmp_path / "rows.csv"
        path.write_bytes(b"\n".join(rows) + b"\n")
        with pytest.raises(LoadError) as err:
            list(read_rows(path, ("a", "b")))
        assert str(err.value) == f"{path}: not UTF-8 text (invalid start byte)"


class TestParseDate:
    # the same texts on every Python: date.fromisoformat takes 20160104 and
    # 2016-W01-1 from 3.11 on, and a slice of the text took 2016-01-04x
    @pytest.mark.parametrize("text, day", [
        ("2016-01-04", dt.date(2016, 1, 4)),
        (" 2016-01-04 ", dt.date(2016, 1, 4)),
        ("2016-01-04T14:31:00", dt.date(2016, 1, 4)),
        ("2016-01-04 09:30", dt.date(2016, 1, 4)),
        ("2016-01-04T09:30:00.25+01:00", dt.date(2016, 1, 4)),
        ("1969-12-31T23:59:59Z", dt.date(1969, 12, 31)),
        ("20160104", None),
        ("2016-W01-1", None),
        ("2016-004", None),
        ("2016-01-04x", None),
        ("2016-01-04T", None),
        ("2016-01-04 noon", None),
        ("2016-1-4", None),
        ("\u0662\u0660\u0661\u0666-01-04", None),
        ("2016-02-30", None),
        ("2016-13-01", None),
        ("0000-01-01", None),
        ("", None),
    ])
    def test_accepts_only_a_day_with_an_optional_time(self, text, day):
        if day is None:
            with pytest.raises(ValueError):
                parse_date(text)
        else:
            assert parse_date(text) == day

"""The file formats in one place: header-checked CSV reading, the record of
a rejected row, ``LoadError`` for a file rejected whole, the date parser, and
the atomic writer every output file goes through.

A writer writes a temp file beside its target and renames it over the target,
so an interrupted write never leaves a truncated file. The temp file is made
by ``open()``, so outputs get the same permission bits as any file the process
creates. Its name is ``<target>.<12 hex digits>.tmp``, the digits from
``os.urandom(6)``, the same bytes ``secrets.token_hex(6)`` returns: importing
``secrets`` would load ``hashlib`` and OpenSSL's libcrypto into every command
for this one name. Floats are written with 12 significant digits (``.12g``),
every other value with ``str``.
"""

from __future__ import annotations

import csv
import datetime as dt
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO


@dataclass(frozen=True)
class RowRejection:
    """One rejected data row. Row numbers count data rows; the header is row 0."""

    row: int
    reason: str

    def __str__(self) -> str:
        return f"row {self.row}: {self.reason}"


class LoadError(ValueError):
    """A data file violates its schema badly enough to reject the whole file."""


def read_rows(path, header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """Check the header, then yield ``(row number, fields)`` per data row.

    Row numbers count data rows from 1; the header is row 0. Raises LoadError
    when the file is empty, its header is not ``header``, a row is not valid
    CSV (such as a field longer than the csv module's field limit), or the
    file is not UTF-8. That last message names no row: the file is decoded a
    chunk ahead of the rows the reader has handed out. A leading UTF-8
    byte-order mark is skipped.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        i = -1  # the last row read
        try:
            head = next(reader, None)
            i = 0
            if head is None or tuple(h.strip() for h in head) != header:
                raise LoadError(f"{path}: expected header {','.join(header)}")
            for i, row in enumerate(reader, start=1):
                yield i, row
        except csv.Error as exc:
            raise LoadError(f"{path}: {exc} at row {i + 1}") from None
        except UnicodeDecodeError as exc:
            raise LoadError(f"{path}: not UTF-8 text ({exc.reason})") from None


# YYYY-MM-DD, alone or followed by a time of day (and maybe a UTC offset)
_DATE = re.compile(
    r"([0-9]{4}-[0-9]{2}-[0-9]{2})(?:[T ][0-9]{2}:[0-9]{2}[0-9:.]*(?:Z|[+-][0-9:]+)?)?"
)


def parse_date(text: str) -> dt.date:
    """The day of ``YYYY-MM-DD`` text; a time of day after ``T`` or a space is
    ignored, since the daily grid cannot resolve it. ValueError on any other text."""
    match = _DATE.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return dt.date.fromisoformat(match[1])


@contextmanager
def _replacing(path) -> Iterator[TextIO]:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "x", newline="", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_rows(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Atomically write a CSV file: ``header``, then one line per row."""
    with _replacing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [format(v, ".12g") if isinstance(v, float) else v for v in row] for row in rows
        )


def atomic_write_text(path, text: str) -> None:
    """Atomically write ``text`` to ``path``."""
    with _replacing(path) as fh:
        fh.write(text)

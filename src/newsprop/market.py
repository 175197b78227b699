"""Daily close-price and market-index series on trading calendars.

The windowed change operations implement the pre/post average daily
percentage change around a news date. Positions are indices into the series,
so weekends, holidays, and missing quotes simply do not exist on the axis.
With anchor position p and window w, the three blocks of trading positions
are

    A = [p-2w, p-w-1]   B = [p-w, p-1]   C = [p, p+w-1]

and the changes are (ln mean(B) - ln mean(A)) / w * 100 for the pre period
and (ln mean(C) - ln mean(B)) / w * 100 for the post period, with the mean
taken over close prices inside the block (log of average, not average of
logs). A change is produced only when every required block is fully inside
the series; otherwise the observation is dropped.

A news date that is not a trading date anchors on the first trading date
strictly after it, so the post window always starts at the first tradable
reaction. ``block_changes`` is the one implementation. It reads series laid
end to end in one array, each query naming its series by first index and
length plus its anchor position on that series. It averages each distinct
block once, as one ``sliding_window_view`` gather done in batches of at most
``_GATHER_BATCH`` elements, so the memory it takes does not grow with the
block count times w. ``mark_ranks`` finds the distinct block starts without a
sort: a bool mark per position from the least start to the greatest, and the
marks' int32 running count as each start's rank. A block that would leave its
own series is masked, never read from a neighbour. ``window_change`` is its
one-date form on one series.

Every block mean is logged with the bits of ``math.log``. Where long double
is x87's 64-bit significand and the C library is glibc (x86 Linux), the
logs are one ``np.log`` over the means cast to ``np.longdouble``, rounded to
float64; only a mean whose long-double log lies within 1/32 ulp of a float64
rounding midpoint goes to ``math.log``. That is exact: x87 ``logl`` is within
about 0.0006 float64 ulp of ln x, and glibc's ``log`` within 0.52 ulp, so
outside that zone both round ln x to the same double (the rounding test of
Ziv 1991). On every other platform each mean goes to ``math.log``; the path
is fixed at import. ``np.log`` in float64 is not used, because its AVX-512
kernel moves about one value in 2,000 by one ulp.

A firm's closes and a market's index are one ``Series`` type, because the
same windowed change applies to both: on an index it is the market-index
control. ``market_control`` is a second name for ``window_change``, kept
only because the benchmark harness counts calls to it by that name.

``load_prices`` and ``load_indices`` read a file in blocks of whole lines.
The plain lines (two commas among bytes 0x21-0x7e) are parsed column by
column from the block's bytes; the row rules in ``_Quotes.check`` take the
other lines and the plain rows the columns do not accept. One compare,
``byte - 0x21 > 0x5d`` on uint8 (it wraps the bytes below 0x21 round), marks
every byte outside 0x21-0x7e, and with the commas these marks give each
line's bounds, its comma offsets and whether it is plain. A block without a
CR skips all CR work; CRLF line ends read as LF. A file holding a quote, a
NUL, a CR outside a CRLF, bytes that are not UTF-8 or a line past the csv
field limit goes whole through ``read_rows``, so every result and
``LoadError`` text is that of the csv reader.

Of a plain line, a date that is exactly ``DDDD-DD-DD`` is looked up by its
int32 yyyymmdd, which ``dt.date`` turns into a day once per file. A close
of 1 to 15 digits with at most one point is read by the exact fast path for
decimals: the digits as an integer over a power of ten, which is
``float(text)`` bit for bit. An id is compared with the id of the line
before over its own bytes, and only the first of each run is decoded. Any
other plain row goes to the row rules: one with an empty id, a date of
another shape (a time of day, say; ``parse_date`` decides each distinct
text once) or one that names no day, and a close with a sign, an exponent,
``inf``, ``nan``, an underscore, 16 or more digits, no digit, or a value
that is not positive. One stable sort on (id, day) rejects the later row of
each duplicate, and each ``Series`` is a slice of the sorted columns.
"""

from __future__ import annotations

import codecs
import csv
import datetime as dt
import io
import math
import os
from array import array
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .csvio import RowRejection, parse_date, read_rows

PRE = "pre"
POST = "post"

PRICE_HEADER = ("firm_id", "date", "close")
INDEX_HEADER = ("market_id", "date", "value")

_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()  # day 0 of datetime64[D]
_NO_DAY = -(2 ** 31)  # the day of a date text that is not a date; days are int32


@dataclass(frozen=True, eq=False)
class Series:
    """One firm's daily closes or one market's index values, strictly
    date-ascending and all positive; the key it is stored under names it."""

    dates: np.ndarray  # datetime64[D]
    values: np.ndarray  # float64

    def __len__(self) -> int:
        return len(self.dates)


_GATHER_BATCH = 1 << 16  # block elements copied per gather, at most (512 KiB)


def _glibc_x87() -> bool:
    """Whether ``np.longdouble`` has x87's 64-bit significand and the C
    library is glibc: where ``_logs``' zone test is exact (module docstring)."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return False
    return libc.startswith("glibc") and np.finfo(np.longdouble).nmant == 63


_LONG_LOG = _glibc_x87()


def _logs(means: np.ndarray) -> np.ndarray:
    """``math.log`` of each float64 in ``means``, bit for bit, as a new
    array; a mean that is not positive raises its ``ValueError``."""
    if not _LONG_LOG:
        return np.fromiter(map(math.log, means.tolist()), dtype=float, count=len(means))
    # a mean that is not positive or not finite logs to +-inf or NaN here, its
    # residual is NaN, and it goes to math.log; the steps work in place, so the
    # peak memory is no more than the math.log map's list of floats
    wide = means.astype(np.longdouble)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(wide, out=wide)
        logs = wide.astype(float)
        wide -= logs  # exact: the bits that rounding to float64 dropped
    residual = np.abs(wide.astype(float))  # exact too: at most 11 significant bits
    del wide
    # the residual is at most half an ulp of logs' binade, so "within 1/32 ulp of a
    # midpoint" is "above 15/32 ulp"; a log rounded onto a power of two may have
    # come from the binade below, with half that ulp, and a NaN fails every compare
    fraction, exponent = np.frexp(logs)
    zone = ~(residual <= np.ldexp(15 / 32, exponent - 53)) | (np.abs(fraction) == 0.5)
    at = np.flatnonzero(zone)
    logs[at] = [math.log(m) for m in means[at].tolist()]
    return logs


def mark_ranks(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys`` in ascending order and each key's rank among them,
    as ``np.unique(keys, return_inverse=True)`` gives them, without a sort.

    A bool mark per value from the least key to the greatest flags the keys,
    and the marks' running count is each value's rank, so the memory taken
    follows the keys' span, not the range they could lie in. The ranks are
    int32, which halves the count's memory; they assume a span below 2**31.
    """
    low = int(keys.min()) if len(keys) else 0
    at = keys - low
    seen = np.zeros(int(at.max(initial=-1)) + 1, dtype=bool)
    seen[at] = True
    return np.flatnonzero(seen) + low, np.cumsum(seen, dtype=np.int32)[at] - 1


def check_window(w) -> None:
    """Raise ``ValueError`` unless the window ``w`` is an int or numpy integer, not a bool, >= 1."""
    if isinstance(w, bool) or not isinstance(w, (int, np.integer)) or w < 1:
        raise ValueError(f"window w must be an integer >= 1, got {w!r}")


def block_changes(values: np.ndarray, first, length, anchor: np.ndarray, w: int):
    """Pre- and post-news daily percentage changes for many anchors.

    ``values`` holds series laid end to end; query k reads the series that
    starts at ``first[k]`` and has ``length[k]`` values, anchored at position
    ``anchor[k]`` on it. ``first`` and ``length`` may be scalars. Returns two
    float arrays shaped like ``anchor``, NaN where a required block is not
    fully inside the query's own series. The blocks are deduplicated by
    ``mark_ranks`` over the positions of ``values``, so ``values`` must hold
    fewer than 2**31 elements.
    """
    check_window(w)
    pre = np.full(np.shape(anchor), np.nan)
    post = np.full(np.shape(anchor), np.nan)
    # a pre change needs 2w positions before an anchor inside the series, a post
    # change w on each side, so neither fits in fewer than 2w values; this is
    # checked in Python ints, so a w past int64 never reaches numpy
    if pre.size == 0 or 2 * w > int(np.max(length)):
        return pre, post
    has_pre = (anchor >= 2 * w) & (anchor < length)
    has_post = (anchor >= w) & (anchor + w <= length)
    c = first + anchor  # first index of block C; B starts w and A 2w before it
    requested = (c[has_pre] - 2 * w, c[has_pre] - w, c[has_post] - w, c[has_post])
    starts, inverse = mark_ranks(np.concatenate(requested))
    # each block's mean is taken over its own slice, as values[s:s+w].mean()
    # would, and logged with math.log's bits (``_logs``) so every digit matches
    # the scalar formula
    blocks = sliding_window_view(values, w)
    means = np.empty(len(starts))
    step = max(1, _GATHER_BATCH // w)
    for i in range(0, len(starts), step):
        means[i : i + step] = blocks[starts[i : i + step]].mean(axis=1)
    logs = _logs(means)
    a, b_pre, b_post, c_post = np.split(logs[inverse], np.cumsum([len(r) for r in requested[:3]]))
    pre[has_pre] = (b_pre - a) / w * 100.0
    post[has_post] = (c_post - b_post) / w * 100.0
    return pre, post


def window_change(series: Series, news_date: dt.date, w: int, period: str) -> Optional[float]:
    """Pre- or post-news daily percentage change on one series, or None.

    None when any required block extends beyond the series (the observation
    is dropped rather than computed from a partial block), including a news
    date after the last trading date.
    """
    if period not in (PRE, POST):
        raise ValueError(f"period must be {PRE!r} or {POST!r}, got {period!r}")
    anchor = np.searchsorted(series.dates, np.array([news_date], dtype="datetime64[D]"))
    pre, post = block_changes(series.values, 0, len(series), anchor, w)
    value = float((pre if period == PRE else post)[0])
    return None if math.isnan(value) else value


# the market-index control: the same change on an index series (module docstring)
market_control = window_change


_BLOCK = 1 << 18  # bytes of whole lines per bulk parse, at most (256 KiB)
_YMD_LOW = np.frombuffer(b"0000-00-00", np.uint8)  # DDDD-DD-DD, byte by byte: the lowest
_YMD_SPAN = np.array([9, 9, 9, 9, 0, 9, 9, 0, 9, 9], np.uint8)  # and how far above it
_YMD_PLACE = np.array([10**7, 10**6, 10**5, 10**4, 0, 1000, 100, 0, 10, 1], np.int32)


def _csv_free(data: bytes) -> Optional[bytes]:
    """``data`` with CRLF line ends made LF, or None where only the csv
    reader reads it as the row path always has: it holds a quote, a NUL, a CR
    outside a CRLF, or bytes that are not UTF-8."""
    if b'"' in data or b"\0" in data:
        return None
    if b"\r" in data:
        if data.count(b"\r") != data.count(b"\r\n"):
            return None
        data = data.replace(b"\r\n", b"\n")
    if not data.isascii():
        try:
            data.decode()
        except UnicodeDecodeError:
            return None
    return data


def _scan(buf: np.ndarray) -> tuple[np.ndarray, ...]:
    """For the lines of ``buf``, each ended by a newline: where each starts,
    where its newline is, which lines are plain, and the offsets of the two
    commas of each plain line."""
    # a line's marks: its commas, its newline and any byte outside 0x21-0x7e
    # (one compare: the uint8 subtraction wraps the bytes below 0x21 past 0x5d)
    odd = buf - 0x21 > 0x5D
    odd |= buf == 44
    marks = np.flatnonzero(odd)
    kind = buf[marks]
    nl = np.flatnonzero(kind == 10)  # the marks that end a line
    ends = marks[nl]
    # a plain line's marks are two commas and its newline: no quote, space or non-ASCII
    # (a take clips where a line has fewer marks, which the count rules out)
    comma = kind == 44
    plain = np.diff(nl, prepend=-1) == 3
    plain &= comma.take(nl - 1, mode="clip") & comma.take(nl - 2, mode="clip")
    last = nl[plain] - 1  # the mark before a plain line's newline: its second comma
    return np.append(0, ends[:-1] + 1), ends, plain, marks[last - 1], marks[last]


def _texts(buf: np.ndarray, width: int) -> np.ndarray:
    """Every ``width`` bytes of ``buf`` as one ``S{width}`` text per start
    offset, without a copy: index it with the offsets of the texts to read."""
    return np.ndarray((len(buf) - width + 1,), f"S{width}", buf, 0, (1,))


def _ymd(buf: np.ndarray, first: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The int32 yyyymmdd of each date text ``buf[first:first + width]``
    that is exactly ``DDDD-DD-DD``, -1 for any other."""
    keys = np.full(len(first), -1, np.int32)
    ten = np.flatnonzero(width == 10)
    if len(ten):
        chars = _texts(buf, 10)[first[ten]].view(np.uint8).reshape(-1, 10)
        digits = chars.T.copy()  # one row per place, so each pass is over a whole row
        digits -= _YMD_LOW[:, None]
        exact = (digits <= _YMD_SPAN[:, None]).all(axis=0)
        # the int32 sum may wrap on a text that is not exact, whose key -1 replaces it
        keys[ten] = np.where(exact, np.einsum("i,ij->j", _YMD_PLACE, digits), np.int32(-1))
    return keys


_POW10 = 10 ** np.arange(16, dtype=np.uint64)
_POW10_F = 10.0 ** np.arange(16)  # exact doubles
# per text width 0-16, the bits of each word of a 16-byte window that lie left
# of the text, right-aligned in it: 8 per byte, 64 for a whole word
_LEFT = np.array([[8 * min(max(end - w, 0), 8) for end in (16, 8)] for w in range(17)], np.uint64)
# per word of that window, the bytes of the text after a point at byte b:
# 7 - b in the second word, 8 more in the first, as the value of byte b
_AFTER = (np.uint64(0x0F0E0D0C0B0A0908), np.uint64(0x0706050403020100))


def _bytes(byte: int) -> np.uint64:
    """``byte`` in each of the eight bytes of a word."""
    return np.uint64(byte * 0x0101010101010101)


def _closes(buf: np.ndarray, first: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The value of each close text ``buf[first:end]`` by the exact fast path
    for decimals (Clinger 1990), and which texts it takes: 1 to 15 digits and
    at most one point, nothing else. The digits m read as an integer are below
    2**53 and 10**f, for f digits after the point, is an exact double, so the
    IEEE quotient m / 10**f is ``float(text)`` bit for bit. The value of a text
    the path does not take means nothing. Each text holds only bytes
    0x21-0x7e, as a plain line does.
    """
    width = end - first
    # the 16 bytes that end where each text ends, as two little-endian words;
    # each (n, 2) array is as large as the block, so the work is done in place
    # and each is dropped once done with, for the next to reuse its memory
    t = _texts(np.concatenate((np.zeros(16, np.uint8), buf)), 16)[end].view("<u8").reshape(-1, 2)
    left = np.take(_LEFT, np.minimum(width, 16), axis=0)
    t >>= left  # clear the bytes left of the text, the low ones
    t <<= left
    # 0x80 in each byte that is not a digit, and in each point (a byte
    # below 0x80 plus 0x50, 0x46 or 0x7f carries into no other)
    other = t + _bytes(0x50)
    other ^= _bytes(0x80)
    point = t + _bytes(0x46)  # for now: 0x80 in each byte above 0x39
    other |= point
    other &= _bytes(0x80)
    np.bitwise_xor(t, _bytes(0x2E), out=point)
    point += _bytes(0x7F)
    np.invert(point, out=point)
    point &= _bytes(0x80)
    other ^= point
    other >>= left  # the others left of the text are the cleared bytes
    del left
    fast = (other[:, 0] | other[:, 1]) == 0
    # a 1 in each point's byte: times a word of byte values, that adds the values
    # at those bytes into the top byte, so times all ones it counts the points
    one = np.right_shift(point, np.uint64(7), out=other)
    points = one * _bytes(1)
    points >>= np.uint64(56)
    npoint = points[:, 0] + points[:, 1]
    del points
    fast &= npoint <= 1
    fast &= width.astype(np.uint64) - npoint - np.uint64(1) < np.uint64(15)  # 1 to 15 digits
    # f, the bytes after the point, by the same multiply
    f = (one[:, 0] * _AFTER[0] >> np.uint64(56)) + (one[:, 1] * _AFTER[1] >> np.uint64(56))
    f = f.astype(np.intp) & 15  # a text the path does not take may count more
    point >>= np.uint64(6)
    t += point  # each point, 0x2e, becomes 0x30
    del point, one, other
    # x: the digits with the point read as a 0, eight per word. Each step joins
    # neighbouring fields of k digits, a before b, into a * 10**k + b: times
    # (10**k << bits) + 1, b's field gains a * 10**k
    t &= _bytes(0x0F)
    for k, bits, keep in ((1, 8, 0x00FF00FF00FF00FF), (2, 16, 0x0000FFFF0000FFFF), (4, 32, 0xFFFFFFFF)):
        t *= np.uint64((10**k << bits) + 1)
        t >>= np.uint64(bits)
        t &= np.uint64(keep)
    x = t[:, 0] * np.uint64(10**8) + t[:, 1]
    # x = a * 10**(f + 1) + b for the digits a before the point and b after it
    b = x % _POW10[f]
    m = np.where(npoint > 0, (x - b) // np.uint64(10) + b, x)
    return m / _POW10_F[f], fast


def _repeats(buf: np.ndarray, start: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Whether each text ``buf[start:start + width]`` equals the one before
    it. Each text is read once, over its own bytes, as an ``S{width}`` text
    with the others of its width, so the work follows the bytes read."""
    same = np.zeros(len(start), bool)
    if not len(start):
        return same
    order = np.argsort(width, kind="stable")  # each width's texts in file order
    for group in np.split(order, np.flatnonzero(np.diff(width[order])) + 1):
        texts = _texts(buf, int(width[group[0]]))[start[group]]
        equal = texts[1:] == texts[:-1]
        equal &= np.diff(group) == 1  # and right after the one before
        same[group[1:]] = equal
    return same


def _ymd_day(key: int) -> int:
    """Days since 1970-01-01 of the yyyymmdd of a ``DDDD-DD-DD`` text, or
    ``_NO_DAY`` where it names no day: the validity ``parse_date`` applies
    to that exact text, without formatting and parsing it."""
    try:
        return dt.date(key // 10000, key // 100 % 100, key % 100).toordinal() - _EPOCH_ORDINAL
    except ValueError:
        return _NO_DAY


def _joined(parts: list) -> np.ndarray:
    """The parts as one array, emptying the list, so that at most two copies
    of one column are held at a time."""
    whole = np.concatenate(parts)
    parts.clear()
    return whole


class _Quotes:
    """One quote file's rejections, and its accepted rows in any order as
    parts of three columns: key (id code << 32 | day - _NO_DAY), value and
    row number."""

    def __init__(self, header: tuple[str, str, str]):
        self.header = header
        self.ids: dict[str, int] = {}  # id -> code
        self.day_of: dict[str, int] = {}  # date text -> days since 1970-01-01, or _NO_DAY
        # sorted yyyymmdd keys and their days, from the least key, -1 (a text
        # that is not DDDD-DD-DD)
        self.table = (np.array([-1], np.int32), np.array([_NO_DAY], np.int64))
        self.columns: tuple[list[np.ndarray], ...] = ([], [], [])
        self.rejections: list[RowRejection] = []
        self.check(())  # an empty first part, so a file without rows has columns

    def day(self, text: str) -> int:
        """Days since 1970-01-01 of a date text not yet in ``day_of``, or
        ``_NO_DAY`` where it is not a date; ``parse_date`` decides it."""
        try:
            self.day_of[text] = parse_date(text).toordinal() - _EPOCH_ORDINAL
        except ValueError:
            self.day_of[text] = _NO_DAY
        return self.day_of[text]

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """The days of int32 yyyymmdd keys, ``_NO_DAY`` for -1, with one
        ``searchsorted`` on the sorted day table. A key new to the file goes
        through ``_ymd_day``."""
        known_keys, days = self.table
        pos = np.searchsorted(known_keys, keys, "right") - 1  # the last key <= each, so >= 0
        new = known_keys[pos] != keys
        if new.any():
            # sorted(set()) because np.unique imports numpy.ma
            new = np.array(sorted(set(keys[new].tolist())), np.int32)
            known_keys = np.concatenate((known_keys, new))
            days = np.concatenate((days, list(map(_ymd_day, new.tolist()))))
            order = np.argsort(known_keys)
            known_keys, days = self.table = known_keys[order], days[order]
            pos = np.searchsorted(known_keys, keys)
        return days[pos]

    def check(self, rows) -> None:
        """The row rules, in their order, on ``(row number, fields)`` pairs."""
        key, value, row = array("q"), array("d"), array("i")
        reject, ids, day_of = self.rejections.append, self.ids, self.day_of
        for i, fields in rows:
            if len(fields) != 3:
                reject(RowRejection(i, "wrong column count"))
                continue
            ident, date_text, value_text = fields[0].strip(), fields[1].strip(), fields[2].strip()
            if not ident:
                reject(RowRejection(i, f"empty {self.header[0]}"))
                continue
            d = day_of[date_text] if date_text in day_of else self.day(date_text)
            if d == _NO_DAY:
                reject(RowRejection(i, f"malformed date {date_text!r}"))
                continue
            try:
                v = float(value_text)
            except ValueError:
                reject(RowRejection(i, f"malformed {self.header[2]} {value_text!r}"))
                continue
            if not math.isfinite(v) or v <= 0.0:
                reject(RowRejection(i, f"nonpositive {self.header[2]} {value_text!r}"))
                continue
            key.append(ids.setdefault(ident, len(ids)) << 32 | (d - _NO_DAY))
            value.append(v)
            row.append(i)
        self.add(key, value, row)

    def add(self, *parts) -> None:
        for column, part in zip(self.columns, parts):
            column.append(np.asarray(part))

    def parse(self, path) -> bool:
        """Read the file in blocks of whole lines. False, with the file part
        read, where only the row path reads it as it always has."""
        with open(path, "rb") as fh:
            head = fh.readline(_BLOCK)
            line = _csv_free(head.removeprefix(codecs.BOM_UTF8))
            if line is None or len(head) == _BLOCK or len(head) > csv.field_size_limit():
                return False
            if tuple(f.strip() for f in line.decode().rstrip("\n").split(",")) != self.header:
                return False  # read_rows names the fault
            row = 1
            while block := fh.read(_BLOCK):
                cut = block.rfind(b"\n") + 1
                if cut == 0 and len(block) == _BLOCK:
                    return False  # a line longer than a block
                if cut == 0:  # the last line, without its newline
                    block, cut = block + b"\n", len(block) + 1
                fh.seek(cut - len(block), io.SEEK_CUR)  # the next block starts on a line
                block = block[:cut]
                row = self.parse_block(block, row)
                if row is None:
                    return False
            return True

    def parse_block(self, block: bytes, first_row: int) -> Optional[int]:
        """Parse whole lines, the first of them data row ``first_row``: plain
        ones from their bytes, the rest through ``check``. The row number
        after them, or None where only the row path reads them."""
        data = _csv_free(block)
        if data is None:
            return None
        buf = np.frombuffer(data, np.uint8)
        starts, ends, plain, at, after = _scan(buf)
        if np.max(ends - starts) > csv.field_size_limit():
            return None
        checked = ~plain
        if len(at):
            begin, end = starts[plain], ends[plain]
            day = self.lookup(_ymd(buf, at + 1, after - at - 1))
            value, fast = _closes(buf, after + 1, end)
            ok = (at > begin) & (day != _NO_DAY) & fast & (value > 0.0)
            begin, width = begin[ok], (at - begin)[ok]
            # one dict lookup per run of equal ids: quote files are mostly grouped by id
            run = np.flatnonzero(~_repeats(buf, begin, width))
            code = [self.ids.setdefault(data[s : s + w].decode(), len(self.ids))
                    for s, w in zip(begin[run].tolist(), width[run].tolist())]
            code = np.repeat(np.array(code, np.int64), np.diff(run, append=len(begin)))
            row = first_row + np.flatnonzero(plain)
            self.add(code << 32 | (day[ok] - _NO_DAY), value[ok], row[ok].astype(np.int32))
            checked[row[~ok] - first_row] = True
        k = np.flatnonzero(checked)
        self.check((first_row + i, data[s:e].decode().split(","))
                   for i, s, e in zip(k.tolist(), starts[k].tolist(), ends[k].tolist()))
        return first_row + len(ends)

    def series(self) -> tuple[dict[str, Series], list[RowRejection]]:
        """Reject the later row of each duplicate (id, day), then slice one
        ``Series`` per id, keyed in the order of its first accepted row."""
        key, value, row = (_joined(parts) for parts in self.columns)
        if np.any(key[1:] <= key[:-1]):
            order = np.lexsort((row, key))
            key = key[order]
            value = value[order]
            row = row[order]
        dup = np.flatnonzero(key[1:] == key[:-1]) + 1
        names = list(self.ids)
        for i, k in zip(row[dup].tolist(), key[dup].tolist()):
            date = dt.date.fromordinal((k & 0xFFFFFFFF) + _NO_DAY + _EPOCH_ORDINAL)
            self.rejections.append(RowRejection(i, f"duplicate ({names[k >> 32]}, {date.isoformat()})"))
        if len(dup):
            key = np.delete(key, dup)
            value = np.delete(value, dup)
            row = np.delete(row, dup)
        # code c's rows are bounds[c]:bounds[c + 1] of the sorted columns
        bounds = np.searchsorted(key, np.arange(len(names) + 1, dtype=np.int64) << 32).tolist()
        key &= 0xFFFFFFFF
        key += _NO_DAY
        dates = key.view("datetime64[D]")
        spans = [(row[s:e].min(), c, s, e) for c, (s, e) in enumerate(zip(bounds, bounds[1:])) if s < e]
        store = {names[c]: Series(dates[s:e], value[s:e]) for _, c, s, e in sorted(spans)}
        return store, sorted(self.rejections, key=attrgetter("row"))


def _load_dated_values(path, header: tuple[str, str, str]):
    """Shared loader for the price and index schemas.

    Returns ``({id: Series}, rejections)``: per id, in the order of its first
    accepted row, a ``Series`` of strictly ascending datetime64[D] dates and
    the float64 values on those dates. Rows need not be sorted; duplicate
    (id, date) pairs reject the later row.
    """
    quotes = _Quotes(header)
    if not quotes.parse(path):
        quotes = _Quotes(header)
        quotes.check(read_rows(path, header))
    return quotes.series()


def load_prices(path) -> tuple[dict[str, Series], list[RowRejection]]:
    """Load a price file (header ``firm_id,date,close``) into per-firm series."""
    return _load_dated_values(path, PRICE_HEADER)


def load_indices(path) -> tuple[dict[str, Series], list[RowRejection]]:
    """Load an index file (header ``market_id,date,value``) into per-market series."""
    return _load_dated_values(path, INDEX_HEADER)

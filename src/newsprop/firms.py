"""Firm registry: identity, listing market, sector code, country.

The registry is a plain ``dict[str, FirmRecord]`` keyed by firm_id, in the
order of the accepted rows.
"""

from __future__ import annotations

from typing import NamedTuple

from .csvio import RowRejection, read_rows


class FirmRecord(NamedTuple):
    """One registry row; the field order is the file's column order."""

    firm_id: str
    market_id: str
    sector_code: str
    country: str


FIRM_HEADER = FirmRecord._fields


def load_firms(path) -> tuple[dict[str, FirmRecord], list[RowRejection]]:
    """Load a registry file (header ``firm_id,market_id,sector_code,country``).

    Returns ``({firm_id: FirmRecord}, rejections)``. market_id and sector_code
    may be empty (the panel skips such firms with an audit record); an empty
    firm_id or a duplicate firm_id rejects the row.
    """
    records: dict[str, FirmRecord] = {}
    rejections: list[RowRejection] = []
    for i, row in read_rows(path, FIRM_HEADER):
        if len(row) != 4:
            rejections.append(RowRejection(i, "wrong column count"))
            continue
        record = FirmRecord._make(map(str.strip, row))
        if not record.firm_id:
            rejections.append(RowRejection(i, "empty firm_id"))
            continue
        if record.firm_id in records:
            rejections.append(RowRejection(i, f"duplicate firm_id {record.firm_id}"))
            continue
        records[record.firm_id] = record
    return records, rejections

"""Firm registry: identity, listing market, sector code, country."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .csvio import read_rows
from .errors import RowRejection

FIRM_HEADER = ("firm_id", "market_id", "sector_code", "country")


@dataclass(frozen=True)
class FirmRecord:
    firm_id: str
    market_id: str
    sector_code: str
    country: str


class FirmRegistry:
    def __init__(self, records: dict[str, FirmRecord]):
        self._records = dict(records)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, firm_id: str) -> bool:
        return firm_id in self._records

    def get(self, firm_id: str) -> Optional[FirmRecord]:
        return self._records.get(firm_id)

    @property
    def firm_ids(self) -> set[str]:
        return set(self._records)


def load_firms(path) -> tuple[FirmRegistry, list[RowRejection]]:
    """Load a registry file (header ``firm_id,market_id,sector_code,country``).

    market_id and sector_code may be empty (the panel skips such firms with an
    audit record); an empty firm_id or a duplicate firm_id rejects the row.
    """
    records: dict[str, FirmRecord] = {}
    rejections: list[RowRejection] = []
    for i, row in read_rows(path, FIRM_HEADER):
        if len(row) != 4:
            rejections.append(RowRejection(i, "wrong column count"))
            continue
        firm_id, market_id, sector_code, country = (field.strip() for field in row)
        if not firm_id:
            rejections.append(RowRejection(i, "empty firm_id"))
            continue
        if firm_id in records:
            rejections.append(RowRejection(i, f"duplicate firm_id {firm_id}"))
            continue
        records[firm_id] = FirmRecord(firm_id, market_id, sector_code, country)
    return FirmRegistry(records), rejections

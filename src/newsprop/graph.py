"""Year-stamped directed supply-chain snapshots.

Each snapshot is the unweighted supplier->client edge set recorded for one
calendar year. ``SupplyChainNetwork`` takes the edges of each year, as
``{year: iterable of (supplier, client)}``, and keeps each year's edges as a
frozenset. Panel assembly reads the edge sets whole; the neighbor queries and
``network_stats`` scan one snapshot's edges per call. ``load_edges`` validates
the edge file row by row before it builds the network.

An event dated inside year Y is matched to the snapshot for Y when it exists,
otherwise to the most recent earlier snapshot (``snapshot_year_at_or_before``).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .csvio import LoadError, read_rows

EDGE_HEADER = ("year", "supplier_id", "client_id")


@dataclass(frozen=True)
class SupplyChainSnapshot:
    """One calendar year's directed supplier->client edges."""

    edges: frozenset[tuple[str, str]]


@dataclass(frozen=True)
class NetworkStats:
    n_firms: int
    n_links: int
    max_indegree: int
    max_outdegree: int


class SupplyChainNetwork:
    """One snapshot per year; a year with no edges is an empty snapshot."""

    def __init__(self, edges_by_year: Mapping[int, Iterable[tuple[str, str]]]):
        self._snapshots = {y: SupplyChainSnapshot(frozenset(e)) for y, e in edges_by_year.items()}
        self._years = sorted(self._snapshots)

    @property
    def years(self) -> list[int]:
        return list(self._years)

    def snapshot(self, year: int) -> SupplyChainSnapshot:
        try:
            return self._snapshots[year]
        except KeyError:
            raise ValueError(f"no supply-chain snapshot for year {year}") from None

    def snapshot_year_at_or_before(self, year: int) -> Optional[int]:
        """Most recent snapshot year <= ``year``, or None when none exists."""
        i = bisect_right(self._years, year)
        return self._years[i - 1] if i else None

    def suppliers_of(self, firm: str, year: int) -> frozenset[str]:
        """Firms s with an edge s -> ``firm`` in the snapshot for ``year``."""
        return frozenset(s for s, c in self.snapshot(year).edges if c == firm)

    def clients_of(self, firm: str, year: int) -> frozenset[str]:
        """Firms c with an edge ``firm`` -> c in the snapshot for ``year``."""
        return frozenset(c for s, c in self.snapshot(year).edges if s == firm)

    def network_stats(self, year: int) -> NetworkStats:
        """Node, link, and degree-maximum counts for one snapshot."""
        edges = self.snapshot(year).edges
        indegree = Counter(c for _, c in edges)
        outdegree = Counter(s for s, _ in edges)
        return NetworkStats(
            n_firms=len(indegree.keys() | outdegree.keys()),
            n_links=len(edges),
            max_indegree=max(indegree.values(), default=0),
            max_outdegree=max(outdegree.values(), default=0),
        )


def load_edges(path) -> SupplyChainNetwork:
    """Load an edge-list file (header ``year,supplier_id,client_id``).

    Duplicate rows collapse silently. Any malformed row or self-loop rejects
    the whole file with its data-row number.
    """
    per_year: dict[int, set[tuple[str, str]]] = {}
    for i, row in read_rows(path, EDGE_HEADER):
        if len(row) != 3:
            raise LoadError(f"{path}: wrong column count at row {i}")
        year_text, supplier, client = map(str.strip, row)
        try:
            year = int(year_text)
            if not -1 << 63 <= year < 1 << 63:  # a Stores codes the years as int64
                raise ValueError
        except ValueError:
            raise LoadError(f"{path}: bad year {year_text!r} at row {i}") from None
        if not supplier or not client:
            raise LoadError(f"{path}: empty firm id at row {i}")
        if supplier == client:
            raise LoadError(f"{path}: self-loop at row {i}")
        per_year.setdefault(year, set()).add((supplier, client))
    return SupplyChainNetwork(per_year)

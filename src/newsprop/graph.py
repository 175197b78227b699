"""Year-stamped directed supply-chain snapshots.

Each snapshot holds the unweighted supplier->client edge set recorded for one
calendar year. ``SupplyChainNetwork`` takes the edges of each year, as
``{year: iterable of (supplier, client)}``, and builds every snapshot's
adjacency in both directions once, so a neighbor query is a dictionary lookup
instead of an edge-list scan; panel assembly reads the edge sets whole.
``load_edges`` validates the edge file row by row before it builds the network.

An event dated inside year Y is matched to the snapshot for Y when it exists,
otherwise to the most recent earlier snapshot (``snapshot_year_at_or_before``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .csvio import LoadError, read_rows

EDGE_HEADER = ("year", "supplier_id", "client_id")


@dataclass(frozen=True)
class SupplyChainSnapshot:
    """One calendar year's directed supplier->client edges, and the adjacency
    maps derived from them in both directions when the network is built."""

    edges: frozenset[tuple[str, str]]
    suppliers_by_client: Mapping[str, frozenset[str]]
    clients_by_supplier: Mapping[str, frozenset[str]]


def _snapshot(edges: Iterable[tuple[str, str]]) -> SupplyChainSnapshot:
    edge_set = frozenset(edges)
    sup: dict[str, set[str]] = {}
    cli: dict[str, set[str]] = {}
    for supplier, client in edge_set:
        sup.setdefault(client, set()).add(supplier)
        cli.setdefault(supplier, set()).add(client)
    return SupplyChainSnapshot(
        edges=edge_set,
        suppliers_by_client={k: frozenset(v) for k, v in sup.items()},
        clients_by_supplier={k: frozenset(v) for k, v in cli.items()},
    )


@dataclass(frozen=True)
class NetworkStats:
    n_firms: int
    n_links: int
    max_indegree: int
    max_outdegree: int


class SupplyChainNetwork:
    """One snapshot per year; a year with no edges is an empty snapshot."""

    def __init__(self, edges_by_year: Mapping[int, Iterable[tuple[str, str]]]):
        self._snapshots = {year: _snapshot(edges) for year, edges in edges_by_year.items()}
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
        return self.snapshot(year).suppliers_by_client.get(firm, frozenset())

    def clients_of(self, firm: str, year: int) -> frozenset[str]:
        """Firms c with an edge ``firm`` -> c in the snapshot for ``year``."""
        return self.snapshot(year).clients_by_supplier.get(firm, frozenset())

    def network_stats(self, year: int) -> NetworkStats:
        """Node, link, and degree-maximum counts for one snapshot."""
        snap = self.snapshot(year)
        return NetworkStats(
            n_firms=len(snap.suppliers_by_client.keys() | snap.clients_by_supplier.keys()),
            n_links=len(snap.edges),
            max_indegree=max(map(len, snap.suppliers_by_client.values()), default=0),
            max_outdegree=max(map(len, snap.clients_by_supplier.values()), default=0),
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
        year_text, supplier, client = (field.strip() for field in row)
        try:
            year = int(year_text)
        except ValueError:
            raise LoadError(f"{path}: bad year {year_text!r} at row {i}") from None
        if not supplier or not client:
            raise LoadError(f"{path}: empty firm id at row {i}")
        if supplier == client:
            raise LoadError(f"{path}: self-loop at row {i}")
        per_year.setdefault(year, set()).add((supplier, client))
    return SupplyChainNetwork(per_year)

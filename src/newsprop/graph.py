"""Year-stamped directed supply-chain snapshots.

Each snapshot holds the unweighted supplier->client edge set recorded for one
calendar year. Loading validates the edge schema up front and precomputes
adjacency in both directions, so neighbor queries during panel assembly are
dictionary lookups instead of edge-list scans. Networks are immutable after
load and safe for unsynchronized concurrent reads.

An event dated inside year Y is matched to the snapshot for Y when it exists,
otherwise to the most recent earlier snapshot (``snapshot_year_at_or_before``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .csvio import read_rows
from .errors import LoadError, NoSnapshotError

EDGE_HEADER = ("year", "supplier_id", "client_id")


@dataclass(frozen=True)
class SupplyChainSnapshot:
    """Directed supplier->client edges for one calendar year.

    Invariants: no self-loops, no duplicate edges, no empty firm ids. Both
    adjacency maps are derived from ``edges`` at construction time.
    """

    year: int
    edges: frozenset[tuple[str, str]]
    suppliers_by_client: Mapping[str, frozenset[str]]
    clients_by_supplier: Mapping[str, frozenset[str]]

    @classmethod
    def from_edges(cls, year: int, edges: Iterable[tuple[str, str]]) -> "SupplyChainSnapshot":
        edge_set = frozenset(edges)
        sup: dict[str, set[str]] = {}
        cli: dict[str, set[str]] = {}
        for supplier, client in edge_set:
            if not supplier or not client:
                raise ValueError(f"empty firm id in edge ({supplier!r}, {client!r})")
            if supplier == client:
                raise ValueError(f"self-loop on {supplier!r}")
            sup.setdefault(client, set()).add(supplier)
            cli.setdefault(supplier, set()).add(client)
        return cls(
            year=year,
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
    """All loaded snapshots, keyed by year."""

    def __init__(self, snapshots: Mapping[int, SupplyChainSnapshot]):
        self._snapshots = dict(snapshots)
        self._years = sorted(self._snapshots)

    @property
    def years(self) -> list[int]:
        return list(self._years)

    def snapshot(self, year: int) -> SupplyChainSnapshot:
        try:
            return self._snapshots[year]
        except KeyError:
            raise NoSnapshotError(f"no supply-chain snapshot for year {year}") from None

    def snapshot_year_at_or_before(self, year: int) -> Optional[int]:
        """Most recent snapshot year <= ``year``, or None when none exists."""
        best = None
        for y in self._years:
            if y <= year:
                best = y
            else:
                break
        return best

    def suppliers_of(self, firm: str, year: int) -> set[str]:
        """Firms s with an edge s -> ``firm`` in the snapshot for ``year``."""
        snap = self.snapshot(year)
        return set(snap.suppliers_by_client.get(firm, frozenset()))

    def clients_of(self, firm: str, year: int) -> set[str]:
        """Firms c with an edge ``firm`` -> c in the snapshot for ``year``."""
        snap = self.snapshot(year)
        return set(snap.clients_by_supplier.get(firm, frozenset()))

    def network_stats(
        self,
        year: int,
        firm_filter: Optional[set[str]] = None,
        registry_firms: Optional[set[str]] = None,
    ) -> NetworkStats:
        """Node, link, and degree-maximum counts for one snapshot.

        With ``firm_filter`` the statistics are computed on the induced
        subgraph (edges with both endpoints in the filter). Filtered firms
        with no retained edge still count toward ``n_firms`` when they appear
        in ``registry_firms``.
        """
        snap = self.snapshot(year)
        if firm_filter is None:
            retained = snap.edges
        else:
            retained = frozenset(
                (s, c) for s, c in snap.edges if s in firm_filter and c in firm_filter
            )
        indeg: dict[str, int] = {}
        outdeg: dict[str, int] = {}
        nodes: set[str] = set()
        for s, c in retained:
            nodes.add(s)
            nodes.add(c)
            outdeg[s] = outdeg.get(s, 0) + 1
            indeg[c] = indeg.get(c, 0) + 1
        if firm_filter is not None and registry_firms is not None:
            nodes |= firm_filter & registry_firms
        return NetworkStats(
            n_firms=len(nodes),
            n_links=len(retained),
            max_indegree=max(indeg.values(), default=0),
            max_outdegree=max(outdeg.values(), default=0),
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
    return SupplyChainNetwork(
        {year: SupplyChainSnapshot.from_edges(year, edges) for year, edges in per_year.items()}
    )

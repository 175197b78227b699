from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from newsprop.csvio import LoadError
from newsprop.graph import NetworkStats, SupplyChainNetwork, load_edges


def write_edges(tmp_path, rows):
    path = tmp_path / "edges.csv"
    lines = ["year,supplier_id,client_id"] + [",".join(map(str, r)) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadEdges:
    def test_direct_construction(self, tmp_path):
        net = load_edges(write_edges(tmp_path, [(2016, "A", "B"), (2016, "A", "C"), (2016, "B", "C")]))
        assert net.years == [2016]
        assert len(net.snapshot(2016).edges) == 3

    def test_duplicate_rows_collapse(self, tmp_path):
        net = load_edges(write_edges(tmp_path, [(2016, "A", "B"), (2016, "A", "B")]))
        assert len(net.snapshot(2016).edges) == 1

    def test_self_loop_rejects_file_with_row_number(self, tmp_path):
        with pytest.raises(LoadError, match="self-loop at row 1"):
            load_edges(write_edges(tmp_path, [(2016, "A", "A")]))

    def test_malformed_rows_reject_file(self, tmp_path):
        with pytest.raises(LoadError, match="row 2"):
            load_edges(write_edges(tmp_path, [(2016, "A", "B"), (2016, "A", "")]))
        path = tmp_path / "bad.csv"
        path.write_text("year,supplier_id,client_id\n2016,A\n", encoding="utf-8")
        with pytest.raises(LoadError, match="wrong column count at row 1"):
            load_edges(path)
        with pytest.raises(LoadError, match="bad year '20x6' at row 1"):
            load_edges(write_edges(tmp_path, [("20x6", "A", "B")]))
        for year in ("9223372036854775808", "99999999999999999999", "-9223372036854775809"):  # past int64
            with pytest.raises(LoadError, match=f"bad year '{year}' at row 2"):
                load_edges(write_edges(tmp_path, [(2016, "A", "B"), (year, "B", "C")]))

    def test_int64_extreme_years_load(self, tmp_path):
        net = load_edges(write_edges(tmp_path, [(-2 ** 63, "A", "B"), (2 ** 63 - 1, "B", "C")]))
        assert net.years == [-2 ** 63, 2 ** 63 - 1]

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "head.csv"
        path.write_text("supplier,client\nA,B\n", encoding="utf-8")
        with pytest.raises(LoadError, match="expected header"):
            load_edges(path)

    def test_multiple_years_split(self, tmp_path):
        net = load_edges(write_edges(tmp_path, [(2015, "A", "B"), (2016, "B", "C")]))
        assert net.years == [2015, 2016]


class TestNeighborQueries:
    def test_suppliers_definition(self):
        net = SupplyChainNetwork({2016: [("A", "B"), ("C", "B")]})
        assert net.suppliers_of("B", 2016) == {"A", "C"}

    def test_no_incoming_edges(self):
        net = SupplyChainNetwork({2016: [("A", "B")]})
        assert net.suppliers_of("A", 2016) == set()

    def test_suppliers_brute_force(self):
        edges = [("A", "B"), ("A", "C"), ("B", "C")]
        net = SupplyChainNetwork({2016: edges})
        expected = {s for s, c in edges if c == "C"}
        assert net.suppliers_of("C", 2016) == expected == {"A", "B"}

    def test_clients_definition(self):
        net = SupplyChainNetwork({2016: [("A", "B"), ("A", "C")]})
        assert net.clients_of("A", 2016) == {"B", "C"}
        assert net.clients_of("B", 2016) == set()

    def test_clients_brute_force(self):
        edges = [("A", "B"), ("B", "C"), ("A", "C")]
        net = SupplyChainNetwork({2016: edges})
        expected = {c for s, c in edges if s == "A"}
        assert net.clients_of("A", 2016) == expected == {"B", "C"}

    def test_missing_year_raises(self):
        net = SupplyChainNetwork({2016: [("A", "B")]})
        with pytest.raises(ValueError, match="no supply-chain snapshot for year 2014"):
            net.suppliers_of("A", 2014)

    def test_duality_property(self):
        rng = np.random.default_rng(7)
        firms = [f"F{i}" for i in range(30)]
        edges = {
            (firms[i], firms[j])
            for i, j in rng.integers(0, 30, size=(200, 2))
            if i != j
        }
        net = SupplyChainNetwork({2016: edges})
        for f in firms:
            for g in net.clients_of(f, 2016):
                assert f in net.suppliers_of(g, 2016)
            for s in net.suppliers_of(f, 2016):
                assert f in net.clients_of(s, 2016)


class TestSnapshotFallback:
    def test_exact_then_earlier_then_none(self):
        net = SupplyChainNetwork({2014: [("A", "B")], 2016: [("B", "C")]})
        assert net.snapshot_year_at_or_before(2016) == 2016
        assert net.snapshot_year_at_or_before(2015) == 2014
        assert net.snapshot_year_at_or_before(2013) is None


class TestNetworkStats:
    def test_small_graph_counts(self):
        net = SupplyChainNetwork({2016: [("A", "B"), ("A", "C"), ("B", "C")]})
        stats = net.network_stats(2016)
        assert stats.n_firms == 3
        assert stats.n_links == 3
        assert stats.max_indegree == 2
        assert stats.max_outdegree == 2

    def test_empty_snapshot(self):
        net = SupplyChainNetwork({2016: []})
        stats = net.network_stats(2016)
        assert (stats.n_firms, stats.n_links, stats.max_indegree, stats.max_outdegree) == (0, 0, 0, 0)

    def test_table_schema_fields(self):
        # schema: the four per-year statistics reported for a listed-firm subgraph
        net = SupplyChainNetwork({2003: [("A", "B")]})
        stats = net.network_stats(2003)
        assert {"n_firms", "n_links", "max_indegree", "max_outdegree"} <= set(vars(stats))

    def test_degree_sums_equal_links(self):
        rng = np.random.default_rng(11)
        firms = [f"F{i}" for i in range(40)]
        edges = {
            (firms[i], firms[j])
            for i, j in rng.integers(0, 40, size=(300, 2))
            if i != j
        }
        net = SupplyChainNetwork({2016: edges})
        assert net.snapshot(2016).edges == edges
        indeg_total = sum(len(net.suppliers_of(f, 2016)) for f in firms)
        outdeg_total = sum(len(net.clients_of(f, 2016)) for f in firms)
        assert indeg_total == outdeg_total == len(edges) == net.network_stats(2016).n_links

    def test_matches_brute_force_recount(self):
        rng = np.random.default_rng(3)
        firms = [f"F{i}" for i in range(60)]
        edges = {
            (firms[i], firms[j])
            for i, j in rng.integers(0, 60, size=(800, 2))
            if i != j
        }
        net = SupplyChainNetwork({2016: edges})
        stats = net.network_stats(2016)
        indeg, outdeg, nodes = {}, {}, set()
        for s, c in edges:
            nodes |= {s, c}
            indeg[c] = indeg.get(c, 0) + 1
            outdeg[s] = outdeg.get(s, 0) + 1
        assert stats.n_firms == len(nodes)
        assert stats.n_links == len(edges)
        assert stats.max_indegree == max(indeg.values())
        assert stats.max_outdegree == max(outdeg.values())


SUPPLIERS = ("A", "B", "D", "E")
CLIENT_ONLY = "C"  # a client in some year, a supplier in none


@st.composite
def edges_by_year(draw) -> dict[int, list[tuple[str, str]]]:
    """Two to four years of edge lists, repeats allowed: the first year is
    empty, and the second holds the 2-cycle A -> B, B -> A and the link A -> C."""
    years = draw(st.lists(st.integers(2000, 2010), min_size=2, max_size=4, unique=True))
    links = st.tuples(st.sampled_from(SUPPLIERS), st.sampled_from((*SUPPLIERS, CLIENT_ONLY)))
    edges = {year: draw(st.lists(links.filter(lambda edge: edge[0] != edge[1]), max_size=12))
             for year in years}
    edges[years[0]] = []
    edges[years[1]] += [("A", "B"), ("B", "A"), ("A", CLIENT_ONLY)]
    return edges


class TestEdgeSetProperty:
    @settings(derandomize=True, database=None, max_examples=60)
    @given(edges_by_year=edges_by_year())
    def test_queries_and_stats_equal_a_count_over_the_edge_list(self, edges_by_year):
        net = SupplyChainNetwork(edges_by_year)
        assert net.years == sorted(edges_by_year)
        for year, edge_list in edges_by_year.items():
            links = set(edge_list)  # a repeated row is one link
            firms = {f for link in links for f in link}
            for f in (*SUPPLIERS, CLIENT_ONLY, "X"):
                assert net.suppliers_of(f, year) == frozenset(s for s, c in links if c == f)
                assert net.clients_of(f, year) == frozenset(c for s, c in links if s == f)
            assert net.network_stats(year) == NetworkStats(
                n_firms=len(firms),
                n_links=len(links),
                max_indegree=max((sum(c == f for _, c in links) for f in firms), default=0),
                max_outdegree=max((sum(s == f for s, _ in links) for f in firms), default=0),
            )
        absent = next(y for y in range(min(net.years), max(net.years) + 2) if y not in edges_by_year)
        for query in (lambda y: net.suppliers_of("A", y), lambda y: net.clients_of("A", y),
                      net.network_stats, net.snapshot):
            with pytest.raises(ValueError, match=f"no supply-chain snapshot for year {absent}"):
                query(absent)

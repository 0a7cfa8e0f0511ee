"""Unit tests for repro.graph.traversal."""

import pytest

from repro.exceptions import NodeNotFoundError
from repro.graph import (
    UndirectedGraph,
    all_pairs_shortest_paths,
    average_path_length,
    bfs_order,
    diameter,
    eccentricity,
    shortest_path,
    shortest_path_lengths,
)


@pytest.fixture
def chain():
    """Chain a - b - c - d."""
    g = UndirectedGraph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    g.add_edge("c", "d")
    return g


@pytest.fixture
def disconnected():
    g = UndirectedGraph()
    g.add_edge("a", "b")
    g.add_node("island")
    return g


class TestBfs:
    def test_order_starts_at_source(self, chain):
        order = bfs_order(chain, "b")
        assert order[0] == "b"
        assert set(order) == {"a", "b", "c", "d"}

    def test_missing_source_raises(self, chain):
        with pytest.raises(NodeNotFoundError):
            bfs_order(chain, "zzz")


class TestShortestPaths:
    def test_lengths_undirected(self, chain):
        lengths = shortest_path_lengths(chain, "d")
        assert lengths == {"d": 0, "c": 1, "b": 2, "a": 3}

    def test_unreachable_absent(self, disconnected):
        lengths = shortest_path_lengths(disconnected, "a")
        assert "island" not in lengths

    def test_path_endpoints(self, chain):
        path = shortest_path(chain, "a", "d")
        assert path[0] == "a" and path[-1] == "d"
        assert len(path) == 4

    def test_path_to_self(self, chain):
        assert shortest_path(chain, "b", "b") == ["b"]

    def test_path_unreachable_is_none(self, disconnected):
        assert shortest_path(disconnected, "a", "island") is None

    def test_all_pairs_symmetric(self, chain):
        table = all_pairs_shortest_paths(chain)
        for u in table:
            for v, d in table[u].items():
                assert table[v][u] == d


class TestGraphMetrics:
    def test_eccentricity(self, chain):
        assert eccentricity(chain, "a") == 3
        assert eccentricity(chain, "b") == 2

    def test_diameter(self, chain):
        assert diameter(chain) == 3

    def test_diameter_disconnected_uses_components(self, disconnected):
        assert diameter(disconnected) == 1

    def test_average_path_length(self, chain):
        # Ordered pairs: 2*(1+2+3 + 1+2 + 1) = 20 over 12 pairs.
        assert average_path_length(chain) == pytest.approx(20 / 12)

    def test_average_path_length_trivial(self):
        g = UndirectedGraph()
        g.add_node("solo")
        assert average_path_length(g) == 0.0

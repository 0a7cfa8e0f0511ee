"""Unit tests for repro.graph.components and repro.graph.distance."""

import math

import pytest

from repro.exceptions import NodeNotFoundError
from repro.graph import (
    INFINITY,
    DistanceOracle,
    UndirectedGraph,
    connected_components,
    is_connected,
    largest_component,
)


@pytest.fixture
def two_islands():
    g = UndirectedGraph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    g.add_edge("x", "y")
    g.add_node("solo")
    return g


class TestComponents:
    def test_component_count(self, two_islands):
        assert len(connected_components(two_islands)) == 3

    def test_largest_first(self, two_islands):
        components = connected_components(two_islands)
        assert components[0] == {"a", "b", "c"}

    def test_is_connected(self, two_islands):
        assert not is_connected(two_islands)
        g = UndirectedGraph()
        g.add_edge("p", "q")
        assert is_connected(g)

    def test_empty_graph_not_connected(self):
        assert not is_connected(UndirectedGraph())
        assert largest_component(UndirectedGraph()) == set()


class TestDistanceOracle:
    @pytest.fixture
    def oracle(self, two_islands):
        return DistanceOracle(two_islands)

    def test_basic_distances(self, oracle):
        assert oracle.distance("a", "c") == 2
        assert oracle.distance("a", "a") == 0

    def test_unreachable_is_infinite(self, oracle):
        assert oracle.distance("a", "x") == INFINITY
        assert math.isinf(oracle.distance("solo", "a"))

    def test_within_and_at_least(self, oracle):
        assert oracle.within("a", "b", 1)
        assert not oracle.within("a", "c", 1)
        assert oracle.at_least("a", "c", 2)
        # Unreachable pairs satisfy every diverse constraint...
        assert oracle.at_least("a", "x", 100)
        # ...and fail every tight constraint.
        assert not oracle.within("a", "x", 100)

    def test_missing_node_raises(self, oracle):
        with pytest.raises(NodeNotFoundError):
            oracle.distance("ghost", "a")
        with pytest.raises(NodeNotFoundError):
            oracle.distance("a", "ghost")

    def test_pairs_within(self, oracle):
        pairs = {frozenset(p) for p in oracle.pairs_within(1)}
        assert frozenset(("a", "b")) in pairs
        assert frozenset(("a", "c")) not in pairs

    def test_pairs_at_least(self, oracle):
        pairs = {frozenset(p) for p in oracle.pairs_at_least(2)}
        assert frozenset(("a", "c")) in pairs
        assert frozenset(("a", "x")) in pairs  # infinite distance
        assert frozenset(("a", "b")) not in pairs

    def test_matrix_contains_finite_entries_only(self, oracle):
        matrix = oracle.matrix()
        assert matrix["a"]["c"] == 2
        assert "x" not in matrix["a"]

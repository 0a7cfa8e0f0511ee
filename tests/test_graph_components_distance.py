"""Unit tests for repro.graph.components and repro.graph.distance.

The distance oracle is also diffed against
:func:`~repro.graph.traversal.all_pairs_shortest_paths`, the
dictionary BFS, on random graphs with isolated nodes, self-loops and
several components.
"""

import math
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import NodeNotFoundError
from repro.graph import (
    INFINITY,
    DistanceOracle,
    UndirectedGraph,
    all_pairs_shortest_paths,
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


@st.composite
def graphs(draw):
    """A graph over shuffled nodes; edges may be self-loops, nodes isolated."""
    count = draw(st.integers(0, 12))
    graph = UndirectedGraph()
    for i in draw(st.permutations(range(count))):
        graph.add_node(f"v{i}")
    if count:
        ends = st.integers(0, count - 1)
        for i, j in draw(st.lists(st.tuples(ends, ends), max_size=2 * count)):
            graph.add_edge(f"v{i}", f"v{j}")
    return graph


class TestDistanceOracleConformance:
    @settings(max_examples=150, deadline=None)
    @given(graphs(), st.data())
    def test_matches_dictionary_bfs(self, graph, data):
        oracle = DistanceOracle(graph)
        expected = all_pairs_shortest_paths(graph)
        nodes = list(graph.nodes())
        assert oracle.nodes() == nodes
        for u in nodes:
            for v in nodes:
                got = oracle.distance(u, v)
                if v in expected[u]:
                    assert type(got) is int and got == expected[u][v]
                else:
                    assert got == INFINITY
        assert oracle.matrix() == expected
        for d in range(4):
            assert oracle.pairs_within(d) == [
                (u, v)
                for i, u in enumerate(nodes)
                for v in nodes[i + 1 :]
                if expected[u].get(v, INFINITY) <= d
            ]
            assert oracle.pairs_at_least(d) == [
                (u, v)
                for i, u in enumerate(nodes)
                for v in nodes[i + 1 :]
                if expected[u].get(v, INFINITY) >= d
            ]
        # dense(): the oracle's own order, then a drawn subset and order.
        picked = data.draw(st.permutations(nodes))
        picked = picked[: data.draw(st.integers(0, len(picked)))]
        for order in (nodes, picked, nodes):
            flat = array("d", oracle.dense(order).tobytes())
            assert list(flat) == [
                expected[u].get(v, INFINITY) for u in order for v in order
            ]

    @settings(max_examples=50, deadline=None)
    @given(graphs())
    def test_unknown_nodes_raise(self, graph):
        oracle = DistanceOracle(graph)
        nodes = list(graph.nodes())
        for u in nodes[:1]:
            with pytest.raises(NodeNotFoundError):
                oracle.distance(u, "ghost")
            with pytest.raises(NodeNotFoundError):
                oracle.distance("ghost", u)
        with pytest.raises(NodeNotFoundError):
            oracle.dense(nodes + ["ghost"])
        with pytest.raises(NodeNotFoundError):
            oracle.dense(["ghost"] + nodes[:1])

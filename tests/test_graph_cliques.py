"""Unit tests for repro.graph.cliques (both k-clique backends)."""

from itertools import combinations

import pytest

from repro.exceptions import GraphError
from repro.graph import apriori_k_cliques, bron_kerbosch_k_cliques, k_cliques

BACKENDS = (apriori_k_cliques, bron_kerbosch_k_cliques)


def adjacency_from_edges(edges):
    present = {frozenset(edge) for edge in edges}

    def adjacent(u, v):
        return frozenset((u, v)) in present

    return adjacent


@pytest.fixture
def diamond():
    """4-node graph: triangle a-b-c plus pendant d-a."""
    nodes = ["a", "b", "c", "d"]
    adjacent = adjacency_from_edges([("a", "b"), ("b", "c"), ("a", "c"), ("a", "d")])
    return nodes, adjacent


@pytest.mark.parametrize("backend", BACKENDS)
class TestKCliques:
    def test_triangles(self, diamond, backend):
        nodes, adjacent = diamond
        assert backend(nodes, adjacent, 3) == [("a", "b", "c")]

    def test_pairs_are_edges(self, diamond, backend):
        nodes, adjacent = diamond
        pairs = set(backend(nodes, adjacent, 2))
        assert pairs == {("a", "b"), ("a", "c"), ("a", "d"), ("b", "c")}

    def test_singletons(self, diamond, backend):
        nodes, adjacent = diamond
        assert backend(nodes, adjacent, 1) == [(n,) for n in nodes]

    def test_k_zero_vacuous(self, diamond, backend):
        nodes, adjacent = diamond
        assert backend(nodes, adjacent, 0) == [()]

    def test_no_cliques_above_max(self, diamond, backend):
        nodes, adjacent = diamond
        assert backend(nodes, adjacent, 4) == []

    def test_complete_graph_counts(self, backend):
        nodes = list("abcde")
        def adjacent(u, v):
            return True

        for k in range(1, 6):
            expected = len(list(combinations(nodes, k)))
            assert len(backend(nodes, adjacent, k)) == expected

    def test_negative_k_raises(self, diamond, backend):
        nodes, adjacent = diamond
        with pytest.raises(GraphError):
            backend(nodes, adjacent, -1)

    @pytest.mark.parametrize("k", [1, 2])
    def test_duplicate_nodes_rejected(self, backend, k):
        with pytest.raises(GraphError, match="distinct"):
            backend(["a", "a", "b"], lambda u, v: True, k)
        with pytest.raises(GraphError, match="distinct"):
            backend(["a", "a"], lambda u, v: True, k)


class TestBackendsAgree:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_random_graphs(self, seed, k):
        import random

        rng = random.Random(seed)
        nodes = [f"n{i}" for i in range(10)]
        edges = [
            (u, v)
            for i, u in enumerate(nodes)
            for v in nodes[i + 1:]
            if rng.random() < 0.45
        ]
        adjacent = adjacency_from_edges(edges)
        assert set(apriori_k_cliques(nodes, adjacent, k)) == set(
            bron_kerbosch_k_cliques(nodes, adjacent, k)
        )


class TestDispatch:
    def test_named_backends(self, diamond):
        nodes, adjacent = diamond
        assert k_cliques(nodes, adjacent, 3, backend="apriori") == k_cliques(
            nodes, adjacent, 3, backend="bron-kerbosch"
        )

    def test_unknown_backend_raises(self, diamond):
        nodes, adjacent = diamond
        with pytest.raises(GraphError):
            k_cliques(nodes, adjacent, 2, backend="magic")

"""Cross-validation of the hand-rolled substrates against networkx/numpy.

The graph substrate is dependency-free by design, but where networkx
and numpy are installed we use them as independent oracles: BFS
distances, connected components, cliques and stationary distributions
must agree with the reference implementations on random inputs.  The
classes that need them skip without them.  The text-dataset reader is
checked the same way, against a brute-force replay of its rows through
the validating mutation API, which needs neither package.
"""

import random

import pytest

from repro.graph import (
    DistanceOracle,
    UndirectedGraph,
    apriori_k_cliques,
    connected_components,
    diameter,
    shortest_path_lengths,
    stationary_distribution,
    transition_matrix,
)
from repro.model import EntityGraph, parse_qualified_name
from repro.store import load_tsv


@pytest.fixture
def nx():
    """networkx, or a skip where it is not installed."""
    return pytest.importorskip("networkx")


@pytest.fixture
def np():
    """numpy, or a skip where it is not installed."""
    return pytest.importorskip("numpy")


def random_undirected(nx, n, p, seed, weighted=False):
    rng = random.Random(seed)
    ours = UndirectedGraph()
    theirs = nx.Graph()
    for i in range(n):
        ours.add_node(i)
        theirs.add_node(i)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                weight = rng.randint(1, 9) if weighted else 1.0
                ours.add_edge(i, j, float(weight))
                theirs.add_edge(i, j, weight=float(weight))
    return ours, theirs


@pytest.mark.parametrize("seed", range(6))
class TestDistancesAgainstNetworkx:
    def test_single_source_lengths(self, seed, nx):
        ours, theirs = random_undirected(nx, 12, 0.25, seed)
        expected = dict(nx.single_source_shortest_path_length(theirs, 0))
        assert shortest_path_lengths(ours, 0) == expected

    def test_all_pairs_oracle(self, seed, nx):
        ours, theirs = random_undirected(nx, 10, 0.3, seed)
        oracle = DistanceOracle(ours)
        expected = dict(nx.all_pairs_shortest_path_length(theirs))
        for u in range(10):
            for v in range(10):
                if v in expected[u]:
                    assert oracle.distance(u, v) == expected[u][v]
                else:
                    assert oracle.distance(u, v) == float("inf")

    def test_components(self, seed, nx):
        ours, theirs = random_undirected(nx, 14, 0.12, seed)
        mine = sorted(sorted(c) for c in connected_components(ours))
        reference = sorted(sorted(c) for c in nx.connected_components(theirs))
        assert sorted(map(tuple, mine)) == sorted(map(tuple, reference))

    def test_diameter_on_connected(self, seed, nx):
        ours, theirs = random_undirected(nx, 9, 0.5, seed)
        if not nx.is_connected(theirs):
            pytest.skip("disconnected sample")
        assert diameter(ours) == nx.diameter(theirs)

    def test_cliques(self, seed, nx):
        ours, theirs = random_undirected(nx, 10, 0.4, seed)

        def adjacent(u, v):
            return theirs.has_edge(u, v)

        for k in (3, 4):
            mine = set(apriori_k_cliques(list(range(10)), adjacent, k))
            from itertools import combinations

            reference = set()
            for clique in nx.find_cliques(theirs):
                for combo in combinations(sorted(clique), k):
                    reference.add(combo)
            assert mine == reference


@pytest.mark.parametrize("seed", range(4))
class TestStationaryAgainstNumpy:
    def test_matches_eigenvector(self, seed, nx, np):
        ours, _theirs = random_undirected(nx, 8, 0.5, seed, weighted=True)
        nodes = list(ours.nodes())
        matrix = np.array(transition_matrix(ours, nodes, jump_probability=1e-5))
        pi = stationary_distribution(ours, jump_probability=1e-5)
        vec = np.array([pi[node] for node in nodes])
        # pi M = pi within solver tolerance.
        assert np.allclose(vec @ matrix, vec, atol=1e-8)
        # And it matches the dominant left eigenvector from numpy.
        values, vectors = np.linalg.eig(matrix.T)
        dominant = np.argmin(np.abs(values - 1.0))
        reference = np.real(vectors[:, dominant])
        reference = reference / reference.sum()
        assert np.allclose(vec, reference, atol=1e-6)

    def test_unweighted_walk_proportional_to_degree(self, seed, nx):
        """On a connected unweighted graph, pi_i ∝ degree(i) exactly."""
        ours, theirs = random_undirected(nx, 8, 0.6, seed)
        if not nx.is_connected(theirs):
            pytest.skip("disconnected sample")
        pi = stationary_distribution(ours, jump_probability=0.0)
        total_degree = sum(dict(theirs.degree()).values())
        for node in theirs.nodes():
            assert pi[node] == pytest.approx(
                theirs.degree(node) / total_degree, abs=1e-9
            )


class TestStoreScanOracle:
    """The text reader must equal a brute-force replay of its rows.

    Random rows (typing and relationship rows over a few terms, repeated,
    with random counts, in random order) go through :func:`load_tsv`;
    the oracle replays the same rows one mutation at a time: each
    entity's typing rows in first-seen order, then each distinct
    relationship row, in first-seen order, as often as its counts sum.
    """

    @staticmethod
    def replay(rows):
        graph = EntityGraph(name="oracle")
        typing = [(s, o) for s, p, o, _n in rows if p == "a"]
        for entity in dict.fromkeys(s for s, _o in typing):
            graph.add_entity(entity, [o for s, o in typing if s == entity])
        edges = [row[:3] for row in rows if row[1] != "a"]
        for s, p, o in dict.fromkeys(edges):
            total = sum(row[3] for row in rows if row[:3] == (s, p, o))
            for _ in range(total):
                graph.add_relationship(s, o, parse_qualified_name(p))
        return graph

    @pytest.mark.parametrize("seed", range(5))
    def test_random_patterns(self, seed, tmp_path):
        rng = random.Random(seed)
        types = {
            f"e{i}": rng.sample(["T0", "T1", "T2"], rng.randint(1, 2))
            for i in range(6)
        }
        rows = [(e, "a", t, rng.randint(1, 2)) for e, ts in types.items() for t in ts]
        rows += rng.sample(rows, 4)  # repeated typing rows
        for _ in range(30):
            s, o = rng.choice(sorted(types)), rng.choice(sorted(types))
            predicate = "|".join(
                (rng.choice(types[s]), rng.choice(["r0", "r1"]), rng.choice(types[o]))
            )
            rows.append((s, predicate, o, rng.randint(1, 3)))
        rows += rng.sample(rows, 10)  # repeated relationship and typing rows
        rng.shuffle(rows)
        path = tmp_path / "rows.tsv"
        path.write_text("".join(f"{s}\t{p}\t{o}\t{n}\n" for s, p, o, n in rows))

        loaded, expected = load_tsv(path, name="oracle"), self.replay(rows)
        assert list(loaded.entities()) == list(expected.entities())
        assert loaded.entity_types() == expected.entity_types()
        for entity in expected.entities():
            assert loaded.types_of(entity) == expected.types_of(entity)
        assert list(loaded.relationships()) == list(expected.relationships())
        assert loaded.generation == expected.generation

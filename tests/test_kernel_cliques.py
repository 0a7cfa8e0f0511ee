"""Clique-group enumeration in the kernel: one order on every backend.

:meth:`repro.kernel.KernelBackend.qualifying_subsets` is the first step
of the paper's Alg. 3: every k-subset of key types whose pairs all meet
the distance bound.  Score ties break by position in that enumeration,
so a backend's join must reproduce
:func:`repro.graph.cliques.apriori_k_cliques` element by element *and in
order*.  Coverage:

* a hypothesis property diffing the numpy join against the reference
  join on random schema-like graphs (unreachable pairs, tight and
  diverse, ``d`` 0-4, ``k`` 1-6 including ``k`` above the node count);
* the :class:`~repro.kernel.numpy_backend.SubsetMatrix` sequence
  contract, including a pickle round trip through a real 2-worker
  :class:`~repro.parallel.ShardedExecutor`;
* the reference backends keep returning the plain list from
  :mod:`repro.graph.cliques`, so they stay an independent check.
"""

from __future__ import annotations

import pickle
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import kernel, plan
from repro.core.apriori import qualifying_subsets
from repro.core.candidates import eligible_key_types
from repro.core.constraints import DistanceConstraint, SizeConstraint
from repro.datasets import random_schema_graph
from repro.exceptions import GraphError, NodeNotFoundError, UnknownTypeError
from repro.graph.cliques import apriori_k_cliques, k_cliques
from repro.graph.distance import INFINITY, DistanceOracle
from repro.graph.simple import UndirectedGraph
from repro.parallel import ScoringSnapshot, ShardedExecutor
from repro.scoring import ScoringContext

NUMPY_MISSING = "numpy" not in kernel.available_backends()
needs_numpy = pytest.mark.skipif(NUMPY_MISSING, reason="no numpy")


def oracle_for(node_count, edges) -> DistanceOracle:
    """Distance oracle over nodes ``n0..`` joined by ``edges`` (index pairs)."""
    graph = UndirectedGraph()
    for i in range(node_count):
        graph.add_node(f"n{i}")
    for i, j in edges:
        graph.add_edge(f"n{i}", f"n{j}")
    return DistanceOracle(graph)


def reference(nodes, oracle, distance, k):
    """The paper's level-wise join over per-pair checks."""
    return apriori_k_cliques(
        nodes, lambda a, b: distance.pair_ok(oracle, a, b), k
    )


@st.composite
def schemas(draw):
    """A sparse random graph and a node order over a subset of its nodes."""
    node_count = draw(st.integers(0, 9))
    pairs = list(combinations(range(node_count), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    order = draw(st.permutations(range(node_count)))
    keep = draw(st.integers(0, node_count))
    return oracle_for(node_count, edges), [f"n{i}" for i in order[:keep]]


@needs_numpy
class TestNumpyJoin:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        schemas(),
        st.sampled_from(["tight", "diverse"]),
        st.integers(0, 4),
        st.integers(1, 6),
    )
    def test_matches_apriori_in_order(self, schema, mode, d, k):
        self.check_against_apriori(schema, mode, d, k)

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        schemas(),
        st.sampled_from(["tight", "diverse"]),
        st.integers(0, 4),
        st.integers(2, 6),
    )
    def test_matches_apriori_across_chunk_edges(self, schema, mode, d, k):
        """Three rows per join chunk: chunk edges fall inside each level."""
        from repro.kernel import numpy_backend

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numpy_backend, "BATCH_SIZE", 3)
            self.check_against_apriori(schema, mode, d, k)

    @staticmethod
    def check_against_apriori(schema, mode, d, k):
        oracle, nodes = schema
        distance = DistanceConstraint.from_mode(d, mode)
        expected = reference(nodes, oracle, distance, k)
        got = kernel.get_backend("numpy").qualifying_subsets(
            nodes, oracle, distance, k
        )
        assert len(got) == len(expected)
        assert list(got) == expected
        assert [got[i] for i in range(len(got))] == expected

    @pytest.mark.parametrize("mode", ["tight", "diverse"])
    @pytest.mark.parametrize("d", range(5))
    @pytest.mark.parametrize("k", range(1, 7))
    def test_two_components(self, mode, d, k):
        """Unreachable pairs fail every tight bound, meet every diverse one."""
        # A path n0-n1-n2-n3 and a triangle n4-n5-n6: cross pairs are
        # unreachable; k=6 exceeds every clique the graph can hold.
        oracle = oracle_for(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6)])
        nodes = [f"n{i}" for i in range(7)]
        distance = DistanceConstraint.from_mode(d, mode)
        expected = reference(nodes, oracle, distance, k)
        got = kernel.get_backend("numpy").qualifying_subsets(
            nodes, oracle, distance, k
        )
        assert list(got) == expected

    def test_empty_and_oversized_groups(self):
        oracle = oracle_for(3, [(0, 1), (1, 2)])
        nodes = ["n0", "n1", "n2"]
        backend = kernel.get_backend("numpy")
        # Distinct types are never at distance 0: no tight d=0 pair.
        empty = backend.qualifying_subsets(
            nodes, oracle, DistanceConstraint.tight(0), 2
        )
        assert len(empty) == 0 and not empty and list(empty) == []
        oversized = backend.qualifying_subsets(
            nodes, oracle, DistanceConstraint.tight(4), 4
        )
        assert len(oversized) == 0
        single = backend.qualifying_subsets(
            ["n0"], oracle, DistanceConstraint.tight(4), 2
        )
        assert list(single) == []

    def test_argument_checks_match_reference(self):
        oracle = oracle_for(2, [(0, 1)])
        backend = kernel.get_backend("numpy")
        tight = DistanceConstraint.tight(2)
        with pytest.raises(GraphError, match="distinct"):
            backend.qualifying_subsets(["n0", "n0"], oracle, tight, 2)
        with pytest.raises(GraphError, match="non-negative"):
            backend.qualifying_subsets(["n0", "n1"], oracle, tight, -1)
        with pytest.raises(NodeNotFoundError):
            backend.qualifying_subsets(["n0", "ghost"], oracle, tight, 2)
        assert list(backend.qualifying_subsets(["n0"], oracle, tight, 0)) == [()]


def random_context(seed=7) -> ScoringContext:
    """A random schema with a clique group large enough to shard."""
    return ScoringContext(random_schema_graph(14, 40, seed=seed))


@needs_numpy
class TestSubsetMatrix:
    @pytest.fixture
    def matrix(self):
        """All 3-subsets of six mutually adjacent nodes (20 rows)."""
        oracle = oracle_for(6, combinations(range(6), 2))
        nodes = [f"n{i}" for i in range(6)]
        return kernel.get_backend("numpy").qualifying_subsets(
            nodes, oracle, DistanceConstraint.tight(1), 3
        ), list(combinations(nodes, 3))

    def test_len_indices_and_iteration(self, matrix):
        got, expected = matrix
        assert len(got) == len(expected) == 20
        for at in (0, 1, 7, 19, -1, -7, -20):
            assert got[at] == expected[at]
            assert type(got[at]) is tuple
        for at in (20, -21):
            with pytest.raises(IndexError):
                got[at]
        assert list(got) == expected
        assert list(reversed(got)) == expected[::-1]
        assert expected[5] in got and got.index(expected[5]) == 5

    def test_slices_are_matrices(self, matrix):
        got, expected = matrix
        for window in (slice(2, 7), slice(None, None, 3), slice(-4, None),
                       slice(5, 2), slice(None)):
            part = got[window]
            assert type(part) is type(got)
            assert list(part) == expected[window]
            assert len(part) == len(expected[window])

    def test_rows_are_compact_and_read_only(self, matrix):
        got, _ = matrix
        assert got.rows.dtype.itemsize == 1
        assert not got.rows.flags.writeable

    def test_wide_node_sets_use_a_wider_dtype(self):
        """Past 256 nodes the indices no longer fit a byte."""
        count = 300
        oracle = oracle_for(count, [(i, i + 1) for i in range(count - 1)])
        nodes = [f"n{i}" for i in range(count)]
        distance = DistanceConstraint.tight(2)
        got = kernel.get_backend("numpy").qualifying_subsets(
            nodes, oracle, distance, 3
        )
        assert got.rows.dtype.itemsize == 2
        assert list(got) == reference(nodes, oracle, distance, 3)
        assert got[-1] == ("n297", "n298", "n299")

    def test_pickle_round_trip(self, matrix):
        got, expected = matrix
        for part in (got, got[3:11]):
            restored = pickle.loads(pickle.dumps(part))
            assert list(restored) == list(part)
            assert restored.nodes == part.nodes

    def test_scores_match_the_list_form(self):
        context = random_context()
        size = SizeConstraint(k=3, n=6)
        with kernel.use_backend("numpy") as backend:
            group = qualifying_subsets(
                context, size, DistanceConstraint.tight(3)
            )
            columns = backend.lower(context.candidate_pool())
            assert len(group) > 10
            for extra_cap in (0, 1, 3):
                as_matrix = backend.batch_scores(columns, group, extra_cap)
                as_list = backend.batch_scores(columns, list(group), extra_cap)
                assert [s.hex() if s is not None else None for s in as_matrix] == [
                    s.hex() if s is not None else None for s in as_list
                ]

    def test_unknown_type_raises_only_when_referenced(self):
        oracle = oracle_for(3, [(0, 1), (1, 2), (0, 2)])
        backend = kernel.get_backend("numpy")
        group = backend.qualifying_subsets(
            ["n0", "n1", "n2"], oracle, DistanceConstraint.tight(1), 2
        )
        snapshot = ScoringSnapshot(
            index={"n0": 0, "n1": 1}, weighted=((3.0, 1.0), (2.0, 1.0))
        )
        columns = backend.lower(snapshot)
        assert backend.best_allocation(columns, group[:1], 1) == (6.0, 0)
        with pytest.raises(UnknownTypeError) as raised:
            backend.best_allocation(columns, group, 1)
        with pytest.raises(UnknownTypeError) as listed:
            backend.best_allocation(columns, list(group), 1)
        assert raised.value.args == listed.value.args

    def test_sharded_pickle_round_trip_matches_list(self):
        """Slices of the matrix cross a real 2-worker pool unchanged."""
        context = random_context()
        size = SizeConstraint(k=3, n=7)
        pool = context.candidate_pool()
        snapshot = ScoringSnapshot.from_pool(pool)
        with kernel.use_backend("numpy"):
            group = qualifying_subsets(context, size, DistanceConstraint.tight(3))
            assert type(group) is not list and len(group) > 10
            serial = kernel.best_allocation(pool, list(group), size.n - size.k)
            with plan.use_mode("sharded"), ShardedExecutor(2) as executor:
                sharded = executor.best_allocation(snapshot, group, size.n - size.k)
                listed = executor.best_allocation(
                    snapshot, list(group), size.n - size.k
                )
                assert executor._pool is not None  # a real pool ran
        assert sharded == listed == serial
        assert sharded[0].hex() == serial[0].hex()


class TestReferenceBackends:
    @pytest.mark.parametrize("name", ["oracle", "python"])
    @pytest.mark.parametrize("mode,d", [("tight", 2), ("tight", 3), ("diverse", 2)])
    def test_group_is_the_plain_clique_list(self, name, mode, d):
        context = random_context()
        size = SizeConstraint(k=3, n=6)
        distance = DistanceConstraint.from_mode(d, mode)
        oracle = context.schema.distance_oracle()
        expected = k_cliques(
            eligible_key_types(context),
            lambda a, b: distance.pair_ok(oracle, a, b),
            size.k,
        )
        with kernel.use_backend(name):
            group = qualifying_subsets(context, size, distance)
        assert type(group) is list
        assert group == expected

    @needs_numpy
    @pytest.mark.parametrize("mode,d", [("tight", 2), ("tight", 3), ("diverse", 2)])
    def test_numpy_group_matches_reference_group(self, mode, d):
        context = random_context()
        size = SizeConstraint(k=3, n=6)
        distance = DistanceConstraint.from_mode(d, mode)
        with kernel.use_backend("python"):
            expected = qualifying_subsets(context, size, distance)
        with kernel.use_backend("numpy"):
            got = qualifying_subsets(context, size, distance)
        assert list(got) == expected

    def test_bron_kerbosch_stays_on_the_graph_module(self):
        context = random_context()
        size = SizeConstraint(k=3, n=6)
        distance = DistanceConstraint.tight(3)
        group = qualifying_subsets(context, size, distance, "bron-kerbosch")
        assert type(group) is list
        with kernel.use_backend("python"):
            assert group == qualifying_subsets(context, size, distance)


class TestDenseDistances:
    def test_rows_follow_the_node_order(self):
        oracle = oracle_for(4, [(0, 1), (1, 2)])
        nodes = ["n2", "n0", "n3", "n1"]
        table = oracle.dense(nodes)
        assert len(table) == len(nodes) ** 2
        for i, u in enumerate(nodes):
            for j, v in enumerate(nodes):
                assert table[i * len(nodes) + j] == oracle.distance(u, v)
        assert table[0 * 4 + 2] == INFINITY  # n2 and n3 are unreachable

    def test_read_only_and_cached_for_the_last_nodes(self):
        oracle = oracle_for(3, [(0, 1)])
        first = oracle.dense(["n0", "n1", "n2"])
        assert first.readonly
        with pytest.raises(TypeError):
            first[0] = 5.0
        assert oracle.dense(("n0", "n1", "n2")).obj is first.obj
        other = oracle.dense(["n1", "n0"])
        assert other.obj is not first.obj
        assert list(other) == [0.0, 1.0, 1.0, 0.0]

    def test_unknown_node_raises(self):
        oracle = oracle_for(2, [(0, 1)])
        with pytest.raises(NodeNotFoundError):
            oracle.dense(["n0", "ghost"])
        assert len(oracle.dense([])) == 0

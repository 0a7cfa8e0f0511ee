"""Tests for the algorithm registry and the PreviewEngine."""

import importlib
import logging

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import config, kernel, plan
from repro.core import (
    ALGORITHMS,
    DISCOVERY_ALGORITHMS,
    DistanceConstraint,
    SizeConstraint,
    apriori_discover,
    available_algorithms,
    constraint_shape,
    discover_preview,
    make_context,
    register_discovery_algorithm,
    resolve_algorithm,
    unregister_discovery_algorithm,
)
from repro.core.serialize import result_to_dict
from repro.engine import PreviewEngine, PreviewQuery
from repro.exceptions import (
    DiscoveryError,
    InfeasiblePreviewError,
    InvalidConstraintError,
)
from repro.ext import IncrementalEntityGraph
from repro.model import RelationshipTypeId

#: The module whose ``build_allocation_profile`` materializes every
#: winner (``best_preview_for_keys`` looks the name up there).
CANDIDATES_MODULE = importlib.import_module("repro.core.candidates")

#: Worker count for the sharded legs (CI pins REPRO_TEST_JOBS=2/4).
JOBS = config.test_jobs()

ACTED = RelationshipTypeId("Acted In", "ACTOR", "FILM")
DIRECTED = RelationshipTypeId("Directed", "DIRECTOR", "FILM")
HAS_GENRE = RelationshipTypeId("Has Genre", "FILM", "GENRE")


def live_graph() -> IncrementalEntityGraph:
    """Three films, one actor in all of them, one director of one."""
    inc = IncrementalEntityGraph(name="live")
    for i in range(3):
        inc.add_entity(f"film{i}", ["FILM"])
    inc.add_entity("actor0", ["ACTOR"])
    inc.add_entity("director0", ["DIRECTOR"])
    for i in range(3):
        inc.add_relationship("actor0", f"film{i}", ACTED)
    inc.add_relationship("director0", "film0", DIRECTED)
    return inc


class TestRegistry:
    def test_all_four_algorithms_registered(self):
        assert set(DISCOVERY_ALGORITHMS) == {
            "brute-force",
            "dynamic-programming",
            "apriori",
            "branch-and-bound",
        }
        for name in DISCOVERY_ALGORITHMS:
            assert name in ALGORITHMS
        assert available_algorithms()[0] == "auto"

    def test_declared_shapes(self):
        assert DISCOVERY_ALGORITHMS["dynamic-programming"].shapes == {"concise"}
        assert DISCOVERY_ALGORITHMS["apriori"].shapes == {"tight", "diverse"}
        for name in ("brute-force", "branch-and-bound"):
            assert DISCOVERY_ALGORITHMS[name].shapes == {
                "concise",
                "tight",
                "diverse",
            }

    def test_constraint_shape(self):
        assert constraint_shape(None) == "concise"
        assert constraint_shape(DistanceConstraint.tight(2)) == "tight"
        assert constraint_shape(DistanceConstraint.diverse(2)) == "diverse"

    def test_auto_resolves_to_papers_pairing(self):
        assert resolve_algorithm("auto", "concise").name == "dynamic-programming"
        assert resolve_algorithm("auto", "tight").name == "apriori"
        assert resolve_algorithm("auto", "diverse").name == "apriori"

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(DiscoveryError, match="unknown algorithm"):
            resolve_algorithm("quantum", "concise")

    def test_dp_with_distance_rejected_via_registry(self, fig1_graph):
        """Satellite: forcing the DP onto a distance constraint must fail
        through the registry path with a DiscoveryError."""
        with pytest.raises(DiscoveryError, match="does not support tight"):
            discover_preview(
                fig1_graph, k=2, n=6, d=2, algorithm="dynamic-programming"
            )
        with pytest.raises(DiscoveryError, match="does not support diverse"):
            discover_preview(
                fig1_graph,
                k=2,
                n=6,
                d=2,
                mode="diverse",
                algorithm="dynamic-programming",
            )

    def test_apriori_without_distance_rejected(self, fig1_graph):
        with pytest.raises(DiscoveryError, match="does not support concise"):
            discover_preview(fig1_graph, k=2, n=6, algorithm="apriori")

    def test_registration_validation(self):
        with pytest.raises(DiscoveryError, match="unknown constraint shapes"):
            register_discovery_algorithm("bad", shapes=("cosy",))
        with pytest.raises(DiscoveryError, match="at least one shape"):
            register_discovery_algorithm("bad", shapes=())

    def test_third_party_algorithm_registers_and_dispatches(self, fig1_graph):
        """A registered third-party algorithm is selectable by name."""
        calls = []

        @register_discovery_algorithm(
            "always-brute", shapes=("concise", "tight", "diverse")
        )
        def _always_brute(context, size, distance=None):
            calls.append((size.k, size.n))
            from repro.core import brute_force_discover

            return brute_force_discover(context, size, distance)

        try:
            result = discover_preview(
                fig1_graph, k=2, n=6, algorithm="always-brute"
            )
            assert calls == [(2, 6)]
            reference = discover_preview(fig1_graph, k=2, n=6)
            assert result.score == pytest.approx(reference.score)
        finally:
            unregister_discovery_algorithm("always-brute")
        assert "always-brute" not in DISCOVERY_ALGORITHMS


class TestPreviewQuery:
    def test_cache_key_ignores_mode_without_distance(self):
        a = PreviewQuery(k=2, n=6, mode="tight")
        b = PreviewQuery(k=2, n=6, mode="diverse")
        assert a.cache_key() == b.cache_key()
        c = PreviewQuery(k=2, n=6, d=2, mode="diverse")
        assert a.cache_key() != c.cache_key()

    def test_shape_and_describe(self):
        assert PreviewQuery(k=2, n=6).shape() == "concise"
        query = PreviewQuery(k=2, n=6, d=3, mode="diverse")
        assert query.shape() == "diverse"
        assert query.describe() == "k=2, n=6, diverse d=3"

    def test_invalid_mode_raises(self):
        with pytest.raises(DiscoveryError):
            PreviewQuery(k=2, n=6, d=2, mode="cosy").distance()

    def test_grid_is_deterministic_cross_product(self):
        grid = list(
            PreviewQuery.grid(
                ks=(1, 2), ns=(3, 4), distances=[None, (2, "tight")]
            )
        )
        assert len(grid) == 8
        assert grid[0] == PreviewQuery(k=1, n=3)
        assert grid[-1] == PreviewQuery(k=2, n=4, d=2, mode="tight")

    def test_grid_rejects_empty_axes(self):
        """An empty axis yields a vacuous sweep — fail loudly instead."""
        with pytest.raises(DiscoveryError, match="grid axis 'ks'"):
            PreviewQuery.grid(ks=(), ns=(4,))
        with pytest.raises(DiscoveryError, match="grid axis 'ns'"):
            PreviewQuery.grid(ks=(2,), ns=())
        with pytest.raises(DiscoveryError, match="grid axis 'distances'"):
            PreviewQuery.grid(ks=(2,), ns=(4,), distances=())

    def test_grid_rejects_exhausted_generator(self):
        ns = (n for n in (4, 5))
        list(PreviewQuery.grid(ks=(2,), ns=ns))  # drains the generator
        with pytest.raises(DiscoveryError, match="grid axis 'ns'"):
            PreviewQuery.grid(ks=(2,), ns=ns)

    def test_grid_validates_eagerly(self):
        """The error must fire at grid() time, not at first iteration."""
        with pytest.raises(DiscoveryError):
            PreviewQuery.grid(ks=(), ns=(4,))  # no list() needed


class TestPreviewEngine:
    def test_accepts_graph_schema_and_context(self, fig1_graph, fig1_schema):
        for data in (fig1_graph, fig1_schema, make_context(fig1_graph)):
            result = PreviewEngine(data).query(k=2, n=6)
            assert result.preview.table_count == 2

    def test_matches_facade_for_every_algorithm(self, fig1_graph):
        context = make_context(fig1_graph)
        engine = PreviewEngine(context)
        cases = [
            dict(algorithm="auto"),
            dict(algorithm="brute-force"),
            dict(algorithm="dynamic-programming"),
            dict(algorithm="branch-and-bound"),
            dict(d=1, mode="tight", algorithm="auto"),
            dict(d=1, mode="tight", algorithm="apriori"),
            dict(d=1, mode="tight", algorithm="brute-force"),
            dict(d=1, mode="tight", algorithm="branch-and-bound"),
            dict(d=2, mode="diverse", algorithm="apriori"),
        ]
        for case in cases:
            expected = discover_preview(context, k=2, n=6, **case)
            actual = engine.query(k=2, n=6, **case)
            assert actual == expected, case

    def test_apriori_fast_path_matches_legacy_algorithm(self, fig1_context):
        """The sweep fast path must replicate apriori_discover exactly."""
        engine = PreviewEngine(fig1_context)
        for d, mode in ((1, "tight"), (2, "tight"), (2, "diverse")):
            for n in range(2, 7):
                constraint = (
                    DistanceConstraint.tight(d)
                    if mode == "tight"
                    else DistanceConstraint.diverse(d)
                )
                legacy = apriori_discover(
                    fig1_context, SizeConstraint(k=2, n=n), constraint
                )
                if legacy is None:
                    with pytest.raises(InfeasiblePreviewError):
                        engine.query(k=2, n=n, d=d, mode=mode)
                else:
                    assert engine.query(k=2, n=n, d=d, mode=mode) == legacy

    def test_shadowed_apriori_beats_fast_path(self, fig1_graph):
        """Latest-wins registration must also win over the sweep fast path."""
        calls = []
        original = DISCOVERY_ALGORITHMS["apriori"]

        @register_discovery_algorithm("apriori", shapes=("tight", "diverse"))
        def _shadow(context, size, distance=None):
            calls.append(size.n)
            return original.run(context, size, distance)

        try:
            engine = PreviewEngine(fig1_graph)
            engine.query(k=2, n=6, d=1, mode="tight", algorithm="apriori")
            assert calls == [6]  # the shadow ran, not the built-in fast path
        finally:
            DISCOVERY_ALGORITHMS["apriori"] = original

    def test_reregistration_is_not_served_stale_results(self, fig1_graph):
        """Memo entries are keyed by the resolved spec, not just the name."""
        engine = PreviewEngine(fig1_graph)
        first = engine.query(k=2, n=6, algorithm="brute-force")
        original = DISCOVERY_ALGORITHMS["brute-force"]

        @register_discovery_algorithm(
            "brute-force", shapes=("concise", "tight", "diverse")
        )
        def _replacement(context, size, distance=None):
            return None  # everything is suddenly infeasible

        try:
            with pytest.raises(InfeasiblePreviewError):
                engine.query(k=2, n=6, algorithm="brute-force")
        finally:
            DISCOVERY_ALGORITHMS["brute-force"] = original
        # And the original spec's cached result is still served afterwards.
        assert engine.query(k=2, n=6, algorithm="brute-force") is first

    def test_memoizes_results(self, fig1_graph):
        engine = PreviewEngine(fig1_graph)
        first = engine.query(k=2, n=6)
        second = engine.query(k=2, n=6)
        assert second is first  # cached object, not a recomputation
        info = engine.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_memoizes_infeasibility(self, fig1_graph):
        engine = PreviewEngine(fig1_graph)
        for _ in range(2):
            with pytest.raises(InfeasiblePreviewError):
                engine.query(k=3, n=6, d=3, mode="diverse")
        info = engine.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_sweep_matches_per_call_facade(self, fig1_graph):
        context = make_context(fig1_graph)
        engine = PreviewEngine(context)
        grid = list(
            PreviewQuery.grid(
                ks=(1, 2),
                ns=(4, 5, 6),
                distances=[None, (1, "tight"), (2, "diverse")],
            )
        )
        swept = engine.sweep(grid, skip_infeasible=True)
        assert len(swept) == len(grid)
        for query, result in zip(grid, swept):
            try:
                expected = discover_preview(
                    context,
                    k=query.k,
                    n=query.n,
                    d=query.d,
                    mode=query.mode,
                    algorithm=query.algorithm,
                )
            except InfeasiblePreviewError:
                expected = None
            assert result == expected, query

    def test_sweep_raises_on_infeasible_by_default(self, fig1_graph):
        engine = PreviewEngine(fig1_graph)
        with pytest.raises(InfeasiblePreviewError):
            engine.sweep([PreviewQuery(k=3, n=6, d=3, mode="diverse")])

    def test_sweep_shares_pruning_state_across_n(self, fig1_graph):
        engine = PreviewEngine(fig1_graph)
        engine.sweep(
            [PreviewQuery(k=2, n=n, d=1, mode="tight") for n in (4, 5, 6)]
        )
        # One clique group serves all three attribute budgets.
        assert engine.cache_info()["profile_groups"] == 1

    def test_invalidate_clears_caches(self, fig1_graph):
        engine = PreviewEngine(fig1_graph)
        engine.query(k=2, n=6)
        engine.invalidate()
        info = engine.cache_info()
        assert info["results"] == 0 and info["invalidations"] == 1
        assert engine.query(k=2, n=6).preview.table_count == 2


class TestEngineCacheInvalidation:
    """Generation-driven invalidation over a mutating entity graph."""

    @pytest.fixture
    def live(self):
        return live_graph()

    def test_engine_is_cached_per_scorer_pair(self, live):
        assert live.engine() is live.engine()
        assert live.engine() is not live.engine("random_walk")

    def test_mutation_invalidates_and_resolves_fresh(self, live):
        engine = live.engine()
        before = engine.query(k=1, n=2)
        assert engine.query(k=1, n=2) is before  # cached while unchanged

        # A directing spree makes DIRECTED the dominant relationship.
        for i in range(1, 3):
            live.add_relationship("director0", f"film{i}", DIRECTED)
        for i in range(10):
            live.add_entity(f"film{i + 3}", ["FILM"])
            live.add_relationship("director0", f"film{i + 3}", DIRECTED)

        after = engine.query(k=1, n=2)
        # FILM/DIRECTOR scores moved, so the writes evicted the entry.
        assert engine.cache_info()["evicted"] >= 1
        assert engine.cache_info()["generation"] == live.generation
        assert after.score > before.score  # re-solved against fresh scores
        # And identical to a from-scratch discovery on the mutated graph.
        fresh = discover_preview(live.context(), k=1, n=2)
        assert after == fresh

    def test_discover_routes_through_generation_aware_engine(self, live):
        first = live.discover(k=1, n=2)
        second = live.discover(k=1, n=2)
        assert second is first  # memo hit between mutations
        live.add_entity("film99", ["FILM"])
        third = live.discover(k=1, n=2)
        assert third is not first

    def test_distance_sweep_state_dropped_on_mutation(self, live):
        # A structural mutation (a new entity type) drops the cached
        # clique group; the next sweep re-enumerates it.
        engine = live.engine()
        point = [PreviewQuery(k=2, n=4, d=2, mode="tight")]
        engine.sweep(point)
        assert engine.cache_info()["profile_groups"] == 1
        live.add_entity("genre0", ["GENRE"])
        engine.sweep(point)
        info = engine.cache_info()
        assert info["generation"] == live.generation
        assert info["profile_groups"] == 1  # rebuilt for the new generation

    def test_cache_info_syncs_generation_before_reporting(self, live):
        """Regression: cache_info() must not report a stale generation.

        It used to read ``_cache_generation`` without syncing, so between
        a tracked-source mutation and the next query it reported the old
        generation alongside pre-invalidation cache sizes.

        The mutation (an entity of the existing FILM type) is
        non-structural, so both cached results are evicted, but the
        clique group survives (it depends on schema structure only) and
        no full invalidation is recorded.
        """
        engine = live.engine()
        engine.query(k=1, n=2)
        # A tight point, so a clique group exists.
        engine.sweep([PreviewQuery(k=2, n=4, d=2, mode="tight")])
        live.add_entity("film-new", ["FILM"])
        info = engine.cache_info()  # no query ran since the mutation
        assert info["generation"] == live.generation
        assert info["results"] == 0  # evicted, not the stale sizes
        assert info["profile_groups"] == 1  # clique group retained
        assert info["invalidations"] == 0  # memo only, not a full drop
        assert info["evicted"] == 2 and info["retained"] == 0

    def test_sweep_fast_path_under_interleaved_mutation(self, live):
        """Sweep answers after a mutation must match fresh discovery.

        Interleaves mutations between sweep batches; every post-mutation
        result must equal a from-scratch ``apriori_discover`` on the
        current generation (guards the ordering of ``_sync_generation``
        before any point reads the cached clique group: a point scored
        before the generation check would serve the previous graph's
        scores).
        """
        engine = live.engine()
        grid = [PreviewQuery(k=2, n=n, d=2, mode="tight") for n in (3, 4, 5)]
        for batch in range(3):
            results = engine.sweep(grid, skip_infeasible=True)
            context = live.context()
            for query, result in zip(grid, results):
                fresh = apriori_discover(
                    context,
                    SizeConstraint(k=query.k, n=query.n),
                    DistanceConstraint.tight(query.d),
                )
                assert result == fresh, (batch, query)
            # Mutate between batches: new entities and a relationship
            # spree that reshuffles the coverage scores.
            live.add_entity(f"film-extra{batch}", ["FILM"])
            live.add_relationship(
                "director0", f"film-extra{batch}", DIRECTED
            )
            live.add_relationship("actor0", f"film-extra{batch}", ACTED)


class TestPlainGraphEngine:
    """An engine built on a plain EntityGraph follows the graph's log."""

    CONCISE = PreviewQuery(k=1, n=2)
    TIGHT = PreviewQuery(k=2, n=4, d=1, mode="tight")

    @staticmethod
    def assert_fresh(engine, graph, query):
        """The engine answers ``query`` like one-shot discovery on ``graph``."""
        answer = engine.run(query)
        expected = discover_preview(
            graph, k=query.k, n=query.n, d=query.d, mode=query.mode
        )
        assert result_to_dict(answer) == result_to_dict(expected), query
        assert answer.score.hex() == expected.score.hex(), query
        return answer

    def test_writes_reach_an_engine_on_a_plain_graph(self):
        graph = live_graph().entity_graph
        engine = PreviewEngine(graph)
        before = engine.run(self.CONCISE)
        engine.run(self.TIGHT)

        # Non-structural: a directing spree moves the concise winner.
        for i in range(10):
            graph.add_entity(f"director{i + 1}", ["DIRECTOR"])
            graph.add_relationship(f"director{i + 1}", "film0", DIRECTED)
        after = self.assert_fresh(engine, graph, self.CONCISE)
        assert after.preview.keys() != before.preview.keys()
        info = engine.cache_info()
        assert info["generation"] == graph.generation
        assert info["profile_groups"] == 1 and info["invalidations"] == 0
        self.assert_fresh(engine, graph, self.TIGHT)
        assert engine.verify_against_rescan()

        # Structural: a new entity type drops the groups; they rebuild.
        graph.add_entity("genre0", ["GENRE"])
        graph.add_relationship("film0", "genre0", HAS_GENRE)
        info = engine.cache_info()
        assert info["profile_groups"] == 0 and info["invalidations"] == 1
        self.assert_fresh(engine, graph, self.TIGHT)
        assert engine.cache_info()["profile_groups"] == 1
        assert engine.verify_against_rescan()

        # More writes than the log retains: a full rebuild.
        for i in range(graph.mutation_log.max_entries + 1):
            graph.add_entity(f"film-bulk{i}", ["FILM"])
        info = engine.cache_info()
        assert info["profile_groups"] == 0 and info["invalidations"] == 2
        assert info["generation"] == graph.generation
        self.assert_fresh(engine, graph, self.CONCISE)
        self.assert_fresh(engine, graph, self.TIGHT)
        assert engine.verify_against_rescan()

    def test_static_inputs_stay_static(self):
        graph = live_graph().entity_graph
        engine = PreviewEngine(make_context(graph))
        first = engine.query(k=2, n=4)
        graph.add_entity("film-extra", ["FILM"])
        assert engine.cache_info()["generation"] == 0
        assert engine.query(k=2, n=4) is first
        assert engine.verify_against_rescan()


def count_profile_builds(monkeypatch):
    """Record the key subset of every allocation profile the engine builds."""
    built = []
    real = CANDIDATES_MODULE.build_allocation_profile

    def counting(pool, keys, cap=None):
        built.append(tuple(keys))
        return real(pool, keys, cap=cap)

    monkeypatch.setattr(CANDIDATES_MODULE, "build_allocation_profile", counting)
    return built


@pytest.fixture
def batched_kernel():
    """Keep a batched backend active: the per-subset oracle kernel scores
    every subset through ``build_allocation_profile`` itself."""
    name = kernel.backend_name()
    with kernel.use_backend("python" if name == "oracle" else name):
        yield


@pytest.mark.usefixtures("batched_kernel")
class TestSweepThroughKernel:
    """Sweep points are answered like one-shot queries.

    Each computed tight/diverse point is one batched kernel call over its
    group's cached qualifying subsets plus one allocation profile, the
    winner's; memo hits build nothing.  The clique group is the only
    state a sweep shares across budgets.
    """

    #: One (k=2, d=2, tight) group: every pair of FILM/ACTOR/DIRECTOR.
    TIGHT = [PreviewQuery(k=2, n=n, d=2, mode="tight") for n in (2, 3, 4, 5)]
    #: One (k=2, d=2, diverse) group: only ACTOR–DIRECTOR is that far apart.
    DIVERSE = [PreviewQuery(k=2, n=n, d=2, mode="diverse") for n in (2, 4)]

    @pytest.mark.parametrize("jobs", [1, JOBS], ids=["serial", f"jobs{JOBS}"])
    def test_one_profile_per_computed_feasible_point(self, monkeypatch, jobs):
        engine = live_graph().engine()
        built = count_profile_builds(monkeypatch)
        grid = self.TIGHT + self.DIVERSE
        with plan.use_mode("sharded"):
            results = engine.sweep(grid, skip_infeasible=True, jobs=jobs)
        assert all(result is not None for result in results)
        assert len(built) == len(grid)
        assert engine.cache_info()["misses"] == len(grid)
        # A repeated sweep is all memo hits and builds nothing.
        engine.sweep(grid, skip_infeasible=True)
        assert len(built) == len(grid)

    def test_profile_groups_counts_cached_clique_groups(self):
        inc = live_graph()
        engine = inc.engine()
        engine.sweep(self.TIGHT)
        assert engine.cache_info()["profile_groups"] == 1
        inc.add_entity("film-new", ["FILM"])  # non-structural
        info = engine.cache_info()
        assert info["profile_groups"] == 1 and info["invalidations"] == 0
        engine.sweep(self.DIVERSE)
        assert engine.cache_info()["profile_groups"] == 2
        inc.add_entity("genre0", ["GENRE"])  # a new type: structural
        info = engine.cache_info()
        assert info["profile_groups"] == 0 and info["invalidations"] == 1


#: Sweep batches the oracle property draws from: tight and diverse
#: groups, budgets deliberately out of order.
ORACLE_SWEEPS = (
    [PreviewQuery(k=2, n=n, d=1, mode="tight") for n in (4, 2, 3)],
    [PreviewQuery(k=2, n=n, d=2, mode="tight") for n in (2, 3, 5, 8)],
    [PreviewQuery(k=2, n=n, d=2, mode="diverse") for n in (3, 2, 6)],
    [PreviewQuery(k=3, n=n, d=2, mode="tight") for n in (3, 4, 7)],
    # Infeasible until a GENRE edge puts a third type two hops away.
    [PreviewQuery(k=3, n=n, d=2, mode="diverse") for n in (5, 3)],
)

oracle_ops = st.lists(
    st.one_of(
        st.tuples(st.just("sweep"), st.integers(0, len(ORACLE_SWEEPS) - 1)),
        st.tuples(
            st.just("entity"),
            st.sampled_from(("FILM", "ACTOR", "DIRECTOR")),
            st.integers(0, 5),
        ),
        st.tuples(st.just("acted"), st.integers(0, 3), st.integers(0, 5)),
        st.tuples(st.just("directed"), st.integers(0, 3), st.integers(0, 5)),
        # The first genre edge is structural (a new type), later ones not.
        st.tuples(st.just("genre"), st.integers(0, 5), st.integers(0, 2)),
    ),
    min_size=1,
    max_size=12,
)


def apply_mutation(inc: IncrementalEntityGraph, op) -> None:
    kind = op[0]
    if kind == "entity":
        inc.add_entity(f"{op[1].lower()}{op[2]}", [op[1]])
        return
    if kind == "genre":
        source, source_type = f"film{op[1]}", "FILM"
        target, target_type, rel = f"genre{op[2]}", "GENRE", HAS_GENRE
    else:
        source_type, rel = (
            ("ACTOR", ACTED) if kind == "acted" else ("DIRECTOR", DIRECTED)
        )
        source = f"{source_type.lower()}{op[1]}"
        target, target_type = f"film{op[2]}", "FILM"
    inc.add_entity(source, [source_type])
    inc.add_entity(target, [target_type])
    inc.add_relationship(source, target, rel)


class TestSweepOracleProperty:
    @pytest.mark.parametrize(
        "key_scorer, nonkey_scorer",
        [
            ("coverage", "coverage"),
            ("random_walk", "coverage"),
            ("coverage", "entropy"),
        ],
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(op_list=oracle_ops)
    def test_sweeps_match_one_shot_oracle_runs(
        self, key_scorer, nonkey_scorer, op_list
    ):
        """Every sweep answer along a random mutate/sweep interleaving
        equals a one-shot ``run`` on a fresh engine scored by the
        per-subset ``oracle`` kernel: same preview, same score bits,
        same number of candidates examined.  The warm engine keeps its
        clique groups across non-structural writes, under every scorer
        pair."""
        inc = live_graph()
        engine = inc.engine(key_scorer, nonkey_scorer)
        closing = [("sweep", index) for index in range(len(ORACLE_SWEEPS))]
        for op in list(op_list) + closing:
            if op[0] != "sweep":
                apply_mutation(inc, op)
                continue
            grid = ORACLE_SWEEPS[op[1]]
            answers = engine.sweep(grid, skip_infeasible=True)
            for query, answer in zip(grid, answers):
                with kernel.use_backend("oracle"):
                    try:
                        expected = PreviewEngine(
                            inc.entity_graph,
                            key_scorer=key_scorer,
                            nonkey_scorer=nonkey_scorer,
                        ).run(query)
                    except InfeasiblePreviewError:
                        expected = None
                if expected is None:
                    assert answer is None, query
                    continue
                assert answer is not None, query
                assert answer.preview == expected.preview, query
                assert answer.score.hex() == expected.score.hex(), query
                assert (
                    answer.candidates_examined == expected.candidates_examined
                ), query


class TestEngineErrorHygiene:
    """Raised queries must not skew cache statistics or leave memo junk."""

    @pytest.mark.parametrize(
        "bad_query",
        [
            PreviewQuery(k=0, n=5),  # k < 1
            PreviewQuery(k=3, n=2),  # n < k
            PreviewQuery(k=2, n=6, d=-1),  # negative distance
            PreviewQuery(k=2, n=6, d=1, mode="cosy"),  # unknown mode
        ],
    )
    def test_malformed_query_leaves_counters_unchanged(
        self, fig1_graph, bad_query
    ):
        engine = PreviewEngine(fig1_graph)
        engine.query(k=2, n=6)  # one real miss on the books
        before = engine.cache_info()
        for _ in range(2):  # retrying must not accumulate skew either
            with pytest.raises(DiscoveryError):
                engine.run(bad_query)
        assert engine.cache_info() == before
        assert before["hits"] == 0 and before["misses"] == 1

    def test_execution_failure_leaves_counters_and_memo_unchanged(
        self, fig1_graph
    ):
        """A query that fails inside the algorithm (k exceeding the
        candidate pool) must leave hit/miss counts and the result cache
        exactly as they were, so retries do not skew cache_info."""
        engine = PreviewEngine(fig1_graph)
        engine.query(k=2, n=6)
        before = engine.cache_info()
        for _ in range(2):
            with pytest.raises(InvalidConstraintError):
                engine.query(k=50, n=60)
        after = engine.cache_info()
        assert after == before
        assert after["results"] == 1  # only the good query is memoized

    def test_sweep_of_zero_queries_returns_empty_and_logs(
        self, fig1_graph, caplog
    ):
        engine = PreviewEngine(fig1_graph)
        with caplog.at_level(logging.WARNING, logger="repro.engine.engine"):
            assert engine.sweep([]) == []
        assert any("zero queries" in record.message for record in caplog.records)
        assert engine.cache_info()["misses"] == 0

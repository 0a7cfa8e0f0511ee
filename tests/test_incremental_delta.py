"""Delta-maintained scoring pipeline, end to end.

Covers the mutation changelog (:class:`MutationLog`), O(delta) patching
of :class:`ScoringContext`/:class:`CandidatePool`/:class:`ScoringSnapshot`,
and the engine's type-scoped invalidation — always against the ground
truth of a from-scratch rebuild, compared bit-for-bit.
"""


import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import make_context
from repro.engine import PreviewEngine, PreviewQuery
from repro.exceptions import InfeasiblePreviewError, ScoringError
from repro.ext import IncrementalEntityGraph
from repro.model import MutationLog, RelationshipTypeId
from repro.parallel import ScoringSnapshot
from repro.scoring import ScoringContext
from repro import config

#: Worker count for the sharded legs (CI pins REPRO_TEST_JOBS=2/4).
JOBS = config.test_jobs()

SMALL = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

ACTED = RelationshipTypeId("Acted In", "ACTOR", "FILM")
DIRECTED = RelationshipTypeId("Directed", "DIRECTOR", "FILM")
WORKS_WITH = RelationshipTypeId("Works With", "ACTOR", "DIRECTOR")
HAS_GENRE = RelationshipTypeId("Has Genre", "FILM", "GENRE")
WON = RelationshipTypeId("Won", "FILM", "AWARD")


def triangle_graph() -> IncrementalEntityGraph:
    """FILM–ACTOR–DIRECTOR triangle plus a FILM→GENRE pendant.

    The triangle is the only 3-clique at distance 1, so a ``k=3, d=1``
    tight sweep's qualifying subsets never contain GENRE — the eligible
    type whose mutations the type-scoped invalidation must survive.
    """
    inc = IncrementalEntityGraph(name="triangle")
    for i in range(3):
        inc.add_entity(f"film{i}", ["FILM"])
    inc.add_entity("actor0", ["ACTOR"])
    inc.add_entity("director0", ["DIRECTOR"])
    inc.add_entity("genre0", ["GENRE"])
    for i in range(3):
        inc.add_relationship("actor0", f"film{i}", ACTED)
    inc.add_relationship("director0", "film0", DIRECTED)
    inc.add_relationship("actor0", "director0", WORKS_WITH)
    inc.add_relationship("film0", "genre0", HAS_GENRE)
    return inc


def fresh_answer(entity_graph, query):
    """The query answered by a from-scratch context and engine."""
    engine = PreviewEngine(make_context(entity_graph))
    try:
        return engine.run(query)
    except InfeasiblePreviewError:
        return None


class TestMutationLog:
    def test_record_bumps_generation_and_folds(self):
        log = MutationLog()
        assert log.dirty_since(0).empty
        log.record(key_types=("A",))
        log.record(key_types=("B",), rel_types=(ACTED,))
        assert log.generation == 2
        delta = log.dirty_since(0)
        assert delta.key_types == {"A", "B"}
        assert delta.rel_types == {ACTED}
        assert not delta.structural and not delta.full
        assert log.dirty_since(1).key_types == {"B"}
        assert log.dirty_since(2).empty

    def test_structural_flag_folds(self):
        log = MutationLog()
        log.record(key_types=("A",), structural=True)
        log.record(key_types=("B",))
        assert log.dirty_since(0).structural
        assert not log.dirty_since(1).structural

    def test_horizon_overflow_answers_full(self):
        log = MutationLog(max_entries=2)
        for name in ("A", "B", "C"):
            log.record(key_types=(name,))
        assert log.dirty_since(0).full  # compacted away
        assert not log.dirty_since(0).patchable
        recent = log.dirty_since(1)  # still inside the window
        assert not recent.full and recent.key_types == {"B", "C"}

    def test_entity_graph_records_mutations(self):
        inc = triangle_graph()
        log = inc.mutation_log
        generation = log.generation
        inc.add_entity("film99", ["FILM"])  # known type: not structural
        delta = inc.dirty_since(generation)
        assert delta.key_types == {"FILM"} and not delta.structural
        inc.add_relationship("film99", "genre0", HAS_GENRE)
        delta = inc.dirty_since(generation)
        assert delta.key_types == {"FILM", "GENRE"}
        assert delta.rel_types == {HAS_GENRE}
        assert not delta.structural
        inc.add_entity("award0", ["AWARD"])  # brand-new type: structural
        assert inc.dirty_since(generation).structural

    def test_noop_mutation_records_empty_delta(self):
        inc = triangle_graph()
        generation = inc.generation
        inc.add_entity("film0", ["FILM"])  # re-add: nothing dirtied
        assert inc.generation == generation + 1
        assert inc.dirty_since(generation).empty


class TestContextPatching:
    def test_coverage_pair_supports_delta(self):
        inc = triangle_graph()
        assert inc.context().supports_delta
        assert not inc.context("random_walk", "coverage").supports_delta
        assert not inc.context("coverage", "entropy").supports_delta

    def test_patched_context_matches_rebuild(self):
        inc = triangle_graph()
        before = inc.context()
        inc.add_entity("film9", ["FILM"])
        inc.add_relationship("actor0", "film9", ACTED)
        patched = inc.context()
        assert patched is not before
        rebuilt = make_context(inc.entity_graph)
        assert patched.key_scores() == rebuilt.key_scores()
        for type_name in rebuilt.schema.entity_types():
            assert patched.sorted_candidates(type_name) == rebuilt.sorted_candidates(
                type_name
            )

    def test_patched_pool_shares_untouched_rows(self):
        inc = triangle_graph()
        old_pool = inc.context().candidate_pool()
        inc.add_entity("genre9", ["GENRE"])  # dirties GENRE only
        new_pool = inc.context().candidate_pool()
        assert new_pool is not old_pool
        genre = old_pool.index["GENRE"]
        for i, type_name in enumerate(old_pool.types):
            if i == genre:
                continue
            # Untouched types share their tuples — O(delta), not a copy.
            assert new_pool.attrs[i] is old_pool.attrs[i], type_name
            assert new_pool.weighted[i] is old_pool.weighted[i], type_name
            assert new_pool.prefix[i] is old_pool.prefix[i], type_name
        assert new_pool.index is old_pool.index
        # And the patched pool equals a from-scratch build exactly.
        rebuilt = make_context(inc.entity_graph).candidate_pool()
        assert new_pool.key_scores == rebuilt.key_scores
        assert new_pool.attrs == rebuilt.attrs
        assert new_pool.weighted == rebuilt.weighted
        assert new_pool.prefix == rebuilt.prefix
        assert new_pool.eligible == rebuilt.eligible

    def test_pool_patch_rejects_unknown_type(self):
        inc = triangle_graph()
        context = inc.context()
        pool = context.candidate_pool()
        with pytest.raises(ScoringError, match="structural"):
            pool.patched(["NOT-A-TYPE"], context)

    def test_context_patch_rejects_non_delta_scorers(self):
        inc = triangle_graph()
        context = inc.context("random_walk", "coverage")
        with pytest.raises(ScoringError, match="does not support delta"):
            context.patched(["FILM"])

    def test_noop_mutation_keeps_context_identity(self):
        inc = triangle_graph()
        before = inc.context()
        inc.add_entity("film0", ["FILM"])  # no-op re-add
        assert inc.context() is before

    def test_structural_mutation_rebuilds_nondelta_combo_individually(self):
        inc = triangle_graph()
        coverage = inc.context()
        walk = inc.context("random_walk", "coverage")
        inc.add_entity("film8", ["FILM"])  # non-structural
        # Coverage combo was patched; the random-walk combo was dropped
        # (its global scores cannot be patched) and rebuilt on demand.
        assert inc.context() is not coverage
        rebuilt_walk = inc.context("random_walk", "coverage")
        assert rebuilt_walk is not walk
        fresh = ScoringContext(
            inc.schema, inc.entity_graph, key_scorer="random_walk"
        )
        assert rebuilt_walk.key_scores() == fresh.key_scores()


class TestSnapshotRefresh:
    def test_refresh_patches_only_dirty_rows(self):
        inc = triangle_graph()
        old_pool = inc.context().candidate_pool()
        snapshot = ScoringSnapshot.from_pool(old_pool)
        inc.add_entity("film7", ["FILM"])
        new_pool = inc.context().candidate_pool()
        refreshed = snapshot.refresh(new_pool, {"FILM"})
        assert refreshed.index is snapshot.index
        film = snapshot.index["FILM"]
        for i in range(len(snapshot.weighted)):
            if i == film:
                assert refreshed.weighted[i] == new_pool.weighted[i]
            else:
                assert refreshed.weighted[i] is snapshot.weighted[i]
        assert refreshed.weighted == ScoringSnapshot.from_pool(new_pool).weighted

    def test_refresh_with_no_dirt_returns_self(self):
        pool = triangle_graph().context().candidate_pool()
        snapshot = ScoringSnapshot.from_pool(pool)
        assert snapshot.refresh(pool, ()) is snapshot

    def test_refresh_rebuilds_on_unknown_dirty_type(self):
        """A dirty type outside the snapshot's universe forces a rebuild."""
        pool = triangle_graph().context().candidate_pool()
        snapshot = ScoringSnapshot.from_pool(pool)
        rebuilt = snapshot.refresh(pool, ["NO SUCH TYPE"])
        assert rebuilt is not snapshot
        assert rebuilt.index == snapshot.index
        assert rebuilt.weighted == snapshot.weighted

    def test_refresh_falls_back_on_universe_change(self):
        inc = triangle_graph()
        snapshot = ScoringSnapshot.from_pool(inc.context().candidate_pool())
        inc.add_entity("award0", ["AWARD"])  # structural: new type
        inc.add_relationship("film0", "award0", WON)
        rebuilt_pool = inc.context().candidate_pool()
        refreshed = snapshot.refresh(rebuilt_pool, {"FILM"})
        assert refreshed.index == dict(rebuilt_pool.index)
        assert refreshed.weighted == rebuilt_pool.weighted


class TestTypeScopedInvalidation:
    def test_sweep_survives_mutation_of_unrelated_type(self):
        """The acceptance scenario: GENRE moves, the triangle sweep stays.

        GENRE is *eligible* (it can key a table) but appears in no
        qualifying subset of the ``k=3, d=1`` tight group, so its score
        change provably cannot alter any sweep point — the memo entries
        must be answered from cache, not re-executed.
        """
        inc = triangle_graph()
        engine = inc.engine()
        grid = [PreviewQuery(k=3, n=n, d=1, mode="tight") for n in (4, 5, 6)]
        first = engine.sweep(grid, skip_infeasible=True)
        info = engine.cache_info()
        assert info["misses"] == 3 and info["hits"] == 0

        inc.add_entity("genre99", ["GENRE"])  # non-structural, dirty={GENRE}
        info = engine.cache_info()
        assert info["results"] == 3  # all retained
        assert info["retained"] == 3 and info["evicted"] == 0
        assert info["invalidations"] == 0
        assert info["generation"] == inc.generation

        second = engine.sweep(grid, skip_infeasible=True)
        info = engine.cache_info()
        assert info["hits"] == 3 and info["misses"] == 3  # pure cache hits
        for a, b in zip(first, second):
            assert a is b  # the very same memoized objects
        # And the retained answers still match a from-scratch rebuild.
        for query, result in zip(grid, second):
            assert result == fresh_answer(inc.entity_graph, query), query

    def test_mutation_of_dependency_evicts_and_repatches(self):
        inc = triangle_graph()
        engine = inc.engine()
        grid = [PreviewQuery(k=2, n=n, d=1, mode="tight") for n in (3, 4, 5)]
        engine.sweep(grid, skip_infeasible=True)
        inc.add_entity("film42", ["FILM"])
        inc.add_relationship("actor0", "film42", ACTED)
        info = engine.cache_info()
        assert info["evicted"] == 3  # FILM is in every pair's dependency set
        assert info["profile_groups"] == 1  # clique group kept (schema-only)
        assert info["invalidations"] == 0
        results = engine.sweep(grid, skip_infeasible=True)
        for query, result in zip(grid, results):
            assert result == fresh_answer(inc.entity_graph, query), query
        assert inc.verify_against_rescan()

    def test_concise_points_survive_ineligible_type_mutation(self):
        inc = triangle_graph()
        inc.add_entity("lonely0", ["LONELY"])  # no relationships: ineligible
        engine = inc.engine()
        first = engine.query(k=2, n=4)
        inc.add_entity("lonely1", ["LONELY"])  # non-structural now
        assert engine.query(k=2, n=4) is first  # retained: LONELY can't key
        assert engine.cache_info()["hits"] == 1
        assert engine.cache_info()["invalidations"] == 0

    def test_structural_mutation_still_fully_invalidates(self):
        inc = triangle_graph()
        engine = inc.engine()
        engine.query(k=2, n=4)
        inc.add_entity("award0", ["AWARD"])  # new type: structural
        info = engine.cache_info()
        assert info["invalidations"] == 1 and info["results"] == 0
        assert engine.query(k=2, n=4) == fresh_answer(
            inc.entity_graph, PreviewQuery(k=2, n=4)
        )

    def test_non_delta_scorers_fall_back_to_full_invalidation(self):
        inc = triangle_graph()
        engine = inc.engine("random_walk", "coverage")
        engine.query(k=2, n=4)
        inc.add_entity("film77", ["FILM"])  # non-structural, but no delta
        info = engine.cache_info()
        assert info["invalidations"] == 1 and info["results"] == 0
        result = engine.query(k=2, n=4)
        fresh = PreviewEngine(
            ScoringContext(inc.schema, inc.entity_graph, key_scorer="random_walk")
        ).query(k=2, n=4)
        assert result == fresh

    def test_noop_mutation_retains_everything(self):
        inc = triangle_graph()
        engine = inc.engine()
        first = engine.query(k=2, n=4)
        inc.add_entity("film0", ["FILM"])  # no-op re-add, generation bumps
        info = engine.cache_info()
        assert info["generation"] == inc.generation
        assert info["results"] == 1 and info["evicted"] == 0
        assert engine.query(k=2, n=4) is first


class TestDirectGraphMutations:
    """Mutations bypassing the wrapper must still be observed soundly."""

    def test_direct_nonstructural_mutation_is_reconciled(self):
        inc = triangle_graph()
        engine = inc.engine()
        engine.query(k=2, n=4)
        # Bypass the wrapper entirely: the changelog still records it.
        inc.entity_graph.add_entity("film-direct", ["FILM"])
        assert inc.key_coverage("FILM") == 4  # reconciled from the graph
        after = engine.query(k=2, n=4)
        assert after == fresh_answer(inc.entity_graph, PreviewQuery(k=2, n=4))
        assert inc.verify_against_rescan()

    def test_schema_property_reconciles_direct_mutations(self):
        """Regression: ``.schema`` must not serve pre-mutation state.

        Every read path reconciles with the changelog; the schema
        property used to skip that, so a direct graph mutation left
        anything built from ``inc.schema`` scoring against stale counts.
        """
        inc = triangle_graph()
        film_count = inc.schema.entity_count("FILM")
        inc.entity_graph.add_entity("film-direct", ["FILM"])
        assert inc.schema.entity_count("FILM") == film_count + 1
        inc.entity_graph.add_entity("award-direct", ["AWARD"])  # structural
        assert inc.schema.has_entity_type("AWARD")

    def test_direct_structural_mutation_rederives_schema(self):
        inc = triangle_graph()
        inc.context()  # cache a combo so the rebuild path is exercised
        inc.entity_graph.add_entity("award-direct", ["AWARD"])
        inc.entity_graph.add_relationship("film0", "award-direct", WON)
        assert inc.key_coverage("AWARD") == 1
        assert inc.nonkey_coverage(WON) == 1
        assert inc.schema.has_entity_type("AWARD")
        assert inc.verify_against_rescan()
        result = inc.discover(k=2, n=4)
        assert result == fresh_answer(inc.entity_graph, PreviewQuery(k=2, n=4))


class TestVerifyAgainstRescan:
    def test_passes_after_interleaved_mutations(self):
        inc = triangle_graph()
        inc.context()  # populate the combo cache so pools get diffed
        for i in range(5):
            inc.add_entity(f"film-x{i}", ["FILM"])
            inc.add_relationship("actor0", f"film-x{i}", ACTED)
            inc.add_relationship(f"film-x{i}", "genre0", HAS_GENRE)
            assert inc.verify_against_rescan()

    def test_detects_corrupted_counts(self):
        inc = triangle_graph()
        inc._key_coverage["FILM"] += 1
        assert not inc.verify_against_rescan()

    def test_detects_corrupted_pool(self):
        import dataclasses

        inc = triangle_graph()
        context = inc.context()
        pool = context.candidate_pool()
        context._pool = dataclasses.replace(
            pool, prefix=tuple(row[:-1] + (row[-1] + 1.0,) for row in pool.prefix)
        )
        assert not inc.verify_against_rescan()
        assert inc.verify_against_rescan(check_pools=False)  # counts still fine


# ---------------------------------------------------------------------------
# Property: interleaved mutations and queries == from-scratch, always
# ---------------------------------------------------------------------------

#: The op universe the hypothesis interpreter draws from.
TYPES = ("FILM", "ACTOR", "DIRECTOR", "GENRE", "AWARD")
RELS = (ACTED, DIRECTED, WORKS_WITH, HAS_GENRE, WON)

QUERIES = (
    PreviewQuery(k=1, n=2, algorithm="dynamic-programming"),
    PreviewQuery(k=2, n=4, algorithm="brute-force"),
    PreviewQuery(k=2, n=4, algorithm="branch-and-bound"),
    PreviewQuery(k=2, n=4, d=2, mode="tight", algorithm="apriori"),
    PreviewQuery(k=2, n=5, d=1, mode="diverse", algorithm="apriori"),
    PreviewQuery(k=2, n=5),  # auto
)

ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("entity"), st.integers(0, len(TYPES) - 1), st.integers(0, 7)
        ),
        st.tuples(
            st.just("rel"),
            st.integers(0, len(RELS) - 1),
            st.integers(0, 7),
            st.integers(0, 7),
        ),
        st.tuples(st.just("query"), st.integers(0, len(QUERIES) - 1)),
    ),
    min_size=1,
    max_size=20,
)


def apply_op(inc: IncrementalEntityGraph, op) -> None:
    if op[0] == "entity":
        inc.add_entity(f"{TYPES[op[1]]}_{op[2]}", [TYPES[op[1]]])
    elif op[0] == "rel":
        rel = RELS[op[1]]
        source = f"{rel.source_type}_{op[2]}"
        target = f"{rel.target_type}_{op[3]}"
        inc.add_entity(source, [rel.source_type])
        inc.add_entity(target, [rel.target_type])
        inc.add_relationship(source, target, rel)


class TestDeltaEqualsRebuildProperty:
    @pytest.mark.parametrize("jobs", [1, JOBS], ids=["serial", f"jobs{JOBS}"])
    @SMALL
    @given(ops)
    def test_interleaved_mutations_match_fresh_rebuild(self, jobs, op_list):
        """Every query along a random mutate/query interleaving answers
        exactly like a freshly built context + engine — all four
        registered algorithms, serial and sharded."""
        inc = IncrementalEntityGraph(name="prop")
        inc.add_entity("FILM_0", ["FILM"])
        inc.add_entity("ACTOR_0", ["ACTOR"])
        inc.add_relationship("ACTOR_0", "FILM_0", ACTED)
        engine = inc.engine()
        for op in op_list:
            if op[0] == "query":
                query = QUERIES[op[1]]
                try:
                    live = engine.run(query, jobs=jobs)
                except InfeasiblePreviewError:
                    live = None
                assert live == fresh_answer(inc.entity_graph, query), query
            else:
                apply_op(inc, op)
        # Terminal sweep over every algorithm, then a full rescan diff
        # of the delta-maintained aggregates and candidate pools.
        for query in QUERIES:
            try:
                live = engine.run(query, jobs=jobs)
            except InfeasiblePreviewError:
                live = None
            assert live == fresh_answer(inc.entity_graph, query), query
        assert inc.verify_against_rescan()

"""Parallel sharded execution: parallel == serial, bit for bit.

Under the default ``auto`` planner mode no batch here reaches a shard
threshold, so these properties run inline; CI re-runs this module under
``REPRO_PLAN=sharded`` with ``REPRO_TEST_JOBS=4``, which sends every
multi-subset batch across a real 4-worker pool.
"""


import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import EntityGraphBuilder
from repro.cli import main
from repro.core import apriori_discover, brute_force_discover, make_context
from repro.core.candidates import (
    best_preview_for_keys,
    build_allocation_profile,
    discover_among,
)
from repro.core.constraints import DistanceConstraint, SizeConstraint
from repro.datasets import random_schema_graph
from repro.engine import PreviewEngine, PreviewQuery
from repro.exceptions import DiscoveryError, InfeasiblePreviewError
from repro.parallel import ScoringSnapshot, ShardedExecutor, resolve_jobs
from repro.scoring import ScoringContext
from repro import config, plan

#: Worker count used by the equivalence tests (REPRO_TEST_JOBS, 2 by
#: default; any value >= 2 exercises real shards once a batch shards).
JOBS = config.test_jobs()

SMALL = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

schema_params = st.tuples(
    st.integers(min_value=3, max_value=8),  # types
    st.integers(min_value=3, max_value=12),  # rel types
    st.integers(min_value=0, max_value=10_000),  # seed
)


def context_for(params) -> ScoringContext:
    num_types, num_rels, seed = params
    schema = random_schema_graph(
        num_types, max(num_rels, num_types - 1), seed=seed
    )
    return ScoringContext(schema)


class TestResolveJobs:
    def test_passthrough_and_zero(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) == plan.usable_cpus()  # 0 = all usable cores

    def test_negative_rejected(self):
        with pytest.raises(DiscoveryError, match="non-negative"):
            resolve_jobs(-1)


class TestShardedExecutor:
    def test_tie_break_is_lowest_subset_index(self):
        """Equal scores must resolve to the first subset, as serially."""
        snapshot = ScoringSnapshot(
            index={"A": 0, "B": 1, "C": 2},
            weighted=((5.0, 1.0), (5.0, 1.0), (5.0, 1.0)),
        )
        subsets = [("A",), ("B",), ("C",)]
        with ShardedExecutor(JOBS) as executor:
            best = executor.best_allocation(snapshot, subsets, extra_cap=1)
        assert best == (6.0, 0)

    def test_all_infeasible_returns_none(self):
        snapshot = ScoringSnapshot(index={"A": 0, "B": 1}, weighted=((), ()))
        with ShardedExecutor(JOBS) as executor:
            assert executor.best_allocation(snapshot, [("A",), ("B",)], 1) is None
            assert executor.best_allocation(snapshot, [], 1) is None

    def test_profiles_match_serial_build(self, fig1_context):
        pool = fig1_context.candidate_pool()
        snapshot = ScoringSnapshot.from_pool(pool)
        subsets = [(t,) for t in pool.eligible] + [pool.eligible[:2]]
        with ShardedExecutor(JOBS) as executor:
            payloads = executor.build_profiles(snapshot, subsets, cap=2)
        assert len(payloads) == len(subsets)
        for keys, payload in zip(subsets, payloads):
            serial = build_allocation_profile(pool, keys, cap=2)
            assert payload is not None and serial is not None
            picks, cum, cap = payload
            assert picks == serial.picks
            assert cum == serial.cum  # float-exact, not approximate
            assert cap == serial.cap

    def test_duplicate_key_subsets_are_infeasible_not_winning(
        self, fig1_context
    ):
        """A duplicate-keys subset must lose like it does serially.

        ``best_preview_for_keys`` rejects duplicates, so a worker must
        not let one win the reduction on its double-counted score (the
        shipped callers never produce duplicates, but the dispatch's
        contract should hold for any subset list).  The executor sends
        the 2-subset batch across a real pool; ``discover_among`` bounds
        the duplicate to ``-inf`` and never scores it.
        """
        pool = fig1_context.candidate_pool()
        strongest = max(
            pool.eligible, key=lambda t: pool.top_m_score(t, 2)
        )
        other = next(t for t in pool.eligible if t != strongest)
        size = SizeConstraint(k=2, n=4)
        subsets = [(strongest, strongest), (strongest, other)]
        with plan.use_mode("sharded"), ShardedExecutor(max(JOBS, 2)) as executor:
            best = executor.best_allocation(pool, subsets, size.n - size.k)
            assert executor._pool is not None, "the batch never left the parent"
            result = discover_among(fig1_context, size, subsets, "test", executor)
        assert best[1] == 1
        assert (result.preview, result.score) == best_preview_for_keys(
            fig1_context, (strongest, other), size
        )
        assert result.candidates_examined == 2

    def test_executor_reuse_across_calls(self, fig1_context):
        """One executor may serve many calls (the engine sweep pattern)."""
        size = SizeConstraint(k=2, n=5)
        with ShardedExecutor(JOBS) as executor:
            for distance in (None, DistanceConstraint.tight(1)):
                serial = brute_force_discover(fig1_context, size, distance)
                shared = brute_force_discover(
                    fig1_context, size, distance, executor=executor
                )
                assert serial == shared
            serial = apriori_discover(
                fig1_context, size, DistanceConstraint.tight(2)
            )
            shared = apriori_discover(
                fig1_context,
                size,
                DistanceConstraint.tight(2),
                executor=executor,
            )
            assert serial == shared

class TestShardBoundaries:
    """Shard-boundary edge cases: empty input, 1-subset shards, n < jobs."""

    def test_payloads_of_empty_subsets_is_total(self):
        """Sharding zero subsets yields zero shards, not a ZeroDivisionError."""
        snapshot = ScoringSnapshot(index={"A": 0}, weighted=((1.0,),))
        executor = ShardedExecutor(JOBS)
        assert executor._payloads(snapshot, [], cap=1) == []
        assert executor.best_allocation(snapshot, [], 1) is None
        assert executor.build_profiles(snapshot, [], cap=1) == []

    @pytest.mark.parametrize("mode", plan.PLAN_MODES)
    @pytest.mark.parametrize("subset_count", [1, 2, 3, 5, 9])
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_no_shard_is_ever_empty(self, subset_count, jobs, mode):
        """Every shard carries >= 1 subset and they tile the input.

        In every mode the executor cuts min(jobs, n) contiguous shards.
        """
        snapshot = ScoringSnapshot(index={"A": 0}, weighted=((1.0,),))
        subsets = [(f"T{i}",) for i in range(subset_count)]
        with plan.use_mode(mode):
            payloads = ShardedExecutor(jobs)._payloads(
                snapshot, subsets, cap=1
            )
        assert len(payloads) == min(jobs, subset_count)
        rebuilt = []
        expected_start = 0
        for _, start, shard, _, _backend in payloads:
            assert shard, "empty shard"
            assert start == expected_start  # contiguous, in order
            expected_start += len(shard)
            rebuilt.extend(shard)
        assert rebuilt == subsets

    def test_single_subset_runs_inline_without_a_pool(self):
        """One subset = one shard: answered inline, no worker pool spun."""
        snapshot = ScoringSnapshot(
            index={"A": 0, "B": 1}, weighted=((5.0, 2.0), (4.0,))
        )
        with ShardedExecutor(JOBS) as executor:
            best = executor.best_allocation(snapshot, [("A",)], extra_cap=1)
            assert best == (7.0, 0)
            payloads = executor.build_profiles(snapshot, [("A", "B")], cap=2)
            assert len(payloads) == 1 and payloads[0] is not None
            assert executor._pool is None, "degenerate shard spun up a pool"

    def test_fewer_subsets_than_jobs_matches_serial(self, fig1_context):
        """n < jobs must shard to n workers and stay bit-identical."""
        pool = fig1_context.candidate_pool()
        snapshot = ScoringSnapshot.from_pool(pool)
        subsets = [(t,) for t in pool.eligible[:2]]
        with ShardedExecutor(4) as executor:
            payloads = executor.build_profiles(snapshot, subsets, cap=3)
        assert len(payloads) == len(subsets)
        for keys, payload in zip(subsets, payloads):
            serial = build_allocation_profile(pool, keys, cap=3)
            assert payload == (serial.picks, serial.cum, serial.cap)

    @pytest.mark.parametrize("d, qualifying", [(3, 0), (2, 1)])
    def test_brute_force_lists_zero_or_one_subset_like_serial(
        self, d, qualifying
    ):
        """Forced sharded, brute force lists its qualifying subsets even
        when the distance check leaves 0 or 1 of the C(3, 2) pairs; the
        answer, ``candidates_examined`` included, is the serial one."""
        builder = EntityGraphBuilder("path")
        builder.entity("film0", "FILM").entity("actor0", "ACTOR")
        builder.entity("director0", "DIRECTOR")
        builder.relate("actor0", "Acted In", "film0")
        builder.relate("director0", "Directed", "film0")
        context = make_context(builder.build())
        size = SizeConstraint(k=2, n=4)
        distance = DistanceConstraint.diverse(d)  # only ACTOR-DIRECTOR is 2 apart
        serial = brute_force_discover(context, size, distance)
        with plan.use_mode("sharded"), ShardedExecutor(2) as executor:
            before = plan.decision_counts()
            sharded = brute_force_discover(
                context, size, distance, executor=executor
            )
            after = plan.decision_counts()
        # The look-ahead on the estimate's C(3, 2) = 3 subsets records
        # nothing; the listed batch of 0 or 1 records one serial verdict.
        assert after["sharded"] - before["sharded"] == 0
        assert after["serial"] - before["serial"] == 1
        assert sharded == serial
        if qualifying == 0:
            assert serial is None
        else:
            assert serial.candidates_examined == 1

    @pytest.mark.parametrize("mode", ["sharded", "auto"])
    def test_brute_force_records_one_verdict_per_batch(
        self, fig1_context, mode, monkeypatch
    ):
        """Brute force records exactly one planner verdict per batch.

        Forced sharded, the qualifying subsets are listed and the one
        batch crosses the pool: the verdict is taken on the subsets
        ``discover_among`` keeps after bounding, 2 of fig1's 15 (all 15
        under the unpruned ``oracle`` backend), and a batch of one or
        none would be scored serially.  Under ``auto`` the batch is far
        below the threshold, so they stream through the inline scan.
        Either way one verdict is recorded.
        """
        monkeypatch.setattr(plan.planner, "usable_cpus", lambda: 2)
        size = SizeConstraint(k=2, n=5)
        serial = brute_force_discover(fig1_context, size)
        assert serial.candidates_examined >= 2
        with plan.use_mode(mode), ShardedExecutor(2) as executor:
            before = plan.decision_counts()
            answer = brute_force_discover(fig1_context, size, executor=executor)
            after = plan.decision_counts()
            pooled = executor._pool is not None
        assert {key: after[key] - before[key] for key in after} == {
            "serial": int(mode == "auto"),
            "sharded": int(mode == "sharded"),
            "vetoed_single_core": 0,
        }
        assert pooled == (mode == "sharded")
        assert answer == serial

    def test_one_shard_all_infeasible_other_feasible(self):
        """A shard whose every subset is infeasible reduces to the other's."""
        snapshot = ScoringSnapshot(
            index={"A": 0, "B": 1}, weighted=((), (3.0,))
        )
        with ShardedExecutor(2) as executor:
            # Shard 1 = [("A",)] (empty Γ: infeasible), shard 2 = [("B",)].
            best = executor.best_allocation(snapshot, [("A",), ("B",)], 1)
        assert best == (3.0, 1)


class TestSnapshot:
    def test_snapshot_ships_no_graph_objects(self, fig1_context):
        snapshot = ScoringSnapshot.from_pool(fig1_context.candidate_pool())
        assert all(isinstance(key, str) for key in snapshot.index)
        for row in snapshot.weighted:
            assert all(isinstance(score, float) for score in row)
        assert snapshot.attrs is snapshot.weighted


class TestAlgorithmEquivalence:
    @SMALL
    @given(schema_params, st.integers(2, 3), st.integers(1, 3), st.booleans())
    def test_apriori_parallel_matches_serial(self, params, k, d, tight):
        context = context_for(params)
        k = min(k, params[0])
        size = SizeConstraint(k=k, n=k + 3)
        constraint = (
            DistanceConstraint.tight(d) if tight else DistanceConstraint.diverse(d)
        )
        serial = apriori_discover(context, size, constraint)
        with ShardedExecutor(JOBS) as executor:
            parallel = apriori_discover(
                context, size, constraint, executor=executor
            )
        assert serial == parallel  # dataclass equality: bit-identical floats

    @SMALL
    @given(schema_params, st.integers(2, 3), st.integers(0, 3))
    def test_brute_force_parallel_matches_serial(self, params, k, d):
        context = context_for(params)
        k = min(k, params[0])
        size = SizeConstraint(k=k, n=k + 3)
        constraint = DistanceConstraint.tight(d) if d else None
        serial = brute_force_discover(context, size, constraint)
        with ShardedExecutor(JOBS) as executor:
            parallel = brute_force_discover(
                context, size, constraint, executor=executor
            )
        assert serial == parallel

    @SMALL
    @given(schema_params, st.integers(2, 3), st.integers(1, 3))
    def test_engine_parallel_matches_serial_all_four_algorithms(
        self, params, k, d
    ):
        """Every registered algorithm answers identically at any jobs."""
        context = context_for(params)
        k = min(k, params[0])
        cases = [
            PreviewQuery(k=k, n=k + 3, algorithm="brute-force"),
            PreviewQuery(k=k, n=k + 3, algorithm="dynamic-programming"),
            PreviewQuery(k=k, n=k + 3, algorithm="branch-and-bound"),
            PreviewQuery(k=k, n=k + 3, d=d, mode="tight", algorithm="apriori"),
            PreviewQuery(k=k, n=k + 3, d=d, mode="diverse", algorithm="apriori"),
            PreviewQuery(k=k, n=k + 3, d=d, mode="tight", algorithm="brute-force"),
            PreviewQuery(
                k=k, n=k + 3, d=d, mode="diverse", algorithm="branch-and-bound"
            ),
        ]
        serial_engine = PreviewEngine(context)
        parallel_engine = PreviewEngine(context)
        for query in cases:
            try:
                serial = serial_engine.run(query)
            except InfeasiblePreviewError:
                serial = None
            try:
                parallel = parallel_engine.run(query, jobs=JOBS)
            except InfeasiblePreviewError:
                parallel = None
            assert serial == parallel, query

    @SMALL
    @given(schema_params, st.integers(1, 3))
    def test_engine_sweep_parallel_matches_serial(self, params, d):
        context = context_for(params)
        k = min(3, params[0])
        grid = list(
            PreviewQuery.grid(
                ks=(2, k),
                ns=(k + 1, k + 3, k + 5),
                distances=[None, (d, "tight"), (d, "diverse")],
            )
        )
        serial = PreviewEngine(context).sweep(grid, skip_infeasible=True)
        parallel = PreviewEngine(context).sweep(
            grid, skip_infeasible=True, jobs=JOBS
        )
        assert serial == parallel

    def test_engine_sweep_brute_force_points_share_the_batch_pool(
        self, fig1_context
    ):
        """Forced brute-force sweep points ride the batch executor."""
        grid = [
            PreviewQuery(k=2, n=n, algorithm="brute-force") for n in (4, 5, 6)
        ] + [
            PreviewQuery(k=2, n=n, d=1, mode="tight", algorithm="brute-force")
            for n in (4, 5)
        ]
        serial = PreviewEngine(fig1_context).sweep(grid, skip_infeasible=True)
        parallel = PreviewEngine(fig1_context).sweep(
            grid, skip_infeasible=True, jobs=JOBS
        )
        assert serial == parallel
        assert any(result is not None for result in serial)


class TestDeltaUnderShards:
    """Memo eviction and context patching must hold under a real worker pool too."""

    @SMALL
    @given(st.integers(0, 10_000), st.integers(1, 3))
    def test_mutating_sweeps_match_serial_and_rescan(self, seed, d):
        """Interleave mutations with sharded sweeps: every batch must
        equal the serial answer on a fresh engine, and the incremental
        aggregates + delta-patched candidate pools must diff clean
        against a full rescan after every mutation."""
        from repro.core import make_context
        from repro.ext import IncrementalEntityGraph
        from repro.model import RelationshipTypeId

        acted = RelationshipTypeId("Acted In", "ACTOR", "FILM")
        directed = RelationshipTypeId("Directed", "DIRECTOR", "FILM")
        inc = IncrementalEntityGraph(name=f"shard-delta-{seed}")
        inc.add_entity("film0", ["FILM"])
        inc.add_entity("actor0", ["ACTOR"])
        inc.add_entity("director0", ["DIRECTOR"])
        inc.add_relationship("actor0", "film0", acted)
        inc.add_relationship("director0", "film0", directed)
        engine = inc.engine()
        grid = [
            PreviewQuery(k=2, n=n, d=d, mode="tight") for n in (3, 4, 5)
        ] + [PreviewQuery(k=2, n=4)]
        for batch in range(3):
            sharded = engine.sweep(grid, skip_infeasible=True, jobs=JOBS)
            fresh = PreviewEngine(make_context(inc.entity_graph)).sweep(
                grid, skip_infeasible=True
            )
            assert sharded == fresh, (seed, d, batch)
            # Mutate: the next batch must observe the delta exactly.
            inc.add_entity(f"film{batch + 1}", ["FILM"])
            inc.add_relationship(
                ("actor0", "director0")[batch % 2],
                f"film{batch + 1}",
                (acted, directed)[batch % 2],
            )
            assert inc.verify_against_rescan(), (seed, d, batch)


class TestSerialFallback:
    # The former subprocess guard (test_jobs_1_never_imports_multiprocessing)
    # is retired: lint rule REP101 (repro.lint.rules.OptionalImportConfinement)
    # proves statically that no module outside repro.parallel imports
    # multiprocessing at module top level, which is the property the
    # subprocess probe checked dynamically.  The numpy analogue in
    # tests/test_kernel.py is kept as the one end-to-end backstop.

    def test_jobs_zero_resolves_to_cpu_count(self, fig1_context):
        """jobs=0 must work end to end, whatever the machine size."""
        query = PreviewQuery(k=2, n=4, d=1, mode="tight")
        serial = PreviewEngine(fig1_context).run(query)
        auto = PreviewEngine(fig1_context).run(query, jobs=0)
        assert serial == auto


class TestCliJobs:
    def test_sweep_output_identical_at_any_jobs(self, capsys):
        args = [
            "--domain",
            "architecture",
            "-k",
            "2",
            "-n",
            "5",
            "--tight",
            "2",
            "--sweep-n",
            "4:6",
        ]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        assert main(args + ["--jobs", str(JOBS)]) == 0
        assert capsys.readouterr().out == serial_out

    def test_single_query_with_jobs(self, capsys):
        code = main(
            [
                "--domain",
                "basketball",
                "-k",
                "2",
                "-n",
                "4",
                "--tight",
                "2",
                "--jobs",
                "2",
            ]
        )
        assert code == 0
        assert "apriori" in capsys.readouterr().out

    def test_negative_jobs_errors_cleanly(self, capsys):
        code = main(
            [
                "--domain",
                "basketball",
                "-k",
                "2",
                "-n",
                "4",
                "--tight",
                "2",
                "--jobs",
                "-2",
            ]
        )
        assert code == 1
        assert "non-negative" in capsys.readouterr().err

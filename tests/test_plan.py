"""The execution planner: every mode bit-identical, one rule per backend.

Two layers, mirroring the planner's own contract:

* **Planner units** — mode forcing and validation, the per-backend
  threshold boundary and the single-core affinity veto under ``auto``,
  the executor's ``min(jobs, n)`` tiling in every mode, and the cached
  affinity probe.
* **The hypothesis property** — for random schema pools, query points
  and *any* ``REPRO_PLAN`` mode, planner-chosen execution is
  bit-identical to the serial oracle, a ``jobs=1`` run (``float.hex``
  scores + winning key subset), for all four discovery algorithms,
  including runs with mutations interleaved between sharded sweeps.
  Planning may only ever move wall time, never answers.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import config, kernel, plan
from repro.core import make_context
from repro.datasets import random_schema_graph
from repro.engine import PreviewEngine, PreviewQuery
from repro.exceptions import InfeasiblePreviewError, PlanError
from repro.parallel import ScoringSnapshot, ShardedExecutor
from repro.scoring import ScoringContext

#: Worker count for the equivalence properties (the CI planner leg also
#: re-runs the whole suite under REPRO_PLAN=sharded with 2 workers).
JOBS = config.test_jobs()

SMALL = settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
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


# ----------------------------------------------------------------------
# Planner decisions
# ----------------------------------------------------------------------
def counted(call):
    """``(result, decision-counter delta)`` of one planner call."""
    before = plan.decision_counts()
    result = call()
    after = plan.decision_counts()
    return result, {
        key: after[key] - before[key] for key in after if after[key] != before[key]
    }


@pytest.fixture
def many_cores(monkeypatch):
    """Pretend this box has 8 usable cores (defeats the affinity veto)."""
    monkeypatch.setattr(plan.planner, "usable_cpus", lambda: 8)


class TestPlannerDecisions:
    def test_one_job_never_shards(self, many_cores):
        """jobs=1 is the serial path in every mode, however large."""
        for mode in plan.PLAN_MODES:
            with plan.use_mode(mode):
                verdict, delta = counted(lambda: plan.should_shard(10**6, jobs=1))
            assert not verdict
            assert delta == {"serial": 1}

    def test_sharded_mode_forces_even_past_the_veto(self, monkeypatch):
        """Forced sharding is a bisection tool: it bypasses the veto."""
        monkeypatch.setattr(plan.planner, "usable_cpus", lambda: 1)
        with plan.use_mode("sharded"):
            verdicts, delta = counted(
                lambda: [
                    plan.should_shard(2, jobs=2),
                    plan.should_shard(1, jobs=2),  # nothing to split
                    plan.should_shard(100, jobs=1),  # no workers
                ]
            )
        assert verdicts == [True, False, False]
        assert delta == {"sharded": 1, "serial": 2}

    @pytest.mark.parametrize("case", ["below", "at", "vetoed", "one-job"])
    @pytest.mark.parametrize("backend", kernel.available_backends())
    def test_auto_threshold_boundary(self, backend, case, monkeypatch):
        """Per backend: threshold - 1 runs serial, the threshold shards,
        one usable core vetoes it, and one job never shards however
        large the batch."""
        threshold = kernel.get_backend(backend).shard_threshold
        assert threshold > 2
        cores = 1 if case == "vetoed" else 2
        monkeypatch.setattr(plan.planner, "usable_cpus", lambda: cores)
        subsets = {"below": threshold - 1, "one-job": 10**9}.get(case, threshold)
        jobs = 1 if case == "one-job" else 2
        with kernel.use_backend(backend), plan.use_mode("auto"):
            assert plan.shard_threshold() == threshold
            verdict, delta = counted(lambda: plan.should_shard(subsets, jobs))
        assert (verdict, delta) == {
            "below": (False, {"serial": 1}),
            "at": (True, {"sharded": 1}),
            "vetoed": (False, {"serial": 1, "vetoed_single_core": 1}),
            "one-job": (False, {"serial": 1}),
        }[case]

    @pytest.mark.parametrize("mode", plan.PLAN_MODES)
    def test_would_shard_looks_ahead_without_recording(self, mode, many_cores):
        """The look-ahead verdict is should_shard's, with no decision."""
        with plan.use_mode(mode):
            for subsets, jobs in [(2, 2), (1, 2), (10**6, 8), (100, 1)]:
                ahead, delta = counted(lambda: plan.would_shard(subsets, jobs))
                assert delta == {}
                assert ahead == plan.should_shard(subsets, jobs)

    def test_estimated_subsets_is_the_binomial_bound(self):
        assert plan.estimated_subsets(5, 2) == 10
        assert plan.estimated_subsets(5, 0) == 1
        assert plan.estimated_subsets(5, 6) == 0
        assert plan.estimated_subsets(5, -1) == 0

    def test_oracle_inherits_the_python_threshold(self):
        assert (
            kernel.get_backend("oracle").shard_threshold
            == kernel.get_backend("python").shard_threshold
        )


def shard_sizes(subset_count, jobs):
    """Sizes of the shards the executor cuts for ``subset_count`` subsets."""
    snapshot = ScoringSnapshot(index={"A": 0}, weighted=((1.0,),))
    subsets = [("A",)] * subset_count
    payloads = ShardedExecutor(jobs)._payloads(snapshot, subsets, cap=1)
    return [len(payload[2]) for payload in payloads]


class TestShardLayout:
    """The executor cuts ``min(jobs, n)`` equal shards in every mode."""

    def test_min_jobs_equal_shards_first_heavy(self):
        assert shard_sizes(10, jobs=4) == [3, 3, 2, 2]
        assert shard_sizes(100, jobs=2) == [50, 50]

    @pytest.mark.parametrize("mode", plan.PLAN_MODES)
    def test_degenerate_layouts(self, mode):
        with plan.use_mode(mode):
            assert shard_sizes(0, jobs=4) == []
            assert shard_sizes(5, jobs=1) == [5]
            assert shard_sizes(1, jobs=4) == [1]


# ----------------------------------------------------------------------
# Mode selection and caches
# ----------------------------------------------------------------------
class TestModeAndCaches:
    def test_plan_mode_defaults_to_auto(self, monkeypatch):
        monkeypatch.delenv(plan.ENV_PLAN, raising=False)
        assert plan.plan_mode() == "auto"

    def test_plan_mode_reads_and_validates_the_env(self, monkeypatch):
        monkeypatch.setenv(plan.ENV_PLAN, "SHARDED")  # case-insensitive
        assert plan.plan_mode() == "sharded"
        for bad in ("bogus", "static", "serial"):
            monkeypatch.setenv(plan.ENV_PLAN, bad)
            with pytest.raises(PlanError, match="REPRO_PLAN"):
                plan.plan_mode()

    def test_use_mode_overrides_env_and_restores(self, monkeypatch):
        monkeypatch.setenv(plan.ENV_PLAN, "sharded")
        with plan.use_mode("auto"):
            assert plan.plan_mode() == "auto"
            with plan.use_mode("sharded"):  # nesting restores one level
                assert plan.plan_mode() == "sharded"
            assert plan.plan_mode() == "auto"
        assert plan.plan_mode() == "sharded"

    def test_use_mode_rejects_unknown_modes(self):
        with pytest.raises(PlanError, match="unknown planner mode"):
            with plan.use_mode("turbo"):
                pass  # pragma: no cover - must not execute

    def test_usable_cpus_probes_once_until_reset(self, monkeypatch):
        if not hasattr(os, "sched_getaffinity"):  # pragma: no cover
            pytest.skip("no affinity mask on this platform")
        plan.reset_plan_caches()
        calls = []
        real = os.sched_getaffinity

        def probe(pid):
            calls.append(pid)
            return real(pid)

        monkeypatch.setattr(os, "sched_getaffinity", probe)
        first = plan.usable_cpus()
        assert plan.usable_cpus() == first
        assert len(calls) == 1  # memoized: the hot path never re-probes
        plan.reset_plan_caches()
        assert plan.usable_cpus() == first
        assert len(calls) == 2  # reset hook forces one re-probe


# ----------------------------------------------------------------------
# The bit-identity property
# ----------------------------------------------------------------------
def fingerprint(result):
    """(hex score, winning key subset) — the bit-identity witness."""
    if result is None:
        return None
    return (float(result.score).hex(), tuple(result.preview.keys()))


def answer_grid(context, queries, jobs):
    engine = PreviewEngine(context)
    answers = []
    for query in queries:
        try:
            answers.append(engine.run(query, jobs=jobs))
        except InfeasiblePreviewError:
            answers.append(None)
    return answers


class TestModeBitIdentity:
    """Any REPRO_PLAN forcing answers exactly like the serial oracle."""

    @SMALL
    @given(
        schema_params,
        st.integers(2, 3),
        st.integers(1, 3),
        st.sampled_from(plan.PLAN_MODES),
    )
    def test_all_four_algorithms_match_the_serial_oracle(
        self, params, k, d, mode
    ):
        context = context_for(params)
        k = min(k, params[0])
        queries = [
            PreviewQuery(k=k, n=k + 3, algorithm="brute-force"),
            PreviewQuery(k=k, n=k + 3, algorithm="dynamic-programming"),
            PreviewQuery(k=k, n=k + 3, algorithm="branch-and-bound"),
            PreviewQuery(k=k, n=k + 3, d=d, mode="tight", algorithm="apriori"),
            PreviewQuery(
                k=k, n=k + 3, d=d, mode="diverse", algorithm="apriori"
            ),
            PreviewQuery(
                k=k, n=k + 3, d=d, mode="tight", algorithm="brute-force"
            ),
        ]
        oracle = answer_grid(context, queries, jobs=1)
        with plan.use_mode(mode):
            answered = answer_grid(context, queries, jobs=JOBS)
        assert [fingerprint(r) for r in answered] == [
            fingerprint(r) for r in oracle
        ], mode
        assert answered == oracle  # full dataclass equality, not just hex

    @SMALL
    @given(
        schema_params,
        st.integers(1, 3),
        st.sampled_from(plan.PLAN_MODES),
    )
    def test_sweeps_match_the_serial_oracle(self, params, d, mode):
        context = context_for(params)
        k = min(3, params[0])
        grid = list(
            PreviewQuery.grid(
                ks=(2, k),
                ns=(k + 1, k + 3, k + 5),
                distances=[None, (d, "tight"), (d, "diverse")],
            )
        )
        oracle = PreviewEngine(context).sweep(grid, skip_infeasible=True)
        with plan.use_mode(mode):
            answered = PreviewEngine(context).sweep(
                grid, skip_infeasible=True, jobs=JOBS
            )
        assert [fingerprint(r) for r in answered] == [
            fingerprint(r) for r in oracle
        ], mode
        assert answered == oracle

    @SMALL
    @given(st.integers(0, 10_000), st.sampled_from(plan.PLAN_MODES))
    def test_mutation_interleaved_runs_stay_identical(self, seed, mode):
        """Mutations between planner-driven sweeps never change answers.

        After every mutation the engine's candidate pool is patched and
        every sharded dispatch ships a fresh snapshot of it — the next
        batch must still equal a fresh serial engine on the same graph,
        bit for bit.
        """
        from repro.ext import IncrementalEntityGraph
        from repro.model import RelationshipTypeId

        acted = RelationshipTypeId("Acted In", "ACTOR", "FILM")
        directed = RelationshipTypeId("Directed", "DIRECTOR", "FILM")
        inc = IncrementalEntityGraph(name=f"plan-delta-{seed}")
        inc.add_entity("film0", ["FILM"])
        inc.add_entity("actor0", ["ACTOR"])
        inc.add_entity("director0", ["DIRECTOR"])
        inc.add_relationship("actor0", "film0", acted)
        inc.add_relationship("director0", "film0", directed)
        engine = inc.engine()
        grid = [
            PreviewQuery(k=2, n=n, d=1, mode="tight") for n in (3, 4)
        ] + [PreviewQuery(k=2, n=4)]
        for batch in range(3):
            with plan.use_mode(mode):
                planned = engine.sweep(grid, skip_infeasible=True, jobs=JOBS)
            oracle = PreviewEngine(make_context(inc.entity_graph)).sweep(
                grid, skip_infeasible=True
            )
            assert [fingerprint(r) for r in planned] == [
                fingerprint(r) for r in oracle
            ], (seed, mode, batch)
            assert planned == oracle
            inc.add_entity(f"film{batch + 1}", ["FILM"])
            inc.add_relationship(
                ("actor0", "director0")[batch % 2],
                f"film{batch + 1}",
                (acted, directed)[batch % 2],
            )


class TestEngineDecisionAccounting:
    def test_cache_info_reports_mode_and_decision_deltas(self, fig1_context):
        engine = PreviewEngine(fig1_context)
        info = engine.cache_info()
        assert info["plan_mode"] == plan.plan_mode()
        assert info["plan_decisions"] == {}
        with plan.use_mode("sharded"):
            engine.sweep(
                [PreviewQuery(k=2, n=n) for n in (4, 5)],
                skip_infeasible=True,
                jobs=2,
            )
        decisions = engine.cache_info()["plan_decisions"]
        # The engine attributes only its own deltas — whatever this box
        # decided, the counters are non-negative and strategy-shaped.
        assert all(v >= 0 for v in decisions.values())
        assert set(decisions) <= {"serial", "sharded", "vetoed_single_core"}

"""The execution planner: every mode bit-identical, every fit earned.

Three layers, mirroring the planner's own contract:

* **CostModel units** — cold-start refusal (no fit before
  ``MIN_SAMPLES`` diverse observations), calibration convergence on
  synthetic linear workloads, and ring-buffer eviction (a regime change
  overwrites stale timings instead of averaging against them forever).
* **Planner units** — mode forcing and validation, the single-core
  affinity veto, warm-model serial/sharded verdicts, adaptive shard
  layout, the process-wide caches and their reset hooks, and
  once-per-identity snapshot costing.
* **The hypothesis property** — for random schema pools, query points
  and *any* ``REPRO_PLAN`` forcing, planner-chosen execution is
  bit-identical to the serial oracle (``float.hex`` scores + winning
  key subset) for all four discovery algorithms, including runs with
  mutations interleaved between sharded sweeps.  Planning may only ever
  move wall time, never answers.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import config, plan
from repro.core import make_context
from repro.datasets import random_schema_graph
from repro.engine import PreviewEngine, PreviewQuery
from repro.exceptions import (
    ConfigError,
    InfeasiblePreviewError,
    KernelError,
    PlanError,
)
from repro.plan import MIN_SAMPLES, CostModel, LinearFit, Planner
from repro.scoring import ScoringContext

#: Worker count for the equivalence properties (the CI planner leg also
#: re-runs the whole suite under REPRO_PLAN=serial and =auto).
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
# CostModel
# ----------------------------------------------------------------------
class TestCostModel:
    def test_cold_start_refuses_to_predict(self):
        model = CostModel(window=8)
        assert model.fit("serial", "python") is None
        assert model.predict("serial", "python", 100) is None
        assert not model.warm("python")
        # MIN_SAMPLES - 1 diverse points: still cold.
        for n in range(1, MIN_SAMPLES):
            model.observe("serial", "python", n * 100, n * 0.01)
        assert model.fit("serial", "python") is None

    def test_single_batch_size_cannot_identify_a_slope(self):
        """MIN_SAMPLES observations all at one size: slope unidentified."""
        model = CostModel(window=8)
        for _ in range(MIN_SAMPLES + 2):
            model.observe("serial", "python", 500, 0.01)
        assert model.fit("serial", "python") is None
        assert model.predict("serial", "python", 500) is None

    def test_calibration_converges_on_linear_workload(self):
        """Exact linear timings are recovered coefficient-for-coefficient."""
        model = CostModel(window=16)
        setup, rate = 0.002, 5e-6
        for n in (100, 200, 400, 800, 1600):
            model.observe("serial", "python", n, setup + rate * n)
        fitted = model.fit("serial", "python")
        assert fitted is not None
        assert fitted.setup == pytest.approx(setup, rel=1e-9)
        assert fitted.rate == pytest.approx(rate, rel=1e-9)
        assert fitted.samples == 5
        assert model.predict("serial", "python", 10_000) == pytest.approx(
            setup + rate * 10_000, rel=1e-9
        )

    def test_warm_needs_both_strategy_fits(self):
        model = CostModel(window=8)
        for n in (100, 200, 300, 400):
            model.observe("serial", "python", n, 1e-5 * n)
        assert not model.warm("python")  # sharded line still missing
        for n in (100, 200, 300, 400):
            model.observe("sharded", "python", n, 0.05 + 1e-6 * n)
        assert model.warm("python")
        assert not model.warm("numpy")  # warmth is per backend

    def test_ring_buffer_evicts_the_old_regime(self):
        """After a load change, ``window`` new points own the fit."""
        window = MIN_SAMPLES
        model = CostModel(window=window)
        for n in (100, 200, 300, 400):  # old regime: 1 us/subset
            model.observe("serial", "python", n, 1e-6 * n)
        for n in (100, 200, 300, 400):  # new regime: 1 ms/subset
            model.observe("serial", "python", n, 1e-3 * n)
        counts = model.observation_counts()
        assert counts["serial/python"] == window  # old points evicted
        fitted = model.fit("serial", "python")
        assert fitted.rate == pytest.approx(1e-3, rel=1e-9)

    def test_degenerate_observations_are_ignored(self):
        model = CostModel(window=8)
        model.observe("serial", "python", 0, 1.0)  # no subsets
        model.observe("serial", "python", -5, 1.0)  # negative count
        model.observe("serial", "python", 10, -0.1)  # negative seconds
        assert model.observation_counts() == {}
        model.observe_snapshot(0, 1.0)
        model.observe_snapshot(100, -1.0)
        assert model.snapshot_stats()["samples"] == 0

    def test_window_floor_is_enforced(self):
        with pytest.raises(ValueError, match=f">= {MIN_SAMPLES}"):
            CostModel(window=MIN_SAMPLES - 1)

    def test_linear_fit_clamps_noise_negative_coefficients(self):
        fitted = LinearFit(setup=-0.5, rate=-1e-6, samples=4)
        assert fitted.setup == 0.0
        assert fitted.rate == 0.0
        assert fitted.predict(10_000) == 0.0

    def test_reset_forgets_everything(self):
        model = CostModel(window=8)
        for n in (100, 200, 300, 400):
            model.observe("serial", "python", n, 1e-5 * n)
        model.observe_snapshot(1024, 0.001)
        model.reset()
        assert model.observation_counts() == {}
        assert model.fit("serial", "python") is None
        assert model.snapshot_stats()["samples"] == 0


# ----------------------------------------------------------------------
# Planner decisions
# ----------------------------------------------------------------------
def warm_planner(
    serial_rate=1e-5, sharded_setup=0.05, sharded_rate=1e-6
) -> Planner:
    """A planner whose python-backend cost lines are fitted and warm.

    With the defaults the strategies cross near 5.5k subsets: below
    that, serial wins (sharded pays its 50 ms setup for nothing); far
    above, sharded's 10x better rate wins.
    """
    planner = Planner(model=CostModel(window=16))
    for n in (1_000, 2_000, 4_000, 8_000):
        planner.observe("serial", "python", n, serial_rate * n)
        planner.observe(
            "sharded", "python", n, sharded_setup + sharded_rate * n
        )
    return planner


@pytest.fixture
def many_cores(monkeypatch):
    """Pretend this box has 8 usable cores (defeats the affinity veto)."""
    monkeypatch.setattr(plan.planner, "usable_cpus", lambda: 8)
    monkeypatch.setattr(plan.planner, "_active_backend_name", lambda: "python")


class TestPlannerDecisions:
    def test_serial_mode_never_shards(self, many_cores):
        planner = warm_planner()
        with plan.use_mode("serial"):
            assert not planner.should_shard(10**6, jobs=8)
        assert planner.decision_counts()["serial"] == 1
        assert planner.decision_counts()["sharded"] == 0

    def test_sharded_mode_forces_even_past_the_veto(self, monkeypatch):
        """Forced sharding is a bisection tool: it bypasses the veto."""
        monkeypatch.setattr(plan.planner, "usable_cpus", lambda: 1)
        planner = Planner(model=CostModel(window=8))
        with plan.use_mode("sharded"):
            assert planner.should_shard(2, jobs=2)
            assert not planner.should_shard(1, jobs=2)  # nothing to split
            assert not planner.should_shard(100, jobs=1)  # no workers
        counts = planner.decision_counts()
        assert counts["sharded"] == 1 and counts["serial"] == 2

    def test_static_mode_is_the_threshold_rule(self, many_cores, monkeypatch):
        monkeypatch.setenv(plan.ENV_THRESHOLD, "100")
        plan.reset_plan_caches()
        planner = warm_planner()  # a warm model must not matter here
        with plan.use_mode("static"):
            assert planner.should_shard(100, jobs=4)
            assert not planner.should_shard(99, jobs=4)
        counts = planner.decision_counts()
        assert counts["model_warm"] == 0 and counts["fallback"] == 0

    def test_auto_falls_back_to_threshold_while_cold(
        self, many_cores, monkeypatch
    ):
        monkeypatch.setenv(plan.ENV_THRESHOLD, "1000")
        plan.reset_plan_caches()
        planner = Planner(model=CostModel(window=8))  # cold
        with plan.use_mode("auto"):
            assert planner.should_shard(1000, jobs=4)
            assert not planner.should_shard(999, jobs=4)
        assert planner.decision_counts()["fallback"] == 2
        assert planner.decision_counts()["model_warm"] == 0

    def test_auto_trusts_the_warm_model_over_the_threshold(
        self, many_cores, monkeypatch
    ):
        """Warm verdicts ignore the static threshold entirely."""
        monkeypatch.setenv(plan.ENV_THRESHOLD, "10")  # would always shard
        plan.reset_plan_caches()
        planner = warm_planner()  # crossover near 5.5k subsets
        with plan.use_mode("auto"):
            assert not planner.should_shard(100, jobs=4)  # 1 ms vs 50 ms
            assert planner.should_shard(100_000, jobs=4)  # 1 s vs 0.15 s
        counts = planner.decision_counts()
        assert counts["model_warm"] == 2 and counts["fallback"] == 0

    def test_auto_single_core_veto(self, monkeypatch):
        monkeypatch.setattr(plan.planner, "usable_cpus", lambda: 1)
        planner = warm_planner()
        with plan.use_mode("auto"):
            assert not planner.should_shard(10**6, jobs=8)
        counts = planner.decision_counts()
        assert counts["vetoed_single_core"] == 1
        assert counts["serial"] == 1

    def test_reset_stats_zeroes_counters(self, many_cores):
        planner = warm_planner()
        with plan.use_mode("serial"):
            planner.should_shard(10, jobs=2)
        planner.reset_stats()
        assert all(v == 0 for v in planner.decision_counts().values())


class TestShardLayout:
    def test_static_layout_is_the_pr6_tiling(self, many_cores):
        planner = Planner(model=CostModel(window=8))
        with plan.use_mode("static"):
            layout = planner.shard_layout(10, jobs=4)
        assert layout == [3, 3, 2, 2]  # min(jobs, n) shards, first-heavy

    def test_auto_layout_oversubscribes_when_cold(self, many_cores):
        planner = Planner(model=CostModel(window=8))
        with plan.use_mode("auto"):
            layout = planner.shard_layout(100, jobs=4)
        assert len(layout) == 8  # OVERSUBSCRIPTION x jobs
        assert sum(layout) == 100
        assert max(layout) - min(layout) <= 1
        assert sorted(layout, reverse=True) == layout  # remainder first

    def test_auto_layout_caps_split_at_the_payoff_size(self, many_cores):
        """A warm per-shard fit stops the split where setup stops paying."""
        planner = Planner(model=CostModel(window=16))
        # setup 10 ms, rate 10 us/subset: payoff size = 8 * 0.01 / 1e-5
        # = 8000 subsets per shard.
        for n in (10, 100, 1_000, 5_000):
            planner.observe("shard", "python", n, 0.01 + 1e-5 * n)
        with plan.use_mode("auto"):
            layout = planner.shard_layout(48_001, jobs=4)
        # target is 8 shards, but only 48001 // 8000 = 6 pay for their
        # own dispatch; never fewer than min(jobs, n).
        assert len(layout) == 6
        assert sum(layout) == 48_001
        assert sorted(layout, reverse=True) == layout

    def test_layout_never_goes_below_the_job_floor(self, many_cores):
        """The payoff cap cannot starve the pool below min(jobs, n)."""
        planner = Planner(model=CostModel(window=16))
        for n in (10, 100, 1_000, 5_000):
            planner.observe("shard", "python", n, 0.01 + 1e-5 * n)
        with plan.use_mode("auto"):
            layout = planner.shard_layout(16_000, jobs=4)  # affords only 2
        assert len(layout) == 4
        assert sum(layout) == 16_000

    @pytest.mark.parametrize("mode", plan.PLAN_MODES)
    def test_degenerate_layouts(self, mode, many_cores):
        planner = Planner(model=CostModel(window=8))
        with plan.use_mode(mode):
            assert planner.shard_layout(0, jobs=4) == []
            assert planner.shard_layout(5, jobs=1) == [5]
            assert planner.shard_layout(1, jobs=4) == [1]


# ----------------------------------------------------------------------
# Mode selection, caches and process-wide state
# ----------------------------------------------------------------------
class TestModeAndCaches:
    def test_plan_mode_defaults_to_auto(self, monkeypatch):
        monkeypatch.delenv(plan.ENV_PLAN, raising=False)
        assert plan.plan_mode() == "auto"

    def test_plan_mode_reads_and_validates_the_env(self, monkeypatch):
        monkeypatch.setenv(plan.ENV_PLAN, "STATIC")  # case-insensitive
        assert plan.plan_mode() == "static"
        monkeypatch.setenv(plan.ENV_PLAN, "bogus")
        with pytest.raises(PlanError, match="REPRO_PLAN"):
            plan.plan_mode()

    def test_use_mode_overrides_env_and_restores(self, monkeypatch):
        monkeypatch.setenv(plan.ENV_PLAN, "serial")
        with plan.use_mode("sharded"):
            assert plan.plan_mode() == "sharded"
            with plan.use_mode("static"):  # nesting restores one level
                assert plan.plan_mode() == "static"
            assert plan.plan_mode() == "sharded"
        assert plan.plan_mode() == "serial"

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

    def test_dispatch_threshold_memo_tracks_env(self, monkeypatch):
        plan.reset_plan_caches()
        monkeypatch.delenv(plan.ENV_THRESHOLD, raising=False)
        assert plan.dispatch_threshold() == plan.DEFAULT_DISPATCH_THRESHOLD
        monkeypatch.setenv(plan.ENV_THRESHOLD, "123")
        assert plan.dispatch_threshold() == 123  # memo keyed by raw value
        monkeypatch.setenv(plan.ENV_THRESHOLD, "nope")
        with pytest.raises(KernelError, match="must be an integer"):
            plan.dispatch_threshold()

    def test_plan_window_knob_is_validated(self, monkeypatch):
        monkeypatch.delenv("REPRO_PLAN_WINDOW", raising=False)
        assert config.plan_window() == plan.DEFAULT_WINDOW
        monkeypatch.setenv("REPRO_PLAN_WINDOW", "16")
        assert config.plan_window() == 16
        for bad in ("2", "abc"):
            monkeypatch.setenv("REPRO_PLAN_WINDOW", bad)
            with pytest.raises(ConfigError):
                config.plan_window()

    def test_snapshot_cost_measured_once_per_identity(self):
        planner = Planner(model=CostModel(window=8))
        snapshot = {"weighted": [(1.0, 2.0)] * 100}
        planner.observe_snapshot_cost(snapshot)
        planner.observe_snapshot_cost(snapshot)  # same object: no re-pickle
        assert planner.model.snapshot_stats()["samples"] == 1
        planner.observe_snapshot_cost({"weighted": [(3.0,)] * 50})
        assert planner.model.snapshot_stats()["samples"] == 2

    def test_module_level_hooks_feed_the_process_planner(self):
        plan.reset_planner()
        try:
            for n in (100, 200, 300, 400):
                plan.observe_serial("python", n, 1e-5 * n)
                plan.observe_sharded("python", n, 0.01 + 1e-6 * n, shards=2)
                plan.observe_shard("python", n, 5e-6 * n)
                plan.observe_lowering("python", n, 1e-7 * n)
            stats = plan.plan_stats()
            observations = stats["model"]["observations"]
            assert observations["serial/python"] == 4
            assert observations["sharded/python"] == 4
            assert observations["shard/python"] == 4
            assert observations["lower/python"] == 4
            assert set(stats["decisions"]) == {
                "serial",
                "sharded",
                "model_warm",
                "fallback",
                "vetoed_single_core",
            }
            plan.reset_plan_stats()
            assert all(v == 0 for v in plan.decision_counts().values())
        finally:
            plan.reset_planner()  # leave no synthetic timings behind


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
        with plan.use_mode("serial"):
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
        with plan.use_mode("serial"):
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

        After every mutation the planner's cost model has drifted (new
        observations, possibly new decisions) — the next batch must
        still equal a fresh serial engine on the same graph, bit for
        bit.
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
            with plan.use_mode("serial"):
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
        assert set(decisions) <= {
            "serial",
            "sharded",
            "model_warm",
            "fallback",
            "vetoed_single_core",
        }


class _WeakrefableSnapshot:
    """A minimal weakref-able snapshot stand-in for memoization tests."""

    def __init__(self) -> None:
        self.weighted = [(1.0, 2.0)] * 50


class TestSnapshotCostIdReuse:
    """The snapshot-cost memo must key on identity, not on ``id()`` alone.

    Regression for a bug where the memo was a bare ``set`` of ``id()``
    values: CPython recycles addresses after garbage collection, so a
    fresh snapshot allocated at a dead snapshot's address silently
    inherited its cost measurement and was never pickled-probed itself.
    """

    def test_recycled_id_is_measured_independently(self):
        import gc

        planner = Planner(model=CostModel(window=8))
        first = _WeakrefableSnapshot()
        planner.observe_snapshot_cost(first)
        assert planner.model.snapshot_stats()["samples"] == 1
        second = _WeakrefableSnapshot()
        # Simulate address reuse: transplant the dead entry onto the new
        # snapshot's id, then drop the original so its weakref dies.
        planner._measured_snapshots[id(second)] = (
            planner._measured_snapshots.pop(id(first))
        )
        del first
        gc.collect()
        planner.observe_snapshot_cost(second)
        assert planner.model.snapshot_stats()["samples"] == 2

    def test_live_collision_with_different_object_remeasures(self):
        planner = Planner(model=CostModel(window=8))
        first = _WeakrefableSnapshot()
        second = _WeakrefableSnapshot()
        planner.observe_snapshot_cost(first)
        # A stored entry for second's id that resolves to *first* must
        # not count as a hit for second.
        planner._measured_snapshots[id(second)] = (
            planner._measured_snapshots[id(first)]
        )
        planner.observe_snapshot_cost(second)
        assert planner.model.snapshot_stats()["samples"] == 2

    def test_memo_is_fifo_bounded(self):
        planner = Planner(model=CostModel(window=64))
        keep = [_WeakrefableSnapshot() for _ in range(20)]
        for snapshot in keep:
            planner.observe_snapshot_cost(snapshot)
        assert len(planner._measured_snapshots) <= 16
        assert planner.model.snapshot_stats()["samples"] == 20

    def test_unweakrefable_snapshot_still_memoized(self):
        planner = Planner(model=CostModel(window=8))
        snapshot = {"weighted": [(1.0,)] * 10}  # dicts take no weakrefs
        planner.observe_snapshot_cost(snapshot)
        planner.observe_snapshot_cost(snapshot)
        assert planner.model.snapshot_stats()["samples"] == 1

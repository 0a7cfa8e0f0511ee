"""Conformance and dispatch tests for the batched scoring kernel.

Every batched backend must be *bit-identical* to the retained per-subset
path (:class:`~repro.kernel.OracleBackend` wraps the original heap
merge), so the property tests compare ``float.hex`` representations, not
approximate equality.  Coverage:

* hypothesis conformance on synthetic pools drawn from a small score
  grid (grids force ties, the hardest case for tie-breaks) mixed with
  non-dyadic scores (whose sums round, the case for accumulation
  order);
* explicit lowest-index tie-break and edge batches (empty, singleton,
  all-infeasible, duplicate keys, ``extra_cap=0``);
* end-to-end conformance of all four discovery algorithms under each
  backend, including against a mutation-patched incremental pool;
* subprocess guards proving ``REPRO_KERNEL=python`` never imports
  numpy, and that neither does a concise preview answered from a
  store under the default settings;
* unit tests for backend selection, and for the planner rules that
  read the active backend (the rest of the planner's tests live in
  ``tests/test_plan.py``).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import kernel, plan
from repro.core import (
    DistanceConstraint,
    SizeConstraint,
    apriori_discover,
    branch_and_bound_discover,
    brute_force_discover,
    dynamic_programming_discover,
)
from repro.exceptions import KernelError, UnknownTypeError
from repro.ext import IncrementalEntityGraph
from repro.model import RelationshipTypeId

ACTED = RelationshipTypeId("Acted In", "ACTOR", "FILM")
DIRECTED = RelationshipTypeId("Directed", "DIRECTOR", "FILM")

NUMPY_MISSING = "numpy" not in kernel.available_backends()

#: Every batched backend loadable here, as parametrize values.
BATCHED = [
    "python",
    pytest.param(
        "numpy", marks=pytest.mark.skipif(NUMPY_MISSING, reason="no numpy")
    ),
]


class FakeSource:
    """Duck-typed pool: ``index``/``weighted``/``attrs`` is all a backend
    (and the oracle's heap merge) ever reads."""

    def __init__(self, rows):
        self.index = {f"T{i}": i for i in range(len(rows))}
        self.weighted = tuple(tuple(row) for row in rows)
        # One dummy attribute per weighted value: the oracle treats an
        # empty attrs row as infeasible, matching an empty weighted row.
        self.attrs = tuple(
            tuple(f"a{i}.{j}" for j in range(len(row)))
            for i, row in enumerate(rows)
        )

    @property
    def types(self):
        return tuple(self.index)


def hexes(scores):
    """Bit-exact comparison key for a list of Optional[float]."""
    return [None if s is None else s.hex() for s in scores]


# A coarse grid of scores: repeated values across rows force score ties
# between different subsets, the case where accumulation order and
# tie-break rules actually matter.
GRID = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0])

# Non-dyadic scores: sums of the grid are exact, so any accumulation
# order reproduces them, but sums of these round, and only the oracle's
# left-to-right order reproduces its bits (builtin ``sum`` compensates
# float sums since Python 3.12).
SCORES = st.one_of(
    GRID,
    st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 0.7, 2.2, 5981.059007177315]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)

rows_strategy = st.lists(
    st.lists(SCORES, min_size=0, max_size=5).map(
        lambda vals: tuple(sorted(vals, reverse=True))
    ),
    min_size=1,
    max_size=5,
)

CONFORMANCE = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def pool_and_batch(draw):
    rows = draw(rows_strategy)
    source = FakeSource(rows)
    keys = st.sampled_from(source.types)
    # Duplicates allowed on purpose: duplicate-key subsets must come
    # back infeasible from every backend.
    subsets = draw(
        st.lists(
            st.lists(keys, min_size=1, max_size=4).map(tuple),
            min_size=0,
            max_size=8,
        )
    )
    extra_cap = draw(st.integers(min_value=0, max_value=6))
    return source, subsets, extra_cap


#: A pool whose one subset sums 0.7 + 0.2 + 0.1: left to right that is
#: 0.9999999999999999, compensated (builtin ``sum`` on 3.12+) 1.0.
ROUNDING_CASE = (FakeSource([(0.7, 0.2, 0.1)]), [("T0",)], 2)


class TestBatchedMatchesOracle:
    """Property: every batched backend == the per-subset oracle, bit for bit."""

    @pytest.mark.parametrize("name", BATCHED)
    @CONFORMANCE
    @given(case=pool_and_batch())
    @example(case=ROUNDING_CASE)
    def test_batch_scores_bit_identical(self, name, case):
        source, subsets, extra_cap = case
        oracle = kernel.get_backend("oracle")
        backend = kernel.get_backend(name)
        expected = oracle.batch_scores(
            oracle.lower(source), subsets, extra_cap
        )
        actual = backend.batch_scores(
            backend.lower(source), subsets, extra_cap
        )
        assert hexes(actual) == hexes(expected)

    @pytest.mark.parametrize("name", BATCHED)
    @CONFORMANCE
    @given(case=pool_and_batch())
    @example(case=ROUNDING_CASE)
    def test_best_allocation_bit_identical(self, name, case):
        source, subsets, extra_cap = case
        oracle = kernel.get_backend("oracle")
        backend = kernel.get_backend(name)
        expected = oracle.best_allocation(
            oracle.lower(source), subsets, extra_cap
        )
        actual = backend.best_allocation(
            backend.lower(source), subsets, extra_cap
        )
        if expected is None:
            assert actual is None
        else:
            assert actual is not None
            assert actual[1] == expected[1]
            assert actual[0].hex() == expected[0].hex()


@pytest.mark.parametrize("name", ["oracle"] + BATCHED)
class TestTieBreaksAndEdges:
    def test_lowest_index_wins_on_equal_scores(self, name):
        # T0 and T1 carry identical rows, so (T0,) and (T1,) score the
        # same at every budget: the batch winner must be the first.
        source = FakeSource([(2.0, 1.0), (2.0, 1.0), (3.0,)])
        backend = kernel.get_backend(name)
        columns = backend.lower(source)
        best = backend.best_allocation(columns, [("T0",), ("T1",)], 1)
        assert best is not None
        assert best[1] == 0
        assert best[0].hex() == (3.0).hex()
        # Order flipped, the winner is still the lowest batch index.
        best = backend.best_allocation(columns, [("T1",), ("T0",)], 1)
        assert best[1] == 0

    def test_empty_batch(self, name):
        source = FakeSource([(1.0,)])
        backend = kernel.get_backend(name)
        assert backend.best_allocation(backend.lower(source), [], 2) is None
        assert backend.batch_scores(backend.lower(source), [], 2) == []

    def test_singleton_batch(self, name):
        source = FakeSource([(2.0, 1.0, 0.5)])
        backend = kernel.get_backend(name)
        best = backend.best_allocation(backend.lower(source), [("T0",)], 2)
        assert best == (3.5, 0)

    def test_extra_cap_zero_is_top1_sum(self, name):
        source = FakeSource([(2.0, 1.0), (1.5, 0.5)])
        backend = kernel.get_backend(name)
        best = backend.best_allocation(
            backend.lower(source), [("T0", "T1")], 0
        )
        assert best == (3.5, 0)

    def test_duplicate_keys_are_infeasible(self, name):
        source = FakeSource([(2.0,), (1.0,)])
        backend = kernel.get_backend(name)
        columns = backend.lower(source)
        assert backend.batch_scores(columns, [("T0", "T0")], 1) == [None]
        # A batch of only duplicate-key subsets has no winner at all.
        assert backend.best_allocation(columns, [("T0", "T0")], 1) is None

    def test_empty_row_is_infeasible(self, name):
        source = FakeSource([(), (1.0,)])
        backend = kernel.get_backend(name)
        columns = backend.lower(source)
        assert backend.batch_scores(columns, [("T0",), ("T1",)], 1) == [
            None,
            1.0,
        ]
        assert backend.best_allocation(columns, [("T0",)], 1) is None

    def test_unknown_key_raises(self, name):
        source = FakeSource([(1.0,)])
        backend = kernel.get_backend(name)
        with pytest.raises(UnknownTypeError):
            backend.best_allocation(backend.lower(source), [("NOPE",)], 1)
        with pytest.raises(UnknownTypeError):
            backend.batch_scores(backend.lower(source), [("NOPE",)], 1)

    def test_ragged_arities_in_one_batch(self, name):
        source = FakeSource([(2.0, 1.0), (1.5, 0.5), (1.0,)])
        backend = kernel.get_backend(name)
        oracle = kernel.get_backend("oracle")
        batch = [("T0",), ("T0", "T1", "T2"), ("T1", "T2"), ("T2", "T2")]
        assert hexes(
            backend.batch_scores(backend.lower(source), batch, 2)
        ) == hexes(oracle.batch_scores(oracle.lower(source), batch, 2))


POINTS = [
    dict(k=1, n=2, d=None, mode="tight"),
    dict(k=2, n=4, d=2, mode="tight"),
    dict(k=2, n=5, d=2, mode="diverse"),
    dict(k=3, n=6, d=3, mode="tight"),
]


def _discoveries(context, point):
    """One result per algorithm for a grid point (None where the
    algorithm does not apply to the point's constraint shape)."""
    size = SizeConstraint(k=point["k"], n=point["n"])
    if point["d"] is None:
        constraint = None
    elif point["mode"] == "tight":
        constraint = DistanceConstraint.tight(point["d"])
    else:
        constraint = DistanceConstraint.diverse(point["d"])
    results = {
        "brute-force": brute_force_discover(context, size, constraint),
        "branch-and-bound": branch_and_bound_discover(
            context, size, constraint
        ),
    }
    if constraint is None:
        results["dynamic-programming"] = dynamic_programming_discover(
            context, size
        )
    else:
        results["apriori"] = apriori_discover(context, size, constraint)
    return results


class TestAlgorithmConformance:
    """All four discovery algorithms are bit-identical across backends."""

    @pytest.mark.parametrize("name", BATCHED)
    @pytest.mark.parametrize("point", POINTS, ids=lambda p: repr(p))
    def test_fig1_discoveries_match_oracle(self, fig1_context, name, point):
        with kernel.use_backend("oracle"):
            expected = _discoveries(fig1_context, point)
        with kernel.use_backend(name):
            actual = _discoveries(fig1_context, point)
        assert set(actual) == set(expected)
        for algorithm, reference in expected.items():
            result = actual[algorithm]
            if reference is None:
                assert result is None, algorithm
                continue
            assert result == reference, algorithm
            assert result.score.hex() == reference.score.hex(), algorithm

    @pytest.mark.parametrize("name", BATCHED)
    def test_patched_pool_after_mutation(self, name):
        """Backends read mutation-patched pools identically to fresh ones."""
        inc = IncrementalEntityGraph(name="live")
        for i in range(3):
            inc.add_entity(f"film{i}", ["FILM"])
        inc.add_entity("actor0", ["ACTOR"])
        inc.add_entity("director0", ["DIRECTOR"])
        for i in range(3):
            inc.add_relationship("actor0", f"film{i}", ACTED)
        inc.add_relationship("director0", "film0", DIRECTED)
        inc.context().candidate_pool()  # cache, so the mutation patches
        for i in range(3, 8):
            inc.add_entity(f"film{i}", ["FILM"])
            inc.add_relationship("director0", f"film{i}", DIRECTED)
        pool = inc.context().candidate_pool()  # the patched pool

        oracle = kernel.get_backend("oracle")
        backend = kernel.get_backend(name)
        types = pool.types
        batch = [(t,) for t in types] + [
            (a, b) for a in types for b in types
        ]
        for extra_cap in (0, 1, 3):
            assert hexes(
                backend.batch_scores(backend.lower(pool), batch, extra_cap)
            ) == hexes(
                oracle.batch_scores(oracle.lower(pool), batch, extra_cap)
            )
        with kernel.use_backend("oracle"):
            expected = _discoveries(
                inc.context(), dict(k=2, n=4, d=2, mode="tight")
            )
        with kernel.use_backend(name):
            actual = _discoveries(
                inc.context(), dict(k=2, n=4, d=2, mode="tight")
            )
        assert actual == expected


class TestBackendSelection:
    def test_available_backends_always_offer_fallbacks(self):
        names = kernel.available_backends()
        assert "oracle" in names and "python" in names

    def test_unknown_backend_rejected(self):
        with pytest.raises(KernelError, match="unknown kernel backend"):
            kernel.get_backend("quantum")

    def test_use_backend_restores_previous(self):
        before = kernel.backend_name()
        with kernel.use_backend("python") as backend:
            assert backend.name == "python"
            assert kernel.backend_name() == "python"
            with kernel.use_backend("oracle"):
                assert kernel.backend_name() == "oracle"
            assert kernel.backend_name() == "python"
        assert kernel.backend_name() == before

    def test_auto_prefers_numpy_when_available(self):
        resolved = kernel.get_backend("auto")
        if NUMPY_MISSING:
            assert resolved.name == "python"
        else:
            assert resolved.name == "numpy"

    def test_backends_are_cached(self):
        assert kernel.get_backend("python") is kernel.get_backend("python")

    def test_serial_dispatch_counts_batches(self, fig1_context):
        pool = fig1_context.candidate_pool()
        before = kernel.kernel_stats()
        best = kernel.best_allocation(pool, [(t,) for t in pool.types], 1)
        after = kernel.kernel_stats()
        assert best is not None
        assert after["batches"] == before["batches"] + 1
        assert after["subsets"] == before["subsets"] + len(pool.types)
        # An empty batch short-circuits without touching the counters.
        assert kernel.best_allocation(pool, [], 1) is None
        assert kernel.kernel_stats() == after

    def test_python_backend_never_imports_numpy(self):
        """REPRO_KERNEL=python must keep numpy out of the process, even
        when it is installed: the probe uses find_spec, not import."""
        code = (
            "import sys\n"
            "from repro.core import apriori_discover, brute_force_discover\n"
            "from repro.core.constraints import DistanceConstraint, "
            "SizeConstraint\n"
            "from repro.datasets import random_schema_graph\n"
            "from repro.engine import PreviewEngine, PreviewQuery\n"
            "from repro.scoring import ScoringContext\n"
            "from repro import kernel\n"
            "assert kernel.backend_name() == 'python'\n"
            "context = ScoringContext(random_schema_graph(5, 8, seed=1))\n"
            "size = SizeConstraint(k=2, n=4)\n"
            "apriori_discover(context, size, DistanceConstraint.tight(2))\n"
            "brute_force_discover(context, size)\n"
            "engine = PreviewEngine(context)\n"
            "engine.query(k=2, n=4, d=2, mode='tight')\n"
            "assert 'numpy' not in sys.modules, \\\n"
            "    'numpy imported under REPRO_KERNEL=python'\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), REPRO_KERNEL="python")
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    def test_concise_store_preview_never_imports_numpy(self, tmp_path):
        """Opening a store and answering the CLI-default concise preview
        (k=3, n=9) keeps numpy out of the process under every default
        setting: numpy would add about a third to the process's memory."""
        from repro.datasets import generate_domain
        from repro.store import build_store

        path = tmp_path / "architecture.rgs"
        build_store(generate_domain("architecture", scale=1000, seed=0), path)
        code = (
            "import sys\n"
            "from repro.core.serialize import result_to_dict\n"
            "from repro.datasets import load_domain_file\n"
            "from repro.engine import PreviewEngine\n"
            "engine = PreviewEngine(load_domain_file(sys.argv[1]))\n"
            "result_to_dict(engine.query(k=3, n=9))\n"
            "assert 'numpy' not in sys.modules, 'numpy imported on the concise path'\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = {
            name: value
            for name, value in os.environ.items()
            if not name.startswith("REPRO_")
        }
        env["PYTHONPATH"] = str(src)
        subprocess.run([sys.executable, "-c", code, str(path)], check=True, env=env)


class TestDispatchPlan:
    """The planner's rules as seen from the active kernel backend.

    Forced to ``auto`` mode, the default.  The boundary per backend and
    the other modes live in ``tests/test_plan.py``.
    """

    @pytest.fixture(autouse=True)
    def _auto_mode(self):
        plan.reset_plan_caches()
        with plan.use_mode("auto"):
            yield
        plan.reset_plan_caches()

    def test_default_threshold(self):
        """The threshold is the active backend's measured constant."""
        assert plan.shard_threshold() == kernel.active_backend().shard_threshold

    def test_one_core_vetoes_sharding(self, monkeypatch):
        """Workers pinned to one core serialize: never worth dispatching."""
        monkeypatch.setattr(plan.planner, "usable_cpus", lambda: 1)
        assert not plan.should_shard(10**9, 8)
        monkeypatch.setattr(plan.planner, "usable_cpus", lambda: 2)
        assert plan.should_shard(10**9, 8)

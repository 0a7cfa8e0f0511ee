"""Bound pruning in ``discover_among``: the pruned answer is the oracle's.

:func:`repro.core.candidates.discover_among` scores only the subsets
whose Theorem-3 bound reaches :func:`~repro.core.candidates.bound_floor`
of an incumbent's score.  The ``oracle`` kernel backend prunes nothing,
so every property here diffs the python and numpy backends against it:
the preview, the score's ``float.hex`` and ``candidates_examined`` must
be identical.  Coverage:

* the gathered bounds equal ``upper_bound_for_keys`` bit for bit;
* hand-built k=1 pools where a score rounds above its own bound, which
  a margin-less comparison gets wrong in branch-and-bound and in
  pruning;
* random pools with planted exact ties, duplicate keys and empty
  candidate rows, serial and forced ``sharded``, as one batch and cut
  into chunks;
* random entity graphs under every scorer pair, through
  :class:`~repro.engine.PreviewEngine`;
* the per-pool lowering cache of :func:`repro.kernel.lowered`.
"""

from __future__ import annotations

import math
import sys
import threading
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import config, kernel, plan
from repro.core import branch_and_bound_discover, brute_force_discover
from repro.core.candidates import (
    best_preview_for_keys,
    discover_among,
    table_bounds,
    upper_bound_for_keys,
)
from repro.core.constraints import SizeConstraint
from repro.core.discovery import make_context
from repro.core.serialize import result_to_dict
from repro.datasets.synthetic import random_entity_graph
from repro.engine import PreviewEngine, PreviewQuery
from repro.exceptions import DiscoveryError
from repro.model import Direction, NonKeyAttribute, RelationshipTypeId
from repro.parallel import ScoringSnapshot, ShardedExecutor
from repro.scoring import KEY_SCORERS, NONKEY_SCORERS
from repro.scoring.candidate_pool import CandidatePool

NUMPY_MISSING = "numpy" not in kernel.available_backends()

#: The backends that prune, as parametrize values.
PRUNING = [
    "python",
    pytest.param(
        "numpy", marks=pytest.mark.skipif(NUMPY_MISSING, reason="no numpy")
    ),
]

SCORER_PAIRS = [(key, nonkey) for key in KEY_SCORERS for nonkey in NONKEY_SCORERS]

PROPERTY = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def attribute(key: str, rank: int) -> NonKeyAttribute:
    return NonKeyAttribute(
        RelationshipTypeId(f"r{rank}", key, f"V{rank}"), Direction.OUT
    )


class PoolContext:
    """A hand-built candidate pool behind the context surface that
    ``discover_among``, brute force and branch-and-bound read."""

    key_scorer_name = "coverage"
    nonkey_scorer_name = "coverage"

    def __init__(self, key_scores, rows):
        self.pool = CandidatePool.build(
            list(key_scores),
            key_scores,
            {
                key: [(attribute(key, rank), score) for rank, score in enumerate(row)]
                for key, row in rows.items()
            },
        )

    def candidate_pool(self) -> CandidatePool:
        return self.pool

    def top_m_table_score(self, key, m: int) -> float:
        return self.pool.top_m_score(key, m)


def answer(result):
    """What must match the oracle: the preview, score bits, examined count."""
    if result is None:
        return None
    return result.preview, result.score.hex(), result.candidates_examined


def oracle_answer(context, size, subsets):
    with kernel.use_backend("oracle"):
        return answer(discover_among(context, size, [subsets], "t"))


# ----------------------------------------------------------------------
# The gathered bound is upper_bound_for_keys, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend_name", PRUNING)
@pytest.mark.parametrize("scorers", SCORER_PAIRS)
@pytest.mark.parametrize("k, n", [(1, 3), (2, 5), (3, 7)])
def test_gathered_bounds_equal_upper_bound_for_keys(
    backend_name, scorers, k, n, monkeypatch
):
    """Every subset's gathered bound has ``upper_bound_for_keys``'s bits.

    Subsets with a duplicate key, or a key with no candidate, gather
    ``-inf``; the seed is the first largest finite bound.  numpy also
    gathers 7 rows at a time, so chunk boundaries fall inside the batch.
    """
    graph = random_entity_graph(9, 14, 150, 500, seed=5)
    context = make_context(graph, key_scorer=scorers[0], nonkey_scorer=scorers[1])
    pool = context.candidate_pool()
    size = SizeConstraint(k=k, n=n)
    subsets = list(combinations(pool.types, k))
    if k > 1:
        subsets += [(pool.types[0],) * k, subsets[-1][:1] * k]
    backend = kernel.get_backend(backend_name)
    runs = [(subsets, None)]
    if backend_name == "numpy":
        from repro.kernel import numpy_backend
        import numpy as np

        nodes = tuple(pool.types)
        rows = np.array(
            [[nodes.index(key) for key in keys] for keys in subsets], dtype=np.uint8
        )
        matrix = numpy_backend.SubsetMatrix(nodes, rows)
        runs += [(matrix, None), (subsets, 7), (matrix, 7)]
    for batch, rows_at_a_time in runs:
        if rows_at_a_time is not None:
            monkeypatch.setattr(numpy_backend, "BATCH_SIZE", rows_at_a_time)
        bounds, seed = backend.subset_bounds(
            pool.index, batch, table_bounds(pool, size)
        )
        expected = []
        for keys in subsets:
            if len(set(keys)) != len(keys) or not all(
                pool.attrs[pool.index[key]] for key in keys
            ):
                expected.append(float("-inf").hex())
            else:
                expected.append(float(upper_bound_for_keys(context, keys, size)).hex())
        assert [float(bound).hex() for bound in bounds] == expected
        finite = [float.fromhex(h) for h in expected if h != "-inf"]
        assert seed == expected.index(max(finite).hex())


@pytest.mark.parametrize("backend_name", PRUNING)
def test_all_infeasible_batch_has_no_seed(backend_name):
    context = PoolContext({"A": 1.0, "B": 2.0}, {"A": (), "B": (1.0,)})
    pool = context.pool
    backend = kernel.get_backend(backend_name)
    size = SizeConstraint(k=2, n=3)
    for batch in ([("A", "B"), ("B", "B")], []):
        _, seed = backend.subset_bounds(pool.index, batch, table_bounds(pool, size))
        assert seed is None
        assert discover_among(context, size, [batch], "t") is None


# ----------------------------------------------------------------------
# A score can round above its own bound: the margin keeps it
# ----------------------------------------------------------------------
#: Type B's candidates, weighted by B's key score 0.3.  The merge sums
#: 0.3·0.7 + 0.3·0.2 + 0.3·0.1 = 0x1.3333333333334p-2, two ulps above
#: the prefix bound 0.3·(0.7 + 0.2 + 0.1) = 0x1.3333333333332p-2.
B_KEY, B_ROW = 0.3, (0.7, 0.2, 0.1)
K1 = SizeConstraint(k=1, n=3)


def rounding_context(a_score: float) -> PoolContext:
    """Type A (listed first, one candidate) scores exactly ``a_score``."""
    return PoolContext({"A": 1.0, "B": B_KEY}, {"A": (a_score,), "B": B_ROW})


def b_bound_and_score():
    probe = rounding_context(1.0)
    bound = upper_bound_for_keys(probe, ("B",), K1)
    score = best_preview_for_keys(probe, ("B",), K1)[1]
    assert score > bound, "the planted rounding case no longer rounds up"
    return bound, score


def a_scores():
    """A at B's bound, and A strictly between B's bound and B's score."""
    bound, score = b_bound_and_score()
    between = math.nextafter(bound, math.inf)
    assert bound < between < score
    return {"at-bound": bound, "between": between}


@pytest.mark.parametrize("variant", ["at-bound", "between"])
def test_branch_and_bound_keeps_a_score_above_its_bound(variant):
    """B's bound does not reach A's score, yet B scores higher.

    Comparing bounds with no margin, branch-and-bound stops at B's
    bound once A is the incumbent and returns A; brute force returns B.
    """
    context = rounding_context(a_scores()[variant])
    exact = brute_force_discover(context, K1)
    found = branch_and_bound_discover(context, K1)
    assert exact.preview.tables[0].key == "B"
    assert found.preview == exact.preview
    assert found.score.hex() == exact.score.hex()


@pytest.mark.parametrize("backend_name", PRUNING + ["oracle"])
@pytest.mark.parametrize("variant", ["at-bound", "between"])
def test_pruning_keeps_a_score_above_its_bound(backend_name, variant):
    """Pruning seeds with A, whose bound is its score; B must survive.

    In the ``between`` variant B's bound lies below the incumbent, so
    a margin-less floor prunes B and returns A.
    """
    context = rounding_context(a_scores()[variant])
    with kernel.use_backend(backend_name):
        found = discover_among(context, K1, [[("A",), ("B",)]], "t")
    assert found.preview.tables[0].key == "B"
    assert answer(found) == oracle_answer(context, K1, [("A",), ("B",)])


# ----------------------------------------------------------------------
# Random pools: planted ties, duplicate keys, empty rows
# ----------------------------------------------------------------------
#: A coarse grid forces exact ties between subsets; the non-dyadic
#: values make sums round, so scores can land above their bounds.
SCORES = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
    st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 0.7, 2.2]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)


@st.composite
def pool_and_batch(draw):
    """A pool of up to 7 types, a batch of k-subsets over it, and the
    batch cut into chunks of random lengths (1 up to the whole batch).

    Some rows are copies of others, so whole subsets tie exactly; rows
    may be empty and keys may repeat inside a subset.
    """
    rows = draw(
        st.lists(
            st.lists(SCORES, max_size=5).map(lambda v: tuple(sorted(v, reverse=True))),
            min_size=1,
            max_size=7,
        )
    )
    keys = draw(st.lists(SCORES, min_size=len(rows), max_size=len(rows)))
    copies = draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))
    for at in copies:
        rows.append(rows[at])
        keys.append(keys[at])
    names = [f"T{i}" for i in range(len(rows))]
    context = PoolContext(dict(zip(names, keys)), dict(zip(names, rows)))
    k = draw(st.integers(1, min(4, len(names))))
    n = draw(st.integers(k, 3 * k + 2))
    subsets = list(combinations(names, k))
    if len(subsets) < 40:
        subsets = draw(st.permutations(subsets))
    subsets += draw(
        st.lists(st.lists(st.sampled_from(names), min_size=k, max_size=k).map(tuple),
                 max_size=3)
    )
    cuts = sorted(draw(st.sets(st.integers(1, len(subsets) - 1)))) if len(subsets) > 1 else []
    chunks = [subsets[a:b] for a, b in zip([0] + cuts, cuts + [len(subsets)])]
    return context, SizeConstraint(k=k, n=n), subsets, chunks


@pytest.mark.parametrize("backend_name", PRUNING)
@PROPERTY
@given(case=pool_and_batch())
def test_pruned_matches_oracle_on_random_pools(backend_name, case):
    """One batch, and the same batch in chunks, answer as the oracle
    does over the whole batch."""
    context, size, subsets, chunks = case
    with kernel.use_backend(backend_name):
        pruned = answer(discover_among(context, size, [subsets], "t"))
        streamed = answer(discover_among(context, size, chunks, "t"))
    assert pruned == streamed == oracle_answer(context, size, subsets)


@pytest.fixture(scope="module")
def executor():
    with ShardedExecutor(max(config.test_jobs(), 2)) as live:
        yield live


@pytest.mark.parametrize("backend_name", PRUNING)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=pool_and_batch())
def test_pruned_matches_oracle_forced_sharded(backend_name, case, executor):
    """Survivor batches cross the worker pool with the same answer,
    from one batch and from chunks."""
    context, size, subsets, chunks = case
    with kernel.use_backend(backend_name), plan.use_mode("sharded"):
        pruned = answer(discover_among(context, size, [subsets], "t", executor))
        streamed = answer(discover_among(context, size, chunks, "t", executor))
    assert pruned == streamed == oracle_answer(context, size, subsets)


# ----------------------------------------------------------------------
# Random entity graphs through the engine, every scorer pair
# ----------------------------------------------------------------------
queries = st.builds(
    lambda k, extra, d, mode: (k, k + extra, d, mode),
    st.integers(1, 4),
    st.integers(0, 6),
    st.integers(1, 3),
    st.sampled_from(["tight", "diverse"]),
)


def engine_payload(graph, scorers, query, executor=None):
    engine = PreviewEngine(graph, key_scorer=scorers[0], nonkey_scorer=scorers[1])
    try:
        result = engine.run(query, executor=executor)
    except DiscoveryError as exc:  # infeasible, or k above the key types
        return type(exc).__name__
    payload = result_to_dict(result)
    payload["score"] = result.score.hex()
    return payload


@pytest.mark.parametrize("backend_name", PRUNING)
@PROPERTY
@given(
    shape=st.tuples(st.integers(3, 10), st.integers(0, 10_000)),
    scorers=st.sampled_from(SCORER_PAIRS),
    point=queries,
    algorithm=st.sampled_from(["apriori", "brute-force"]),
)
def test_engine_matches_oracle_on_random_graphs(
    backend_name, shape, scorers, point, algorithm, executor
):
    """Apriori's clique groups and brute force's listed batch, pruned."""
    types, seed = shape
    graph = random_entity_graph(types, types + 4, 12 * types, 40 * types, seed=seed)
    k, n, d, mode = point
    if k > types:
        k = types
    query = PreviewQuery(k=k, n=max(n, k), d=d, mode=mode, algorithm=algorithm)
    with kernel.use_backend("oracle"):
        expected = engine_payload(graph, scorers, query)
    with kernel.use_backend(backend_name):
        assert engine_payload(graph, scorers, query) == expected
        with plan.use_mode("sharded"):
            assert engine_payload(graph, scorers, query, executor) == expected


# ----------------------------------------------------------------------
# Lowered columns are cached on the pool
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend_name", PRUNING + ["oracle"])
def test_pool_is_lowered_once_per_backend(backend_name, fig1_context, monkeypatch):
    pool = fig1_context.candidate_pool().patched([], fig1_context)  # a fresh cache
    backend = kernel.get_backend(backend_name)
    calls = []
    lower = backend.lower
    monkeypatch.setattr(backend, "lower", lambda source: calls.append(1) or lower(source))
    subsets = [(t,) for t in pool.eligible]
    with kernel.use_backend(backend_name):
        first = kernel.best_allocation(pool, subsets, 2)
        second = kernel.best_allocation(pool, subsets, 3)
        assert kernel.best_allocation(pool, subsets, 2) == first
        assert second is not None
    assert len(calls) == 1
    assert set(pool.kernel_columns) == {backend_name}
    # A snapshot has no cache: it is lowered on every call.
    snapshot = ScoringSnapshot.from_pool(pool)
    kernel.lowered(backend, snapshot)
    kernel.lowered(backend, snapshot)
    assert len(calls) == 3


def test_lowering_cache_is_not_part_of_the_pool(fig1_context):
    """Equality ignores the cache, and a patched pool starts empty."""
    pool = fig1_context.candidate_pool()
    kernel.best_allocation(pool, [(t,) for t in pool.eligible], 1)
    assert pool.kernel_columns
    patched = pool.patched(pool.eligible[:1], fig1_context)
    assert patched.kernel_columns == {}
    assert patched == pool


def test_concurrent_scoring_never_reads_a_partial_lowering(fig1_context):
    """Threads racing to lower one fresh pool all get the serial answer.

    More threads than cores and a tiny switch interval interleave the
    first lowering and the first per-budget tail cache; a thread that
    read a half-built cache would score differently or raise.
    """
    base = fig1_context.candidate_pool()
    subsets = [(t,) for t in base.eligible] + [tuple(base.eligible[:2])]
    expected = kernel.best_allocation(base, subsets, 2)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            pool = base.patched([], fig1_context)  # an empty cache
            results = []

            def score():
                results.append(kernel.best_allocation(pool, subsets, 2))

            threads = [threading.Thread(target=score) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [expected] * len(threads)
    finally:
        sys.setswitchinterval(previous)

"""Replay the large-group workload traces digest-for-digest.

The golden trace (``tests/data/workload_golden.jsonl``) runs on
architecture, whose largest scored batch has a few hundred subsets.
These traces reach the clique groups that bound pruning
(``docs/scoring-kernel.md``) changes, and pin their unpruned answers:

``workload_music_large_groups.jsonl``
    music 1/1000, coverage × coverage.  Its previews and sweeps score
    the k=3 d=2 diverse group (42,137 subsets) and the k=3 d=3 tight
    group (25,905 subsets).
``workload_film_entropy_ties.jsonl``
    film 1/1000, coverage × entropy.  Its previews and sweeps score the
    k=4 d=3 diverse group (87,770 subsets), where two subsets tie
    exactly at the optimum, so the lowest-index rule decides the
    answer.  Entropy scores are not exact binary fractions, so some
    scores there round above their computed bound.
``workload_random_walk_entropy.jsonl``
    film 1/1000, random_walk × entropy.  Its reads score the k=3 d=1
    diverse group (39,711 subsets) and the k=3 d=2 tight group (1,918
    subsets) on both sides of non-structural writes, which keep the
    engine's clique groups, and after two structural writes, which
    drop them.

The first two were made with :func:`repro.workload.generate_trace` (seed 0,
36 ops, ``ScenarioSpec(name=f"{domain}-bound-{i}", structural_rate=0.1,
burst_length=2, sweep_rate=0.25, stats_rate=0.04, clients=2)`` with
``i`` = 41 for music and 173 for film) and stamped by
:func:`repro.workload.record_digests` under ``REPRO_KERNEL=oracle``,
the per-subset heap merge that scores every subset.  Pooled queries
ask for at most 3 tables, so the film trace was generated with that
cap raised to 4 in ``_build_query_pool``: it is committed data that
the shipped generator does not reproduce.  Both headers' ``scenario``
provenance records the cap each trace was made with as
``max_tables``.  The random-walk trace was made the same way from
48 ops of ``ScenarioSpec(name="film-walk-18", ...)`` with the same
rates, scored ``key_scorer="random_walk", nonkey_scorer="entropy"``.
The music and random-walk traces are regenerated from their recipes
below.  The CI ``workload``, ``replicate`` and ``store`` jobs replay
every trace through the remaining paths.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import kernel
from repro.core.apriori import qualifying_subsets
from repro.core.constraints import DistanceConstraint, SizeConstraint
from repro.core.discovery import make_context
from repro.serve.host import apply_mutation, parse_mutation
from repro.workload import (
    ScenarioSpec,
    WorkloadTrace,
    generate_trace,
    replay_trace,
)
from repro.workload.replay import _starting_graph

DATA = Path(__file__).resolve().parent / "data"

#: Trace file -> the ``(k, d, mode)`` groups its reads must score.
TRACES = {
    "workload_music_large_groups.jsonl": {(3, 2, "diverse"), (3, 3, "tight")},
    "workload_film_entropy_ties.jsonl": {(4, 3, "diverse")},
    "workload_random_walk_entropy.jsonl": {(3, 1, "diverse"), (3, 2, "tight")},
}

#: Trace file -> the ``generate_trace`` arguments that made its ops.
RECIPES = {
    "workload_music_large_groups.jsonl": dict(domain="music", ops=36, name="music-bound-41"),
    "workload_random_walk_entropy.jsonl": dict(
        domain="film",
        ops=48,
        name="film-walk-18",
        key_scorer="random_walk",
        nonkey_scorer="entropy",
    ),
}


@pytest.fixture(scope="module", params=sorted(TRACES))
def trace(request):
    return request.param, WorkloadTrace.load(DATA / request.param)


def test_trace_reaches_its_large_groups(trace):
    """Each listed group is read by a preview and by a sweep, and on both
    sides of a non-structural write (the engine keeps the group across
    it)."""
    name, loaded = trace
    assert loaded.has_digests()
    graph = _starting_graph(loaded)
    kinds, read, pending, crossed = {}, set(), set(), set()
    for op in loaded.ops:
        if op.op == "mutate":
            before = graph.mutation_log.generation
            apply_mutation(graph, *parse_mutation(op.params))
            if graph.mutation_log.dirty_since(before).structural:
                read, pending = set(), set()
            else:
                pending |= read
        elif op.op in ("preview", "sweep"):
            group = (op.params["k"], op.params.get("d"), op.params.get("mode"))
            kinds.setdefault(group, set()).add(op.op)
            if group in pending:
                crossed.add(group)
            read.add(group)
    for group in TRACES[name]:
        assert kinds.get(group) == {"preview", "sweep"}, (name, group, kinds.get(group))
        assert group in crossed, (name, group)


@pytest.mark.parametrize(
    "name", sorted(RECIPES), ids=lambda name: name[len("workload_") : -len(".jsonl")]
)
def test_trace_regenerates_from_its_recipe(name):
    """A trace's ops are what its documented recipe generates."""
    loaded = WorkloadTrace.load(DATA / name)
    recipe = dict(RECIPES[name])
    fresh = generate_trace(
        seed=0,
        scenario=ScenarioSpec(
            name=recipe.pop("name"),
            structural_rate=0.1,
            burst_length=2,
            sweep_rate=0.25,
            stats_rate=0.04,
            clients=2,
        ),
        **recipe,
    )
    assert fresh.fingerprint == loaded.fingerprint
    assert (fresh.key_scorer, fresh.nonkey_scorer) == (
        loaded.key_scorer,
        loaded.nonkey_scorer,
    )
    assert fresh.ops == loaded.with_digests([None] * len(loaded.ops)).ops


@pytest.mark.parametrize("path", ["serial", "incremental"])
def test_recorded_digests_reproduce(trace, path):
    """Every read reproduces the payload recorded by the unpruned oracle."""
    name, loaded = trace
    result = replay_trace(loaded, path=path, verify_digests=True)
    assert result.ops == len(loaded.ops)
    assert not result.digest_mismatches, (
        f"{name} on {path} diverged from the recorded payloads at op(s) "
        f"{[entry[0] for entry in result.digest_mismatches]}"
    )


def test_film_trace_pins_an_exact_tie():
    """The film group's optimum is an exact tie between two subsets.

    Scored unpruned on the starting graph at the first k=4 d=3 diverse
    preview's budget: the answer then rests on the lowest-index rule.
    """
    loaded = WorkloadTrace.load(DATA / "workload_film_entropy_ties.jsonl")
    op = next(
        op
        for op in loaded.ops
        if op.op == "preview"
        and (op.params["k"], op.params.get("d"), op.params.get("mode"))
        == (4, 3, "diverse")
    )
    context = make_context(
        _starting_graph(loaded),
        key_scorer=loaded.key_scorer,
        nonkey_scorer=loaded.nonkey_scorer,
    )
    size = SizeConstraint(k=4, n=op.params["n"])
    subsets = qualifying_subsets(context, size, DistanceConstraint.diverse(3))
    assert len(subsets) == 87_770
    backend = kernel.active_backend()
    scores = backend.batch_scores(
        backend.lower(context.candidate_pool()), subsets, size.n - size.k
    )
    best = max(score for score in scores if score is not None).hex()
    assert sum(score is not None and score.hex() == best for score in scores) == 2

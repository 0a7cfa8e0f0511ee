"""Property-based tests (hypothesis) on core data structures & invariants."""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    DistanceConstraint,
    SizeConstraint,
    apriori_discover,
    brute_force_discover,
    discover_preview,
    dynamic_programming_discover,
)
from repro.core.candidates import best_preview_for_keys
from repro.engine import PreviewEngine, PreviewQuery
from repro.exceptions import InfeasiblePreviewError, PersistenceError
from repro.datasets import graph_fingerprint, random_entity_graph, random_schema_graph
from repro.eval import pearson_correlation, two_proportion_z_test
from repro.graph import apriori_k_cliques, bron_kerbosch_k_cliques
from repro.model import (
    EntityGraph,
    RelationshipTypeId,
    entity_graph_to_triples,
    triples_to_entity_graph,
)
from repro.scoring import ScoringContext, value_set_entropy
from repro.store import load_jsonl, load_tsv, save_jsonl, save_tsv

# Keep generated workloads small: these properties are structural, not
# scale tests, and the suite must stay fast.
SMALL = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

schema_params = st.tuples(
    st.integers(min_value=2, max_value=8),  # types
    st.integers(min_value=2, max_value=12),  # rel types
    st.integers(min_value=0, max_value=10_000),  # seed
)


@SMALL
@given(schema_params, st.integers(1, 4), st.integers(0, 6))
def test_dp_matches_brute_force(params, k, extra_n):
    num_types, num_rels, seed = params
    schema = random_schema_graph(num_types, max(num_rels, num_types - 1), seed=seed)
    context = ScoringContext(schema)
    k = min(k, num_types)
    size = SizeConstraint(k=k, n=k + extra_n)
    bf = brute_force_discover(context, size)
    dp = dynamic_programming_discover(context, size)
    assert (bf is None) == (dp is None)
    if bf is not None:
        assert math.isclose(bf.score, dp.score, rel_tol=1e-9)


@SMALL
@given(
    schema_params,
    st.integers(2, 3),
    st.integers(1, 3),
    st.booleans(),
)
def test_apriori_matches_brute_force(params, k, d, tight):
    num_types, num_rels, seed = params
    schema = random_schema_graph(num_types, max(num_rels, num_types - 1), seed=seed)
    context = ScoringContext(schema)
    k = min(k, num_types)
    size = SizeConstraint(k=k, n=k + 3)
    constraint = DistanceConstraint.tight(d) if tight else DistanceConstraint.diverse(d)
    bf = brute_force_discover(context, size, constraint)
    ap = apriori_discover(context, size, constraint)
    assert (bf is None) == (ap is None)
    if bf is not None:
        assert math.isclose(bf.score, ap.score, rel_tol=1e-9)


@SMALL
@given(schema_params, st.integers(1, 3), st.integers(0, 4), st.integers(1, 3))
def test_engine_identical_to_legacy_for_all_algorithms(params, k, extra_n, d):
    """PreviewEngine answers == per-call discover_preview, all 4 algorithms.

    Runs the whole case list through one engine (exercising its memo and
    shared sweep state) and through the per-call facade on the same
    context, comparing full DiscoveryResults — previews, exact scores
    and bookkeeping alike — including agreement on infeasibility.  For
    apriori-resolved points the facade shares the engine's fast path, so
    those are additionally pinned against the legacy apriori_discover
    (the independent oracle); the dedicated fast-path property below
    covers that pairing across budgets.
    """
    num_types, num_rels, seed = params
    schema = random_schema_graph(num_types, max(num_rels, num_types - 1), seed=seed)
    context = ScoringContext(schema)
    k = min(k, num_types)
    n = k + extra_n
    queries = [
        PreviewQuery(k=k, n=n, algorithm=algorithm)
        for algorithm in ("auto", "brute-force", "dynamic-programming", "branch-and-bound")
    ] + [
        PreviewQuery(k=k, n=n, d=d, mode=mode, algorithm=algorithm)
        for mode in ("tight", "diverse")
        for algorithm in ("auto", "apriori", "brute-force", "branch-and-bound")
    ]
    engine = PreviewEngine(context)
    swept = engine.sweep(queries, skip_infeasible=True)
    for query, result in zip(queries, swept):
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
        if result is not None and result.algorithm.startswith("apriori"):
            legacy = apriori_discover(
                context, SizeConstraint(k=query.k, n=query.n), query.distance()
            )
            assert result == legacy, query


@SMALL
@given(schema_params, st.integers(2, 3), st.integers(1, 3), st.booleans())
def test_engine_apriori_fast_path_matches_legacy(params, k, d, tight):
    """The engine's shared-profile fast path == apriori_discover, exactly."""
    num_types, num_rels, seed = params
    schema = random_schema_graph(num_types, max(num_rels, num_types - 1), seed=seed)
    context = ScoringContext(schema)
    k = min(k, num_types)
    constraint = DistanceConstraint.tight(d) if tight else DistanceConstraint.diverse(d)
    mode = "tight" if tight else "diverse"
    engine = PreviewEngine(context)
    for n in range(k, k + 4):
        legacy = apriori_discover(context, SizeConstraint(k=k, n=n), constraint)
        try:
            fast = engine.query(k=k, n=n, d=d, mode=mode, algorithm="apriori")
        except InfeasiblePreviewError:
            fast = None
        if legacy is None:
            assert fast is None
        else:
            assert fast == legacy


@SMALL
@given(schema_params, st.integers(1, 3))
def test_proposition_2_monotone_in_attributes(params, k):
    """Prop. 2: adding a non-key attribute never lowers a table's score."""
    num_types, num_rels, seed = params
    schema = random_schema_graph(num_types, max(num_rels, num_types - 1), seed=seed)
    context = ScoringContext(schema)
    for type_name in schema.entity_types():
        ranked = context.sorted_candidates(type_name)
        prev = 0.0
        for m in range(1, len(ranked) + 1):
            score = context.top_m_table_score(type_name, m)
            assert score >= prev - 1e-12
            prev = score


@SMALL
@given(schema_params, st.integers(2, 4))
def test_proposition_1_monotone_in_n(params, k):
    """Growing the attribute budget never lowers the optimal score."""
    num_types, num_rels, seed = params
    schema = random_schema_graph(num_types, max(num_rels, num_types - 1), seed=seed)
    context = ScoringContext(schema)
    k = min(k, num_types)
    prev = None
    for n in range(k, k + 5):
        result = dynamic_programming_discover(context, SizeConstraint(k=k, n=n))
        if result is None:
            assert prev is None
            continue
        if prev is not None:
            assert result.score >= prev - 1e-12
        prev = result.score


@SMALL
@given(
    st.integers(2, 6),
    st.integers(2, 9),
    st.integers(10, 40),
    st.integers(10, 80),
    st.integers(0, 10_000),
)
def test_triple_round_trip(num_types, num_rels, entities, edges, seed):
    graph = random_entity_graph(
        num_types,
        max(num_rels, num_types - 1),
        max(entities, num_types),
        edges,
        seed=seed,
    )
    clone = triples_to_entity_graph(entity_graph_to_triples(graph))
    assert clone.stats() == graph.stats()
    for rel in graph.relationship_types():
        assert clone.relationship_count(rel) == graph.relationship_count(rel)


#: Arbitrary names, plus the ones the text formats must escape or refuse.
_term = st.one_of(
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8),
    st.sampled_from(["a", "|", "A|B", "\\", "\\t", "\t\n\r"]),
)


@st.composite
def _named_graphs(draw):
    """A graph with arbitrary entity, type and relationship names.

    It is built in canonical order (entities by name, each with its
    types sorted, relationships by row), the order a text file's sorted
    rows decode to, so a round trip must reproduce every recorded order.
    """
    types_of = draw(
        st.dictionaries(
            _term, st.lists(_term, min_size=1, max_size=3, unique=True),
            min_size=1, max_size=6,
        )
    )
    entities = sorted(types_of)
    names = draw(st.lists(_term, min_size=1, max_size=3))
    picks = st.tuples(
        st.sampled_from(entities), st.sampled_from(entities),
        st.sampled_from(names), st.integers(0, 2), st.integers(0, 2),
    )
    rows = []
    for source, target, name, i, j in draw(st.lists(picks, max_size=8)):
        source_types, target_types = sorted(types_of[source]), sorted(types_of[target])
        rel_type = RelationshipTypeId(
            name, source_types[i % len(source_types)], target_types[j % len(target_types)]
        )
        predicate = f"{rel_type.source_type}|{name}|{rel_type.target_type}"
        rows.append(((source, predicate, target), rel_type))
    graph = EntityGraph(name="arbitrary")
    for entity in entities:
        graph.add_entity(entity, sorted(types_of[entity]))
    for (source, _predicate, target), rel_type in sorted(rows, key=lambda row: row[0]):
        graph.add_relationship(source, target, rel_type)
    return graph


@SMALL
@given(_named_graphs())
def test_tsv_round_trip_arbitrary_terms(graph):
    """Every text file a save writes loads back as the same graph.

    A save the codec refuses (a ``|`` inside a relationship type's name or
    endpoint type) raises before it creates the file.
    """
    import tempfile
    from pathlib import Path

    unsplittable = any(
        "|" in part
        for rel in graph.relationship_types()
        for part in (rel.name, rel.source_type, rel.target_type)
    )
    for save, load, ext in ((save_tsv, load_tsv, "tsv"), (save_jsonl, load_jsonl, "jsonl")):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"data.{ext}"
            try:
                save(graph, path)
            except PersistenceError:
                assert unsplittable
                assert not path.exists()
                continue
            loaded = load(path, name=graph.name)
        assert not unsplittable
        assert graph_fingerprint(loaded) == graph_fingerprint(graph)
        assert list(loaded.entities()) == list(graph.entities())
        assert loaded.entity_types() == graph.entity_types()
        assert list(loaded.relationships()) == list(graph.relationships())
        assert loaded.generation == graph.generation


@SMALL
@given(st.lists(st.integers(1, 50), min_size=1, max_size=12))
def test_entropy_bounds(counts):
    """0 <= H <= log10(#groups) for any value histogram."""
    from collections import Counter

    groups = Counter({f"v{i}": c for i, c in enumerate(counts)})
    total = sum(counts)
    h = value_set_entropy(groups, total)
    assert -1e-12 <= h <= math.log10(len(counts)) + 1e-12


@SMALL
@given(st.integers(3, 9), st.floats(0.1, 0.9), st.integers(0, 10_000), st.integers(2, 4))
def test_clique_backends_agree(n, p, seed, k):
    import random as _random

    rng = _random.Random(seed)
    nodes = [f"n{i}" for i in range(n)]
    edges = {
        frozenset((u, v))
        for i, u in enumerate(nodes)
        for v in nodes[i + 1:]
        if rng.random() < p
    }

    def adjacent(u, v):
        return frozenset((u, v)) in edges

    assert set(apriori_k_cliques(nodes, adjacent, k)) == set(
        bron_kerbosch_k_cliques(nodes, adjacent, k)
    )


@SMALL
@given(schema_params, st.integers(2, 4), st.integers(0, 4))
def test_best_allocation_is_optimal_for_fixed_keys(params, k, extra_n):
    """The k-way-merge allocation beats any exhaustive split of n."""
    from itertools import product

    num_types, num_rels, seed = params
    schema = random_schema_graph(num_types, max(num_rels, num_types - 1), seed=seed)
    context = ScoringContext(schema)
    k = min(k, num_types)
    keys = schema.entity_types()[:k]
    size = SizeConstraint(k=k, n=k + extra_n)
    allocation = best_preview_for_keys(context, keys, size)
    if allocation is None:
        return
    _preview, merged_score = allocation
    # Exhaustive: every way to give each key m_i >= 1 attrs, sum <= n.
    best = 0.0
    ranges = [range(1, size.n + 1) for _ in keys]
    for split in product(*ranges):
        if sum(split) > size.n:
            continue
        score = sum(
            context.top_m_table_score(key, m) for key, m in zip(keys, split)
        )
        best = max(best, score)
    assert math.isclose(merged_score, best, rel_tol=1e-9)


@SMALL
@given(st.lists(st.floats(-100, 100), min_size=2, max_size=30))
def test_pearson_bounded(xs):
    ys = [x * 2 + 1 for x in xs]
    value = pearson_correlation(xs, ys)
    assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9


@SMALL
@given(
    st.integers(1, 100),
    st.integers(1, 100),
)
def test_z_test_antisymmetric(n_a, n_b):
    s_a, s_b = n_a // 2, n_b // 3
    forward = two_proportion_z_test(s_a, n_a, s_b, n_b)
    backward = two_proportion_z_test(s_b, n_b, s_a, n_a)
    assert math.isclose(forward.z, -backward.z, abs_tol=1e-12)

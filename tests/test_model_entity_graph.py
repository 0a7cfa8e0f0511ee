"""Unit tests for repro.model.entity_graph and repro.model.ids/attributes."""

import dataclasses
import hashlib
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import generate_domain
from repro.datasets.loader import graph_fingerprint
from repro.exceptions import (
    ModelError,
    SchemaViolationError,
    UnknownEntityError,
    UnknownRelationshipTypeError,
    UnknownTypeError,
)
from repro.model import (
    Direction,
    EntityGraph,
    RelationshipTypeId,
    incoming,
    outgoing,
    parse_qualified_name,
    qualified_name,
)

ACTOR = RelationshipTypeId("Actor", "FILM ACTOR", "FILM")
DIRECTOR = RelationshipTypeId("Director", "FILM DIRECTOR", "FILM")


@pytest.fixture
def graph():
    g = EntityGraph("test")
    g.add_entity("Will Smith", ["FILM ACTOR"])
    g.add_entity("MIB", ["FILM"])
    g.add_entity("Sonnenfeld", ["FILM DIRECTOR"])
    g.add_relationship("Will Smith", "MIB", ACTOR)
    g.add_relationship("Sonnenfeld", "MIB", DIRECTOR)
    return g


class TestRelationshipTypeId:
    def test_same_name_different_types_distinct(self):
        a = RelationshipTypeId("Award Winners", "FILM ACTOR", "AWARD")
        b = RelationshipTypeId("Award Winners", "FILM DIRECTOR", "AWARD")
        assert a != b

    def test_qualified_name_round_trip(self):
        assert parse_qualified_name(qualified_name(ACTOR)) == ACTOR

    def test_parse_malformed_raises(self):
        with pytest.raises(ModelError):
            parse_qualified_name("only|two")

    def test_reversed(self):
        rev = ACTOR.reversed()
        assert rev.source_type == "FILM"
        assert rev.target_type == "FILM ACTOR"

    def test_hash_is_the_hash_of_its_names(self):
        for rel in (ACTOR, DIRECTOR, RelationshipTypeId("", "", "")):
            assert hash(rel) == hash((rel.name, rel.source_type, rel.target_type))

    def test_replace_recomputes_the_hash(self):
        moved = dataclasses.replace(ACTOR, target_type="TV SHOW")
        assert hash(moved) == hash(("Actor", "FILM ACTOR", "TV SHOW"))
        assert moved == RelationshipTypeId("Actor", "FILM ACTOR", "TV SHOW")
        assert moved in {RelationshipTypeId("Actor", "FILM ACTOR", "TV SHOW")}

    def test_repr_equality_and_order_are_the_names(self):
        assert repr(ACTOR) == (
            "RelationshipTypeId(name='Actor', source_type='FILM ACTOR', "
            "target_type='FILM')"
        )
        assert ACTOR == RelationshipTypeId("Actor", "FILM ACTOR", "FILM")
        assert ACTOR != RelationshipTypeId("Actor", "FILM ACTOR", "TV")
        assert ACTOR != ("Actor", "FILM ACTOR", "FILM")
        rels = [
            RelationshipTypeId(name, source, target)
            for name in ("b", "a") for source in ("Y", "X") for target in ("Q", "P")
        ]
        assert sorted(rels) == sorted(
            rels, key=lambda rel: (rel.name, rel.source_type, rel.target_type)
        )
        assert RelationshipTypeId("a", "Y", "P") < RelationshipTypeId("a", "Y", "Q")

    def test_pickles_across_hash_seeds(self):
        """A pickled id rehashes in a process with another hash seed.

        Spawn-started workers and replicas are such processes: a stale
        cached hash would make every lookup by a freshly built key miss.
        """
        src = str(Path(__file__).resolve().parents[1] / "src")
        dump = (
            "import pickle, sys\n"
            "from repro.model import RelationshipTypeId as R\n"
            "table = {R('Actor', 'FILM ACTOR', 'FILM'): 1,\n"
            "         R('Director', 'FILM DIRECTOR', 'FILM'): 2}\n"
            "actor_hash = hash(('Actor', 'FILM ACTOR', 'FILM'))\n"
            "sys.stdout.buffer.write(pickle.dumps((table, actor_hash)))\n"
        )
        load = (
            "import pickle, sys\n"
            "from repro.model import RelationshipTypeId as R\n"
            "table, dumped_hash = pickle.loads(sys.stdin.buffer.read())\n"
            "actor = R('Actor', 'FILM ACTOR', 'FILM')\n"
            "assert hash(actor) != dumped_hash, 'the seeds gave the same hash'\n"
            "assert table[actor] == 1\n"
            "assert table[R('Director', 'FILM DIRECTOR', 'FILM')] == 2\n"
            "assert all(hash(key) == hash(R(*key.__reduce__()[1])) for key in table)\n"
            "print('hit')\n"
        )

        def run(code, seed, data=None):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
            return subprocess.run(
                [sys.executable, "-c", code], input=data, capture_output=True,
                env=env, timeout=60, check=True,
            ).stdout

        assert run(load, 2, run(dump, 1)).strip() == b"hit"

    def test_pickle_round_trip_keeps_the_value(self):
        table = pickle.loads(pickle.dumps({ACTOR: 1, DIRECTOR: 2}))
        assert table[RelationshipTypeId("Actor", "FILM ACTOR", "FILM")] == 1
        assert list(table) == [ACTOR, DIRECTOR]


class TestNonKeyAttribute:
    def test_key_and_target_types(self):
        out = outgoing(ACTOR)
        assert out.key_type() == "FILM ACTOR"
        assert out.target_type() == "FILM"
        inc = incoming(ACTOR)
        assert inc.key_type() == "FILM"
        assert inc.target_type() == "FILM ACTOR"

    def test_direction_flip(self):
        assert Direction.OUT.flipped() is Direction.IN
        assert Direction.IN.flipped() is Direction.OUT


class TestEntities:
    def test_multi_type_entity(self, graph):
        graph.add_entity("Will Smith", ["FILM PRODUCER"])
        assert graph.types_of("Will Smith") == {"FILM ACTOR", "FILM PRODUCER"}
        assert "Will Smith" in graph.entities_of_type("FILM PRODUCER")

    def test_typeless_entity_rejected(self, graph):
        with pytest.raises(SchemaViolationError):
            graph.add_entity("nobody", [])

    def test_type_count(self, graph):
        assert graph.type_count("FILM") == 1
        with pytest.raises(UnknownTypeError):
            graph.type_count("GHOST")

    def test_unknown_entity_raises(self, graph):
        with pytest.raises(UnknownEntityError):
            graph.types_of("ghost")


class TestRelationships:
    def test_endpoint_type_validation(self, graph):
        bad = RelationshipTypeId("Actor", "FILM ACTOR", "FILM")
        with pytest.raises(SchemaViolationError):
            graph.add_relationship("Sonnenfeld", "MIB", bad)  # wrong source type
        with pytest.raises(SchemaViolationError):
            graph.add_relationship("Will Smith", "Sonnenfeld", bad)  # wrong target

    def test_unknown_endpoints_raise(self, graph):
        with pytest.raises(UnknownEntityError):
            graph.add_relationship("ghost", "MIB", ACTOR)
        with pytest.raises(UnknownEntityError):
            graph.add_relationship("Will Smith", "ghost", ACTOR)

    def test_parallel_relationships_counted(self, graph):
        graph.add_relationship("Will Smith", "MIB", ACTOR)
        assert graph.relationship_count(ACTOR) == 2
        assert graph.edge_count == 3

    def test_unknown_relationship_type_raises(self, graph):
        ghost = RelationshipTypeId("Ghost", "FILM", "FILM")
        with pytest.raises(UnknownRelationshipTypeError):
            graph.relationship_count(ghost)


class TestAdjacency:
    def test_targets_and_sources(self, graph):
        assert graph.targets("Will Smith", ACTOR) == ["MIB"]
        assert graph.sources("MIB", ACTOR) == ["Will Smith"]
        assert graph.targets("MIB", ACTOR) == []

    def test_attribute_value_out(self, graph):
        assert graph.attribute_value("Will Smith", outgoing(ACTOR)) == {"MIB"}

    def test_attribute_value_in(self, graph):
        value = graph.attribute_value("MIB", incoming(ACTOR))
        assert value == {"Will Smith"}

    def test_attribute_value_empty(self, graph):
        assert graph.attribute_value("Sonnenfeld", outgoing(ACTOR)) == frozenset()


class TestAggregates:
    def test_type_pair_weights(self, graph):
        weights = graph.type_pair_weights()
        assert weights[tuple(sorted(("FILM ACTOR", "FILM")))] == 1
        assert weights[tuple(sorted(("FILM DIRECTOR", "FILM")))] == 1

    def test_stats(self, graph, fig1_graph):
        assert graph.stats() == {
            "entities": 3,
            "relationships": 2,
            "entity_types": 3,
            "relationship_types": 2,
        }
        # Fig. 1: 13 entities, 18 relationships, 6 types, 5 rel types.
        assert fig1_graph.stats() == {
            "entities": 13,
            "relationships": 18,
            "entity_types": 6,
            "relationship_types": 5,
        }


# ----------------------------------------------------------------------
# Bulk loading: the same graph as sequential adds
# ----------------------------------------------------------------------
PRODUCER = RelationshipTypeId("Executive Producer", "FILM PRODUCER", "FILM")


def _sequential(name, entities, relationships):
    graph = EntityGraph(name)
    for entity, types in entities:
        graph.add_entity(entity, types)
    for source, target, rel_type in relationships:
        graph.add_relationship(source, target, rel_type)
    return graph


def _records(graph):
    """``(entity, types)`` pairs and relationships that rebuild ``graph``."""
    rank = {t: i for i, t in enumerate(graph.entity_types())}
    entities = [
        (entity, sorted(graph.types_of(entity), key=rank.__getitem__))
        for entity in graph.entities()
    ]
    return entities, list(graph.relationships())


#: A repeated entity gaining a type, a repeated type, parallel edges.
_HAND_ENTITIES = [
    ("Will Smith", ["FILM ACTOR"]),
    ("MIB", ["FILM", "FILM"]),
    ("Sonnenfeld", ["FILM DIRECTOR"]),
    ("Will Smith", ["FILM PRODUCER", "FILM ACTOR"]),
    ("Hancock", ["FILM"]),
]
_HAND_RELATIONSHIPS = [
    ("Will Smith", "MIB", ACTOR),
    ("Sonnenfeld", "MIB", DIRECTOR),
    ("Will Smith", "Hancock", ACTOR),
    ("Will Smith", "MIB", ACTOR),
    ("Will Smith", "Hancock", PRODUCER),
]


def _assert_equivalent(bulk, sequential):
    assert bulk.name == sequential.name
    assert list(bulk.entities()) == list(sequential.entities())
    assert bulk.entity_types() == sequential.entity_types()
    assert bulk.relationship_types() == sequential.relationship_types()
    assert list(bulk.relationships()) == list(sequential.relationships())
    assert bulk.entity_count == sequential.entity_count
    assert bulk.edge_count == sequential.edge_count
    assert bulk.stats() == sequential.stats()
    assert bulk.type_pair_weights() == sequential.type_pair_weights()
    assert bulk.generation == sequential.generation
    for type_name in sequential.entity_types():
        assert bulk.type_count(type_name) == sequential.type_count(type_name)
        assert bulk.entities_of_type(type_name) == sequential.entities_of_type(
            type_name
        )
    for rel_type in sequential.relationship_types():
        assert bulk.relationship_count(rel_type) == sequential.relationship_count(
            rel_type
        )
    for entity in sequential.entities():
        assert bulk.types_of(entity) == sequential.types_of(entity)
        for rel_type in sequential.relationship_types():
            assert bulk.targets(entity, rel_type) == sequential.targets(
                entity, rel_type
            )
            assert bulk.sources(entity, rel_type) == sequential.sources(
                entity, rel_type
            )
            for attribute in (outgoing(rel_type), incoming(rel_type)):
                assert bulk.attribute_value(
                    entity, attribute
                ) == sequential.attribute_value(entity, attribute)


class TestBulkLoad:
    def test_hand_built_input_matches_sequential_adds(self):
        bulk = EntityGraph.bulk_load(
            _HAND_ENTITIES, _HAND_RELATIONSHIPS, name="hand"
        )
        _assert_equivalent(
            bulk, _sequential("hand", _HAND_ENTITIES, _HAND_RELATIONSHIPS)
        )
        assert bulk.generation == len(_HAND_ENTITIES) + len(_HAND_RELATIONSHIPS)

    @pytest.mark.parametrize("domain", ["film", "basketball"])
    def test_generated_domain_matches_sequential_adds(self, domain):
        entities, relationships = _records(
            generate_domain(domain, scale=3000, seed=5)
        )
        bulk = EntityGraph.bulk_load(entities, relationships, name=domain)
        _assert_equivalent(bulk, _sequential(domain, entities, relationships))

    def test_accepts_one_shot_iterators(self):
        bulk = EntityGraph.bulk_load(
            iter(_HAND_ENTITIES), iter(_HAND_RELATIONSHIPS), name="hand"
        )
        _assert_equivalent(
            bulk, _sequential("hand", _HAND_ENTITIES, _HAND_RELATIONSHIPS)
        )

    def test_log_advances_once_with_an_empty_window(self):
        bulk = EntityGraph.bulk_load(_HAND_ENTITIES, _HAND_RELATIONSHIPS)
        adds = len(_HAND_ENTITIES) + len(_HAND_RELATIONSHIPS)
        assert len(bulk.mutation_log) == 0
        assert bulk.mutation_log.horizon == adds
        bulk.add_entity("Peter Berg", ["FILM DIRECTOR", "CAMEO"])
        delta = bulk.mutation_log.dirty_since(adds)
        assert delta.key_types == {"FILM DIRECTOR", "CAMEO"}
        assert delta.structural

    @pytest.mark.parametrize(
        "entities, relationships",
        [
            pytest.param(
                [("Will Smith", ["FILM ACTOR"]), ("nobody", [])], [], id="untyped"
            ),
            pytest.param(
                _HAND_ENTITIES, [("ghost", "MIB", ACTOR)], id="unknown-source"
            ),
            pytest.param(
                _HAND_ENTITIES, [("Will Smith", "ghost", ACTOR)], id="unknown-target"
            ),
            pytest.param(
                _HAND_ENTITIES,
                [("Sonnenfeld", "MIB", ACTOR)],
                id="source-lacks-type",
            ),
            pytest.param(
                _HAND_ENTITIES,
                [("Will Smith", "Sonnenfeld", ACTOR)],
                id="target-lacks-type",
            ),
        ],
    )
    def test_rejects_what_sequential_adds_reject(self, entities, relationships):
        with pytest.raises(ModelError) as sequential_error:
            _sequential("bad", entities, relationships)
        with pytest.raises(ModelError) as bulk_error:
            EntityGraph.bulk_load(entities, relationships, name="bad")
        assert type(bulk_error.value) is type(sequential_error.value)
        assert str(bulk_error.value) == str(sequential_error.value)


class TestLazyAdjacency:
    def test_mutation_after_first_read_shows_in_targets(self):
        graph = EntityGraph.bulk_load(_HAND_ENTITIES, _HAND_RELATIONSHIPS)
        assert graph.targets("Will Smith", ACTOR) == ["MIB", "Hancock", "MIB"]
        graph.add_entity("I, Robot", ["FILM"])
        graph.add_relationship("Will Smith", "I, Robot", ACTOR)
        assert graph.targets("Will Smith", ACTOR) == [
            "MIB", "Hancock", "MIB", "I, Robot",
        ]
        assert graph.sources("I, Robot", ACTOR) == ["Will Smith"]

    def test_mutation_before_first_read_shows_in_targets(self):
        graph = EntityGraph.bulk_load(_HAND_ENTITIES, _HAND_RELATIONSHIPS)
        graph.add_relationship("Sonnenfeld", "Hancock", DIRECTOR)
        assert graph.sources("Hancock", DIRECTOR) == ["Sonnenfeld"]
        assert graph.attribute_value("Sonnenfeld", outgoing(DIRECTOR)) == {
            "MIB", "Hancock",
        }

    def test_racing_first_reads_all_see_the_whole_adjacency(self):
        """Readers that race to build the adjacency never see part of it."""
        entities, relationships = _records(generate_domain("film", scale=3000, seed=5))
        expected = _sequential("film", entities, relationships)
        graph = EntityGraph.bulk_load(entities, relationships, name="film")
        probes = list(dict.fromkeys(
            (source, target, rel_type) for source, target, rel_type in relationships
        ))[-200:]
        want = [
            (expected.targets(source, rel), expected.sources(target, rel))
            for source, target, rel in probes
        ]
        readers = 8
        start = threading.Barrier(readers)

        def read():
            start.wait(timeout=30)
            return [
                (graph.targets(source, rel), graph.sources(target, rel))
                for source, target, rel in probes
            ]

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=readers) as pool:
                futures = [pool.submit(read) for _ in range(readers)]
                answers = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(previous)
        assert all(answer == want for answer in answers)

    def test_relationships_keep_insertion_order(self, graph):
        graph.add_relationship("Will Smith", "MIB", ACTOR)
        assert list(graph.relationships()) == [
            ("Will Smith", "MIB", ACTOR),
            ("Sonnenfeld", "MIB", DIRECTOR),
            ("Will Smith", "MIB", ACTOR),
        ]


# ----------------------------------------------------------------------
# graph_fingerprint: the same bytes as the per-line digest it replaced
# ----------------------------------------------------------------------
def _reference_fingerprint(graph):
    """The per-line ``graph_fingerprint`` the pinned digests were made with."""
    digest = hashlib.sha256()
    for entity in sorted(graph.entities()):
        types = ",".join(sorted(graph.types_of(entity)))
        digest.update(f"E\t{entity}\t{types}\n".encode("utf-8"))
    for source, target, rel in sorted(
        graph.relationships(),
        key=lambda item: (item[0], item[1], item[2].name,
                          item[2].source_type, item[2].target_type),
    ):
        digest.update(
            f"R\t{source}\t{target}\t{rel.name}\t{rel.source_type}"
            f"\t{rel.target_type}\n".encode("utf-8")
        )
    return f"sha256:{digest.hexdigest()}"


#: Separator and escape characters of the digest lines, ``|`` from
#: qualified names, and non-BMP characters.
_NAME = st.text(
    alphabet=st.sampled_from(["a", "b", "\t", ",", "\n", "|", "\U0001F600", "\U0001D518"]),
    max_size=4,
)


@st.composite
def _graphs(draw):
    names = draw(st.lists(_NAME, min_size=1, max_size=8, unique=True))
    type_pool = draw(st.lists(_NAME, min_size=1, max_size=4, unique=True))
    graph = EntityGraph("fingerprint")
    for entity in names:
        graph.add_entity(
            entity,
            draw(st.lists(st.sampled_from(type_pool), min_size=1, max_size=3)),
        )
    for _ in range(draw(st.integers(0, 12))):
        source = draw(st.sampled_from(names))
        target = draw(st.sampled_from(names))
        graph.add_relationship(
            source,
            target,
            RelationshipTypeId(
                draw(_NAME),
                draw(st.sampled_from(sorted(graph.types_of(source)))),
                draw(st.sampled_from(sorted(graph.types_of(target)))),
            ),
        )
    return graph


class TestFingerprint:
    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(_graphs())
    def test_matches_the_per_line_digest(self, graph):
        assert graph_fingerprint(graph) == _reference_fingerprint(graph)

    def test_matches_the_per_line_digest_on_a_domain(self):
        graph = generate_domain("film", scale=3000, seed=5)
        assert graph_fingerprint(graph) == _reference_fingerprint(graph)

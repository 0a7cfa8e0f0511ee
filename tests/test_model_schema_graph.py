"""Unit tests for repro.model.schema_graph."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exceptions import UnknownRelationshipTypeError, UnknownTypeError
from repro.model import (
    Direction,
    RelationshipTypeId,
    SchemaGraph,
)


@pytest.fixture
def schema(fig1_graph):
    return SchemaGraph.from_entity_graph(fig1_graph)


class TestDerivation:
    def test_entity_types(self, schema):
        assert set(schema.entity_types()) == {
            "FILM",
            "FILM ACTOR",
            "FILM PRODUCER",
            "FILM DIRECTOR",
            "FILM GENRE",
            "AWARD",
        }

    def test_relationship_types(self, schema):
        names = {rel.name for rel in schema.relationship_types()}
        assert names == {
            "Actor",
            "Executive Producer",
            "Director",
            "Genres",
            "Award Winners",
        }

    def test_counts_propagated(self, schema):
        assert schema.entity_count("FILM") == 4
        actor = RelationshipTypeId("Actor", "FILM ACTOR", "FILM")
        assert schema.relationship_count(actor) == 6

    def test_n_is_twice_edge_count(self, schema):
        assert schema.candidate_attribute_count == 2 * schema.relationship_type_count

    def test_unknown_lookups_raise(self, schema):
        with pytest.raises(UnknownTypeError):
            schema.entity_count("GHOST")
        with pytest.raises(UnknownRelationshipTypeError):
            schema.relationship_count(RelationshipTypeId("x", "FILM", "FILM"))


class TestCandidates:
    def test_candidates_both_directions(self, schema):
        candidates = schema.candidate_attributes("FILM")
        directions = {(attr.name, attr.direction) for attr in candidates}
        # FILM receives Actor/Director/Executive Producer and emits Genres.
        assert ("Actor", Direction.IN) in directions
        assert ("Genres", Direction.OUT) in directions
        assert ("Director", Direction.IN) in directions

    def test_self_loop_contributes_two_candidates(self):
        schema = SchemaGraph()
        loop = RelationshipTypeId("Next", "EPISODE", "EPISODE")
        schema.add_relationship_type(loop, edge_count=3)
        candidates = schema.candidate_attributes("EPISODE")
        assert len(candidates) == 2
        assert {attr.direction for attr in candidates} == {
            Direction.OUT,
            Direction.IN,
        }

    def test_unknown_type_raises(self, schema):
        with pytest.raises(UnknownTypeError):
            schema.candidate_attributes("GHOST")


class TestDerivedGraphs:
    def test_undirected_weights_sum_directions(self):
        schema = SchemaGraph()
        schema.add_relationship_type(
            RelationshipTypeId("a2b", "A", "B"), edge_count=3
        )
        schema.add_relationship_type(
            RelationshipTypeId("b2a", "B", "A"), edge_count=2
        )
        weighted = schema.undirected_weighted()
        assert weighted.weight("A", "B") == 5.0

    def test_distance(self, schema):
        assert schema.distance("FILM", "FILM ACTOR") == 1
        assert schema.distance("FILM GENRE", "AWARD") == 3

    def test_distance_cache_invalidated_on_mutation(self, fig1_graph):
        schema = SchemaGraph.from_entity_graph(fig1_graph)
        assert schema.distance("FILM GENRE", "AWARD") == 3
        shortcut = RelationshipTypeId("Shortcut", "FILM GENRE", "AWARD")
        schema.add_relationship_type(shortcut)
        assert schema.distance("FILM GENRE", "AWARD") == 1

    def test_distance_oracle_survives_count_only_updates(self, fig1_graph):
        schema = SchemaGraph.from_entity_graph(fig1_graph)
        actor = RelationshipTypeId("Actor", "FILM ACTOR", "FILM")
        oracle = schema.distance_oracle()
        schema.add_entity_type("FILM", entity_count=99)
        schema.add_relationship_type(actor, edge_count=4)
        assert schema.distance_oracle() is oracle
        assert schema.entity_count("FILM") == 99
        assert schema.relationship_count(actor) == 10

        schema.add_entity_type("STUDIO")
        rebuilt = schema.distance_oracle()
        assert rebuilt is not oracle
        assert schema.distance("STUDIO", "FILM") == float("inf")

        schema.add_relationship_type(RelationshipTypeId("Produced", "STUDIO", "FILM"))
        assert schema.distance_oracle() is not rebuilt
        assert schema.distance("STUDIO", "FILM") == 1

    def test_repeated_relationship_type_accumulates(self):
        schema = SchemaGraph()
        rel = RelationshipTypeId("r", "A", "B")
        schema.add_relationship_type(rel, edge_count=2)
        schema.add_relationship_type(rel, edge_count=3)
        assert schema.relationship_count(rel) == 5
        assert schema.relationship_type_count == 1

    def test_transition_probability_example(self, fig1_graph):
        """Sec. 3.2 worked example shape: M proportional to pair weights."""
        schema = SchemaGraph.from_entity_graph(fig1_graph)
        weighted = schema.undirected_weighted()
        w_genre = weighted.weight("FILM", "FILM GENRE")
        w_actor = weighted.weight("FILM", "FILM ACTOR")
        assert w_genre == 5.0  # 5 Genres edges
        assert w_actor == 6.0  # 6 Actor edges


#: Prints architecture's distance table (each row in BFS discovery
#: order) and one shortest path per ordered type pair.
HASH_SEED_PROBE = """
import json
from repro.datasets import generate_domain
from repro.graph import shortest_path
from repro.model import SchemaGraph

schema = SchemaGraph.from_entity_graph(generate_domain("architecture", 1000))
matrix = schema.distance_oracle().matrix()
graph = schema.undirected_weighted()
types = schema.entity_types()
print(json.dumps({
    "rows": [[u, list(row.items())] for u, row in matrix.items()],
    "paths": [shortest_path(graph, a, b) for a in types for b in types],
}))
"""


def test_distances_and_paths_do_not_follow_the_hash_seed():
    """The oracle's BFS order and shortest paths ignore PYTHONHASHSEED."""
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        outputs.append(
            subprocess.run(
                [sys.executable, "-c", HASH_SEED_PROBE],
                check=True,
                env=env,
                capture_output=True,
                text=True,
            ).stdout
        )
    assert outputs[0] == outputs[1]

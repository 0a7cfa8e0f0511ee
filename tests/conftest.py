"""Shared fixtures: the paper's Fig. 1 entity graph and small datasets."""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.model import EntityGraph, EntityGraphBuilder, SchemaGraph
from repro.scoring import ScoringContext


def build_fig1_graph() -> EntityGraph:
    """The running example of the paper (Fig. 1).

    4 FILM entities, 2 FILM ACTOR (Will Smith also FILM PRODUCER),
    3 FILM DIRECTOR, 2 FILM GENRE, 2 AWARD entities; 18 relationships.
    """
    b = EntityGraphBuilder("fig1")
    for film in ("Men in Black", "Men in Black II", "Hancock", "I, Robot"):
        b.entity(film, "FILM")
    b.entity("Will Smith", "FILM ACTOR", "FILM PRODUCER")
    b.entity("Tommy Lee Jones", "FILM ACTOR")
    b.entity("Barry Sonnenfeld", "FILM DIRECTOR")
    b.entity("Peter Berg", "FILM DIRECTOR")
    b.entity("Alex Proyas", "FILM DIRECTOR")
    b.entity("Action Film", "FILM GENRE")
    b.entity("Science Fiction", "FILM GENRE")
    b.entity("Saturn Award", "AWARD")
    b.entity("Academy Award", "AWARD")

    for film in ("Men in Black", "Men in Black II", "Hancock", "I, Robot"):
        b.relate("Will Smith", "Actor", film, source_type="FILM ACTOR")
    b.relate("Will Smith", "Executive Producer", "I, Robot", source_type="FILM PRODUCER")
    b.relate("Tommy Lee Jones", "Actor", "Men in Black", source_type="FILM ACTOR")
    b.relate("Tommy Lee Jones", "Actor", "Men in Black II", source_type="FILM ACTOR")
    b.relate("Barry Sonnenfeld", "Director", "Men in Black")
    b.relate("Barry Sonnenfeld", "Director", "Men in Black II")
    b.relate("Peter Berg", "Director", "Hancock")
    b.relate("Alex Proyas", "Director", "I, Robot")
    b.relate("Men in Black", "Genres", "Action Film")
    b.relate("Men in Black", "Genres", "Science Fiction")
    b.relate("Men in Black II", "Genres", "Action Film")
    b.relate("Men in Black II", "Genres", "Science Fiction")
    b.relate("I, Robot", "Genres", "Action Film")
    b.relate("Will Smith", "Award Winners", "Saturn Award", source_type="FILM ACTOR")
    b.relate(
        "Tommy Lee Jones", "Award Winners", "Academy Award", source_type="FILM ACTOR"
    )
    return b.build()


#: The session-scoped graphs every test shares, by fixture name, each
#: with the generation it had when last checked.  No test may write to
#: one: a write would leak into every later test of the run.
_SESSION_GRAPHS: Dict[str, List] = {}


def _shared(name: str, graph: EntityGraph) -> EntityGraph:
    _SESSION_GRAPHS[name] = [graph, graph.generation]
    return graph


@pytest.fixture(autouse=True)
def session_graphs_stay_unwritten(request):
    """Fail the test after which a session graph's generation moved."""
    yield
    moved = []
    for name, entry in _SESSION_GRAPHS.items():
        graph, seen = entry
        if graph.generation != seen:
            moved.append(f"{name} (generation {seen} -> {graph.generation})")
            entry[1] = graph.generation
    if moved:
        pytest.fail(
            f"{request.node.nodeid} wrote to the shared session graph "
            f"{', '.join(moved)}; write to a copy instead"
        )


@pytest.fixture(scope="session")
def fig1_graph() -> EntityGraph:
    return _shared("fig1_graph", build_fig1_graph())


@pytest.fixture(scope="session")
def fig1_schema(fig1_graph) -> SchemaGraph:
    return SchemaGraph.from_entity_graph(fig1_graph)


@pytest.fixture(scope="session")
def fig1_context(fig1_graph, fig1_schema) -> ScoringContext:
    """Coverage/coverage scoring context over the Fig. 1 graph."""
    return ScoringContext(
        fig1_schema, fig1_graph, key_scorer="coverage", nonkey_scorer="coverage"
    )


@pytest.fixture(scope="session")
def tiny_domain():
    """A small cached Freebase-like domain for integration tests."""
    from repro.datasets import load_domain

    return _shared("tiny_domain", load_domain("architecture", scale=1000, seed=0))


@pytest.fixture(scope="session")
def tiny_schema(tiny_domain):
    return SchemaGraph.from_entity_graph(tiny_domain)

"""Triple codec: entity graphs <-> (subject, predicate, object) triples.

Entity graphs are "often represented as RDF triples" (Sec. 1).  This
module defines the canonical triple encoding used across the triple store
and the persistence layer:

* ``(entity, TYPE_PREDICATE, type_name)`` asserts entity typing;
* ``(source, rel-qualified-name, target)`` asserts one relationship
  instance, where the predicate is the ``source_type|name|target_type``
  qualified form so the relationship type (including endpoint types) is
  recoverable without joins.

The encoding is lossless for the paper's data model (named entities only —
the paper strips numeric literals from Freebase, and so do we).
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from ..exceptions import ModelError
from .entity_graph import EntityGraph
from .ids import parse_qualified_name, qualified_name

#: Predicate used for entity-typing triples (rdf:type shorthand).
TYPE_PREDICATE = "a"


class Triple(NamedTuple):
    """One (subject, predicate, object) statement."""

    subject: str
    predicate: str
    object: str


def entity_graph_to_triples(graph: EntityGraph) -> Iterator[Triple]:
    """Encode ``graph`` losslessly as a deterministic triple stream.

    Typing triples come first (so decoding can validate relationship
    endpoints on the fly), then relationship triples.  Entities stream in
    insertion order and each entity's types in the graph's *global*
    first-seen type order — the order the ``.rgs`` store
    (:func:`~repro.store.disk.encode_store`) records — so a
    decoder replaying the stream reproduces the entity insertion order
    and the first-seen type order the scorers observe, not merely the
    same extensional content.
    """
    type_rank = {t: i for i, t in enumerate(graph.entity_types())}
    for entity in graph.entities():
        for type_name in sorted(graph.types_of(entity), key=type_rank.__getitem__):
            yield Triple(entity, TYPE_PREDICATE, type_name)
    for source, target, rel_type in graph.relationships():
        yield Triple(source, qualified_name(rel_type), target)


def triples_to_entity_graph(
    triples: Iterable[Triple], name: str = "entity-graph"
) -> EntityGraph:
    """Decode a triple stream produced by :func:`entity_graph_to_triples`.

    Typing triples may be interleaved with relationship triples as long as
    every entity is typed before it participates in a relationship;
    violations raise :class:`~repro.exceptions.ModelError` with the
    offending triple.
    """
    graph = EntityGraph(name=name)
    for triple in triples:
        subject, predicate, obj = triple
        if predicate == TYPE_PREDICATE:
            graph.add_entity(subject, [obj])
            continue
        try:
            rel_type = parse_qualified_name(predicate)
        except ModelError as exc:
            raise ModelError(f"bad relationship predicate in {triple!r}: {exc}") from exc
        graph.add_relationship(subject, obj, rel_type)
    return graph


def validate_round_trip(graph: EntityGraph) -> bool:
    """Re-encode/decode ``graph`` and compare aggregate statistics.

    Used by property tests; returns True when the round trip preserves
    entity counts, typing and per-relationship-type edge counts.
    """
    clone = triples_to_entity_graph(entity_graph_to_triples(graph), name=graph.name)
    if clone.stats() != graph.stats():
        return False
    for entity in graph.entities():
        if clone.types_of(entity) != graph.types_of(entity):
            return False
    for rel_type in graph.relationship_types():
        if clone.relationship_count(rel_type) != graph.relationship_count(rel_type):
            return False
    return True

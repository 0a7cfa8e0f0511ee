"""Triple codec: entity graphs <-> (subject, predicate, object) triples.

Entity graphs are "often represented as RDF triples" (Sec. 1).  This
module is the one triple codec: the ``.tsv``/``.jsonl`` dataset formats
(:mod:`repro.store.persistence`) write and read entity graphs through it.

* ``(entity, TYPE_PREDICATE, type_name)`` asserts entity typing;
* ``(source, rel-qualified-name, target)`` asserts one relationship
  instance, where the predicate is the ``source_type|name|target_type``
  qualified form so the relationship type (including endpoint types) is
  recoverable without joins.

The encoding is lossless for the paper's data model (named entities only —
the paper strips numeric literals from Freebase, and so do we) for every
relationship type whose name and endpoint types are free of ``|``;
:func:`entity_graph_to_triples` refuses any other.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, NamedTuple

from ..exceptions import ModelError
from .entity_graph import EntityGraph, Relationship, collector_paused
from .ids import RelationshipTypeId, parse_qualified_name, qualified_name

#: Predicate used for entity-typing triples (rdf:type shorthand).
TYPE_PREDICATE = "a"


class Triple(NamedTuple):
    """One (subject, predicate, object) statement."""

    subject: str
    predicate: str
    object: str


def entity_graph_to_triples(graph: EntityGraph) -> Iterator[Triple]:
    """Encode ``graph`` losslessly as a deterministic triple stream.

    Typing triples come first, then relationship triples.  Entities
    stream in insertion order and each entity's types in the graph's
    *global* first-seen type order — the order the ``.rgs`` store
    (:func:`~repro.store.disk.encode_store`) records — so decoding the
    stream reproduces the entity insertion order and the first-seen type
    order the scorers observe, not merely the same extensional content.

    Raises :class:`~repro.exceptions.ModelError` (from
    :func:`~repro.model.ids.qualified_name`) before the first triple when
    a relationship type's name or endpoint type contains ``|``.

    Examples
    --------
    Typing triples come first, then one triple per relationship
    instance; :func:`triples_to_entity_graph` rebuilds the same graph:

    >>> from repro.model import EntityGraphBuilder
    >>> b = EntityGraphBuilder("tiny")
    >>> _ = b.entity("Will Smith", "FILM ACTOR").entity("Men in Black", "FILM")
    >>> _ = b.relate("Will Smith", "Actor", "Men in Black")
    >>> graph = b.build()
    >>> for triple in entity_graph_to_triples(graph):
    ...     print(tuple(triple))
    ('Will Smith', 'a', 'FILM ACTOR')
    ('Men in Black', 'a', 'FILM')
    ('Will Smith', 'FILM ACTOR|Actor|FILM', 'Men in Black')
    >>> clone = triples_to_entity_graph(entity_graph_to_triples(graph), "tiny")
    >>> list(clone.entities()) == list(graph.entities())
    True
    >>> list(clone.relationships()) == list(graph.relationships())
    True
    """
    predicates = {rel: qualified_name(rel) for rel in graph.relationship_types()}
    type_rank = {t: i for i, t in enumerate(graph.entity_types())}
    for entity in graph.entities():
        for type_name in sorted(graph.types_of(entity), key=type_rank.__getitem__):
            yield Triple(entity, TYPE_PREDICATE, type_name)
    for source, target, rel_type in graph.relationships():
        yield Triple(source, predicates[rel_type], target)


def triples_to_entity_graph(
    triples: Iterable[Triple], name: str = "entity-graph"
) -> EntityGraph:
    """Decode a triple stream with :meth:`EntityGraph.bulk_load`.

    Each entity's typing triples are grouped in stream order: entities
    enter in the order of their first typing triple, and types in the
    order they are first seen.  Then every relationship triple adds one
    instance, in stream order, so a triple may precede its endpoints'
    typing.  Repeated typing triples are idempotent.

    Raises :class:`~repro.exceptions.ModelError` for a predicate that is
    neither :data:`TYPE_PREDICATE` nor a qualified relationship type, and
    for a relationship whose endpoint is untyped or lacks the endpoint
    type its predicate names.  The cyclic garbage collector is paused
    throughout (:func:`~repro.model.entity_graph.collector_paused`).
    """
    types_of: Dict[str, List[str]] = {}
    relationships: List[Relationship] = []
    rel_types: Dict[str, RelationshipTypeId] = {}
    with collector_paused():
        for triple in triples:
            subject, predicate, obj = triple
            if predicate == TYPE_PREDICATE:
                types_of.setdefault(subject, []).append(obj)
                continue
            rel_type = rel_types.get(predicate)
            if rel_type is None:
                try:
                    rel_type = rel_types[predicate] = parse_qualified_name(predicate)
                except ModelError as exc:
                    raise ModelError(
                        f"bad relationship predicate in {triple!r}: {exc}"
                    ) from exc
            relationships.append((subject, obj, rel_type))
        return EntityGraph.bulk_load(types_of.items(), relationships, name=name)


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

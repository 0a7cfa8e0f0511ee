"""The entity graph ``Gd(Vd, Ed)`` — the paper's input data model (Sec. 2).

An entity graph is a directed multigraph whose vertices are *entities*
(each belonging to one or more *entity types*) and whose edges are
*relationships* (each belonging to exactly one *relationship type*).  The
type of a relationship determines the types of both endpoints, so every
edge is labelled with a full :class:`~repro.model.ids.RelationshipTypeId`.

The class maintains the aggregate statistics the scoring measures consume:

* per-type entity counts  — coverage key scoring ``Scov(τ)``;
* per-relationship-type edge counts — coverage non-key scoring;
* per-type-pair edge totals — random-walk edge weights ``w_ij``;
* per-entity typed adjacency — entropy scoring and tuple materialization.

Relationship instances live in one insertion-order list.  The typed
adjacency is built from it on first use: coverage-scored previews never
read it, so a graph loaded only to answer them never pays for it.
"""

from __future__ import annotations

import contextlib
import gc
from collections import Counter
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from ..exceptions import (
    SchemaViolationError,
    UnknownEntityError,
    UnknownRelationshipTypeError,
    UnknownTypeError,
)
from .attributes import Direction, NonKeyAttribute
from .ids import EntityId, RelationshipTypeId, TypeId
from .mutation_log import MutationLog

#: One relationship instance: ``(source, target, type)``.
Relationship = Tuple[EntityId, EntityId, RelationshipTypeId]

#: ``(entity, rel_type) -> multiset of neighbor entities``, one direction.
_Adjacency = Dict[Tuple[EntityId, RelationshipTypeId], List[EntityId]]


def _untyped(entity: EntityId) -> SchemaViolationError:
    return SchemaViolationError(f"entity {entity!r} must belong to at least one type")


@contextlib.contextmanager
def collector_paused() -> Iterator[None]:
    """Pause Python's cyclic garbage collector for the ``with`` block.

    A graph load builds acyclic containers only (tuples, sets, lists,
    dicts), which the collector would rescan again and again as the
    heap grows.  If the collector is on at entry it is switched off and
    switched back on at every exit, errors included; if it is already
    off, nothing is touched, so a caller that disabled it keeps it
    disabled.  Two threads inside the block at once leave it on.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class EntityGraph:
    """A typed directed multigraph of entities and relationships.

    Instances are usually constructed through
    :class:`~repro.model.builder.EntityGraphBuilder` or bulk-loaded with
    :meth:`bulk_load` (as the triple decoder
    :func:`~repro.model.triples.triples_to_entity_graph` and ``.rgs``
    materialization do), but the mutation API here is public and
    validating.

    Every successful mutation is recorded in :attr:`mutation_log` — the
    per-generation changelog of dirty key types and relationship types
    that the incremental scoring pipeline (contexts, candidate pools,
    engine memos) consumes to patch itself in O(delta); see
    :mod:`repro.model.mutation_log`.
    """

    def __init__(self, name: str = "entity-graph") -> None:
        self.name = name
        self._types_of: Dict[EntityId, Set[TypeId]] = {}
        self._entities_by_type: Dict[TypeId, Set[EntityId]] = {}
        self._edge_counts: Counter = Counter()  # RelationshipTypeId -> count
        self._edges: List[Relationship] = []  # insertion order
        # (outgoing, incoming) typed adjacency; None until first read.
        self._adjacency: Optional[Tuple[_Adjacency, _Adjacency]] = None
        #: Per-generation changelog of what each mutation dirtied.
        self.mutation_log = MutationLog()

    @classmethod
    def bulk_load(
        cls,
        entities: Iterable[Tuple[EntityId, Iterable[TypeId]]],
        relationships: Iterable[Relationship],
        name: str = "entity-graph",
    ) -> "EntityGraph":
        """Build a graph from ``(entity, types)`` pairs and relationships.

        The same graph as :meth:`add_entity` on every pair and then
        :meth:`add_relationship` on every ``(source, target, rel_type)``
        triple, in order: every entity and every edge is validated with
        the same exceptions and messages, and the orders and
        :attr:`generation` come out equal.  Only the mutation log
        differs: it advances once, by the number of adds, and keeps an
        empty window (as after
        :meth:`~repro.model.mutation_log.MutationLog.fast_forward`),
        since a freshly loaded graph has no earlier state to patch from.
        """
        graph = cls(name)
        types_of = graph._types_of
        entities_by_type = graph._entities_by_type
        adds = 0
        for entity, types in entities:
            existing = types_of.setdefault(entity, set())
            typed = False
            # The membership test drops a repeated type, so the types
            # land in the first-seen order add_entity's dedup keeps.
            for type_name in types:
                typed = True
                if type_name not in existing:
                    existing.add(type_name)
                    entities_by_type.setdefault(type_name, set()).add(entity)
            if not typed:
                raise _untyped(entity)
            adds += 1
        edges = graph._edges
        for source, target, rel_type in relationships:
            source_types = types_of.get(source)
            target_types = types_of.get(target)
            if (
                source_types is None
                or target_types is None
                or rel_type.source_type not in source_types
                or rel_type.target_type not in target_types
            ):
                # Raises the exception add_relationship would.
                graph._check_relationship(source, target, rel_type)
            edges.append((source, target, rel_type))
        graph._edge_counts.update(rel_type for _s, _t, rel_type in edges)
        graph.mutation_log.fast_forward(adds + len(edges))
        return graph

    @property
    def generation(self) -> int:
        """Total successful mutations — the cache-invalidation epoch."""
        return self.mutation_log.generation

    # ------------------------------------------------------------------
    # Entities and types
    # ------------------------------------------------------------------
    def add_entity(self, entity: EntityId, types: Iterable[TypeId]) -> None:
        """Add an entity with one or more types (idempotent, types union)."""
        type_list = list(dict.fromkeys(types))
        if not type_list:
            raise _untyped(entity)
        existing = self._types_of.setdefault(entity, set())
        # First-seen order is the caller's list order (deterministic
        # across processes, unlike set iteration) — the schema graph,
        # candidate pool and verification rescans all rely on it.
        new_types = [t for t in type_list if t not in existing]
        # A type first seen here adds a schema-graph vertex: structural.
        structural = any(
            type_name not in self._entities_by_type for type_name in new_types
        )
        for type_name in new_types:
            existing.add(type_name)
            self._entities_by_type.setdefault(type_name, set()).add(entity)
        self.mutation_log.record(key_types=new_types, structural=structural)

    def has_entity(self, entity: EntityId) -> bool:
        """Whether ``entity`` exists in the graph."""
        return entity in self._types_of

    def types_of(self, entity: EntityId) -> FrozenSet[TypeId]:
        """The set of types ``entity`` belongs to."""
        try:
            return frozenset(self._types_of[entity])
        except KeyError:
            raise UnknownEntityError(entity) from None

    def entities(self) -> Iterator[EntityId]:
        """Iterator over entity ids in insertion order."""
        return iter(self._types_of)

    def entity_types(self) -> List[TypeId]:
        """All entity types, in first-seen order."""
        return list(self._entities_by_type)

    def entities_of_type(self, type_name: TypeId) -> FrozenSet[EntityId]:
        """``T.τ`` — the set of entities bearing ``type_name``."""
        try:
            return frozenset(self._entities_by_type[type_name])
        except KeyError:
            raise UnknownTypeError(type_name) from None

    def type_count(self, type_name: TypeId) -> int:
        """``|{v : v has type τ}|`` — the coverage score numerator."""
        try:
            return len(self._entities_by_type[type_name])
        except KeyError:
            raise UnknownTypeError(type_name) from None

    @property
    def entity_count(self) -> int:
        """Number of entities."""
        return len(self._types_of)

    # ------------------------------------------------------------------
    # Relationships
    # ------------------------------------------------------------------
    def add_relationship(
        self,
        source: EntityId,
        target: EntityId,
        rel_type: RelationshipTypeId,
    ) -> None:
        """Add a directed relationship of type ``rel_type``.

        Validates the paper's schema invariant: the source entity must bear
        ``rel_type.source_type`` and the target entity must bear
        ``rel_type.target_type``.
        """
        self._check_relationship(source, target, rel_type)
        # A relationship type first seen here adds a schema-graph edge
        # (and possibly new candidate attributes): structural.
        structural = rel_type not in self._edge_counts
        self._edges.append((source, target, rel_type))
        self._edge_counts[rel_type] += 1
        if self._adjacency is not None:
            outgoing, incoming = self._adjacency
            outgoing.setdefault((source, rel_type), []).append(target)
            incoming.setdefault((target, rel_type), []).append(source)
        # Instance counts feed the non-key scores of both endpoint types
        # (γ appears in Γ_src as OUT and in Γ_tgt as IN): they are the
        # key types this mutation dirties.
        self.mutation_log.record(
            key_types=(rel_type.source_type, rel_type.target_type),
            rel_types=(rel_type,),
            structural=structural,
        )

    def _check_relationship(
        self, source: EntityId, target: EntityId, rel_type: RelationshipTypeId
    ) -> None:
        """Raise unless both endpoints exist and bear ``rel_type``'s types."""
        if source not in self._types_of:
            raise UnknownEntityError(source)
        if target not in self._types_of:
            raise UnknownEntityError(target)
        if rel_type.source_type not in self._types_of[source]:
            raise SchemaViolationError(
                f"source {source!r} lacks type {rel_type.source_type!r} "
                f"required by relationship type {rel_type}"
            )
        if rel_type.target_type not in self._types_of[target]:
            raise SchemaViolationError(
                f"target {target!r} lacks type {rel_type.target_type!r} "
                f"required by relationship type {rel_type}"
            )

    def relationship_types(self) -> List[RelationshipTypeId]:
        """All relationship types with at least one edge, first-seen order."""
        return list(self._edge_counts)

    def relationship_count(self, rel_type: RelationshipTypeId) -> int:
        """``|{e : e has type γ}|`` — the non-key coverage score."""
        if rel_type not in self._edge_counts:
            raise UnknownRelationshipTypeError(rel_type)
        return self._edge_counts[rel_type]

    @property
    def edge_count(self) -> int:
        """Number of relationship edges."""
        return len(self._edges)

    def relationships(self) -> Iterator[Relationship]:
        """Every relationship instance as ``(source, target, type)``.

        Instances come in insertion order, parallel edges included.
        """
        return iter(self._edges)

    # ------------------------------------------------------------------
    # Typed adjacency (materialization + entropy scoring)
    # ------------------------------------------------------------------
    def _typed_adjacency(self) -> Tuple[_Adjacency, _Adjacency]:
        """The ``(outgoing, incoming)`` adjacency, built on first use.

        Built completely before it is published, so a concurrent reader
        sees either no adjacency or a whole one; from then on
        :meth:`add_relationship` keeps it current.
        """
        adjacency = self._adjacency
        if adjacency is None:
            outgoing: _Adjacency = {}
            incoming: _Adjacency = {}
            for source, target, rel_type in self._edges:
                outgoing.setdefault((source, rel_type), []).append(target)
                incoming.setdefault((target, rel_type), []).append(source)
            adjacency = self._adjacency = (outgoing, incoming)
        return adjacency

    def targets(self, entity: EntityId, rel_type: RelationshipTypeId) -> List[EntityId]:
        """Entities reached from ``entity`` via outgoing ``rel_type`` edges."""
        if entity not in self._types_of:
            raise UnknownEntityError(entity)
        return list(self._typed_adjacency()[0].get((entity, rel_type), ()))

    def sources(self, entity: EntityId, rel_type: RelationshipTypeId) -> List[EntityId]:
        """Entities reaching ``entity`` via incoming ``rel_type`` edges."""
        if entity not in self._types_of:
            raise UnknownEntityError(entity)
        return list(self._typed_adjacency()[1].get((entity, rel_type), ()))

    def attribute_value(
        self, entity: EntityId, attribute: NonKeyAttribute
    ) -> FrozenSet[EntityId]:
        """``t.γ`` — the (set-valued) value of ``entity`` on ``attribute``.

        Definition 1: the set of entities incident from (OUT) or to (IN)
        the tuple's key entity through edges of the attribute's type.
        """
        if attribute.direction is Direction.OUT:
            return frozenset(self.targets(entity, attribute.rel_type))
        return frozenset(self.sources(entity, attribute.rel_type))

    # ------------------------------------------------------------------
    # Aggregates for scoring
    # ------------------------------------------------------------------
    def type_pair_weights(self) -> Dict[Tuple[TypeId, TypeId], int]:
        """``w_ij`` — total relationships between each unordered type pair.

        Keys are unordered pairs normalized with ``sorted``; self-pairs
        (τ, τ) accumulate self-loop relationship types.
        """
        weights: Counter = Counter()
        for rel_type, count in self._edge_counts.items():
            pair = tuple(sorted((rel_type.source_type, rel_type.target_type)))
            weights[pair] += count
        return dict(weights)

    def stats(self) -> Dict[str, int]:
        """Summary statistics in the shape of the paper's Table 2 rows."""
        return {
            "entities": self.entity_count,
            "relationships": self.edge_count,
            "entity_types": len(self._entities_by_type),
            "relationship_types": len(self._edge_counts),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats()
        return (
            f"EntityGraph(name={self.name!r}, entities={stats['entities']}, "
            f"relationships={stats['relationships']}, "
            f"types={stats['entity_types']}, "
            f"rel_types={stats['relationship_types']})"
        )

"""The schema graph ``Gs(Vs, Es)`` derived from an entity graph (Sec. 2).

Vertices are entity types; edges are relationship types.  Given an entity
graph the schema graph is *uniquely determined*: ``γ(τ, τ') ∈ Es`` iff the
entity graph contains at least one edge of type γ between entities of
types τ and τ'.  Because every relationship instance carries a full
:class:`~repro.model.ids.RelationshipTypeId`, derivation is a single scan
over the relationship-type table.

The schema graph also carries the aggregates preview discovery needs:

* candidate non-key attribute lists ``Γτ`` per entity type (both edge
  orientations, per Definition 1);
* the undirected weighted type graph for the random-walk scorer;
* a :class:`~repro.graph.distance.DistanceOracle` for tight/diverse
  constraints, built over that same undirected graph.

The insertion-ordered count tables (types, relationship types and the
``Γτ`` lists) are the schema's only structure; both derived graphs are
built from them on demand.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..exceptions import UnknownTypeError
from ..graph import DistanceOracle, UndirectedGraph
from .attributes import Direction, NonKeyAttribute
from .entity_graph import EntityGraph
from .ids import RelationshipTypeId, TypeId


class SchemaGraph:
    """Schema graph with cached scoring aggregates.

    Build with :meth:`from_entity_graph`; direct construction is exposed
    for tests and for synthetic schema-only workloads (e.g. the NP-hardness
    reductions, which construct schema graphs with no entity graph
    underneath).
    """

    def __init__(self, name: str = "schema-graph") -> None:
        self.name = name
        self._rel_weights: Dict[RelationshipTypeId, int] = {}
        self._type_counts: Dict[TypeId, int] = {}
        self._candidates: Dict[TypeId, List[NonKeyAttribute]] = {}
        self._distance_oracle: Optional[DistanceOracle] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_entity_graph(cls, entity_graph: EntityGraph) -> "SchemaGraph":
        """Derive the (unique) schema graph of ``entity_graph``."""
        schema = cls(name=f"schema({entity_graph.name})")
        for type_name in entity_graph.entity_types():
            schema.add_entity_type(
                type_name, entity_count=entity_graph.type_count(type_name)
            )
        for rel_type in entity_graph.relationship_types():
            schema.add_relationship_type(
                rel_type, edge_count=entity_graph.relationship_count(rel_type)
            )
        return schema

    def add_entity_type(self, type_name: TypeId, entity_count: int = 0) -> None:
        """Register an entity type vertex with its entity population.

        Distances depend only on structure, so the distance oracle is
        dropped only when the type is new, not on a count-only update.
        """
        if type_name not in self._type_counts:
            self._type_counts[type_name] = 0
            self._candidates[type_name] = []
            self._distance_oracle = None
        self._type_counts[type_name] = max(self._type_counts[type_name], entity_count)

    def add_relationship_type(
        self, rel_type: RelationshipTypeId, edge_count: int = 1
    ) -> None:
        """Register a relationship type edge with its instance count.

        Endpoint types are added implicitly (with zero population) when
        missing.  Only a new relationship type (or endpoint type) drops
        the distance oracle.
        """
        self.add_entity_type(rel_type.source_type)
        self.add_entity_type(rel_type.target_type)
        if rel_type in self._rel_weights:
            self._rel_weights[rel_type] += edge_count
        else:
            self._rel_weights[rel_type] = edge_count
            self._candidates[rel_type.source_type].append(
                NonKeyAttribute(rel_type, Direction.OUT)
            )
            self._candidates[rel_type.target_type].append(
                NonKeyAttribute(rel_type, Direction.IN)
            )
            self._distance_oracle = None

    # ------------------------------------------------------------------
    # Vertices / edges
    # ------------------------------------------------------------------
    def entity_types(self) -> List[TypeId]:
        """All entity types, in insertion order."""
        return list(self._type_counts)

    def has_entity_type(self, type_name: TypeId) -> bool:
        """Whether ``type_name`` is declared."""
        return type_name in self._type_counts

    @property
    def entity_type_count(self) -> int:
        """``K = |Vs|`` in the paper's complexity analyses."""
        return len(self._type_counts)

    def relationship_types(self) -> List[RelationshipTypeId]:
        """All relationship types, in insertion order."""
        return list(self._rel_weights)

    @property
    def relationship_type_count(self) -> int:
        """``|Es|`` — number of relationship types."""
        return len(self._rel_weights)

    @property
    def candidate_attribute_count(self) -> int:
        """``N = 2|Es|`` — total candidate non-key attributes (Sec. 5.1)."""
        return 2 * len(self._rel_weights)

    def entity_count(self, type_name: TypeId) -> int:
        """Number of entities of ``type_name`` in the underlying data."""
        try:
            return self._type_counts[type_name]
        except KeyError:
            raise UnknownTypeError(type_name) from None

    def relationship_count(self, rel_type: RelationshipTypeId) -> int:
        """Number of relationship instances of ``rel_type``."""
        if rel_type not in self._rel_weights:
            from ..exceptions import UnknownRelationshipTypeError

            raise UnknownRelationshipTypeError(rel_type)
        return self._rel_weights[rel_type]

    # ------------------------------------------------------------------
    # Candidate non-key attributes
    # ------------------------------------------------------------------
    def candidate_attributes(self, type_name: TypeId) -> List[NonKeyAttribute]:
        """``Γτ`` — candidate non-key attributes incident on ``type_name``.

        Contains one OUT view per relationship type sourced at ``τ`` and
        one IN view per relationship type targeting ``τ``; a self-loop
        contributes both views.
        """
        try:
            return list(self._candidates[type_name])
        except KeyError:
            raise UnknownTypeError(type_name) from None

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def undirected_weighted(self) -> UndirectedGraph:
        """The weighted undirected type graph of Sec. 3.2.

        Edge weight ``w_ij`` is the total number of entity-graph
        relationships between types ``τi`` and ``τj`` in both directions.
        Every registered entity type appears as a node even if isolated.
        """
        graph = UndirectedGraph()
        for type_name in self._type_counts:
            graph.add_node(type_name)
        for rel_type, weight in self._rel_weights.items():
            graph.add_edge(rel_type.source_type, rel_type.target_type, float(weight))
        return graph

    def distance_oracle(self) -> DistanceOracle:
        """Cached all-pairs undirected distances between entity types.

        Built over :meth:`undirected_weighted`, whose nodes and
        neighbours follow insertion order, so the oracle's node order
        and every BFS it runs are independent of the hash seed.
        """
        if self._distance_oracle is None:
            self._distance_oracle = DistanceOracle(self.undirected_weighted())
        return self._distance_oracle

    def distance(self, type_a: TypeId, type_b: TypeId) -> float:
        """``dist(τ, τ')`` — shortest undirected path length (Sec. 4)."""
        return self.distance_oracle().distance(type_a, type_b)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Count summary of declared types and relationships."""
        return {
            "entity_types": self.entity_type_count,
            "relationship_types": self.relationship_type_count,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SchemaGraph(name={self.name!r}, "
            f"types={self.entity_type_count}, "
            f"rel_types={self.relationship_type_count})"
        )

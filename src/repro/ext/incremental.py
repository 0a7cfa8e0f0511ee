"""Incremental maintenance: a live entity graph and its engines.

Sec. 5 of the paper asserts that the schema graph and the scoring
measures "can be incrementally updated when the underlying entity graph
is updated (detailed discussion omitted)" — while optimal previews
cannot.  The omitted machinery lives in two places:

* the graph's :class:`~repro.model.mutation_log.MutationLog` records,
  per mutation, the key types and relationship types it dirtied and
  whether it changed the schema graph itself (a *structural* mutation);
* a :class:`~repro.engine.PreviewEngine` built on the graph owns every
  piece of derived state — the schema graph, the scoring context, the
  result memo and the clique groups — behind one cursor over that log,
  and folds it on the first read after a write (see the engine's module
  docstring for the rule).

:class:`IncrementalEntityGraph` holds the graph and one engine per
scorer pair, and no derived state of its own.  Writes are plain calls
into the graph, made through the wrapper or straight on
:attr:`IncrementalEntityGraph.entity_graph` alike: the changelog is the
only way a write reaches an engine.  Every write bumps the graph's
*generation*, which invalidates cached discovery results, making the
paper's "previews cannot be incrementally updated" explicit in the API:
callers re-run discovery (cheap — Fig. 8) against fresh scores.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..core.preview import DiscoveryResult
from ..engine import PreviewEngine
from ..exceptions import UnknownRelationshipTypeError, UnknownTypeError
from ..model.entity_graph import EntityGraph
from ..model.ids import EntityId, RelationshipTypeId, TypeId
from ..model.mutation_log import MutationLog
from ..model.schema_graph import SchemaGraph
from ..scoring.preview_score import ScoringContext


class IncrementalEntityGraph:
    """A live entity graph with one preview engine per scorer pair."""

    def __init__(self, base: Optional[EntityGraph] = None, name: str = "incremental") -> None:
        self._graph = base if base is not None else EntityGraph(name=name)
        self._engines: Dict[tuple, PreviewEngine] = {}

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    @property
    def entity_graph(self) -> EntityGraph:
        """The wrapped (live) entity graph.

        Mutating it directly is allowed and costs the same as mutating
        through the wrapper: the changelog observes every mutation, and
        each engine folds it on its next read.
        """
        return self._graph

    @property
    def schema(self) -> SchemaGraph:
        """The coverage engine's schema graph, current with the graph."""
        return self.engine().schema

    @property
    def generation(self) -> int:
        """The underlying graph's mutation counter (cache epoch)."""
        return self._graph.mutation_log.generation

    @property
    def mutation_log(self) -> MutationLog:
        """The underlying graph's per-generation mutation changelog."""
        return self._graph.mutation_log

    def key_coverage(self, type_name: TypeId) -> int:
        """``Scov(τ)`` from the graph's counts (0 for unknown types)."""
        try:
            return self._graph.type_count(type_name)
        except UnknownTypeError:
            return 0

    def nonkey_coverage(self, rel_type: RelationshipTypeId) -> int:
        """``Sτcov(γ)`` from the graph's counts (0 for unknown types)."""
        try:
            return self._graph.relationship_count(rel_type)
        except UnknownRelationshipTypeError:
            return 0

    # ------------------------------------------------------------------
    # Mutation (recorded by the graph's changelog, folded on next read)
    # ------------------------------------------------------------------
    def add_entity(self, entity: EntityId, types: Iterable[TypeId]) -> None:
        """Add ``entity`` with ``types`` to the wrapped graph.

        Parameters
        ----------
        entity:
            The entity id (idempotent: re-adding unions the types).
        types:
            One or more entity types; a type never seen before makes
            this a *structural* mutation (downstream caches rebuild
            instead of patching).

        Raises
        ------
        SchemaViolationError
            If ``types`` is empty.
        """
        self._graph.add_entity(entity, types)

    def add_relationship(
        self, source: EntityId, target: EntityId, rel_type: RelationshipTypeId
    ) -> None:
        """Add one ``rel_type`` instance to the wrapped graph.

        Parameters
        ----------
        source, target:
            Existing entity ids bearing ``rel_type.source_type`` /
            ``rel_type.target_type`` respectively.
        rel_type:
            The (name, source type, target type) relationship identity;
            a never-seen relationship type makes this a *structural*
            mutation.

        Raises
        ------
        UnknownEntityError
            If either endpoint does not exist.
        SchemaViolationError
            If an endpoint lacks the type the signature requires.
        """
        self._graph.add_relationship(source, target, rel_type)

    # ------------------------------------------------------------------
    # Discovery (never incremental — by design, matching the paper)
    # ------------------------------------------------------------------
    def context(
        self, key_scorer: str = "coverage", nonkey_scorer: str = "coverage"
    ) -> ScoringContext:
        """The scorer pair's engine context, current with the graph.

        Coverage contexts are *patched* across non-structural mutations
        (see :meth:`ScoringContext.patched`); any other context, or any
        context after a structural mutation, is built afresh on request.
        """
        return self.engine(key_scorer, nonkey_scorer).context

    def engine(
        self, key_scorer: str = "coverage", nonkey_scorer: str = "coverage"
    ) -> PreviewEngine:
        """The :class:`PreviewEngine` of this graph for one scorer pair.

        One engine per scorer pair is kept alive for the graph's
        lifetime, so repeated queries between mutations hit its memo
        cache; it follows every mutation through the graph's changelog.
        """
        cache_key = (key_scorer, nonkey_scorer)
        engine = self._engines.get(cache_key)
        if engine is None:
            engine = PreviewEngine(
                self._graph, key_scorer=key_scorer, nonkey_scorer=nonkey_scorer
            )
            self._engines[cache_key] = engine
        return engine

    def discover(self, k: int, n: int, **kwargs) -> DiscoveryResult:
        """Run discovery against up-to-date scores.

        Optimal previews cannot be patched in place (Sec. 5), so this
        always re-solves — against the maintained scores, through the
        scorer pair's engine (a repeat of an unchanged query between
        mutations is answered from its cache).
        """
        key_scorer = kwargs.pop("key_scorer", "coverage")
        nonkey_scorer = kwargs.pop("nonkey_scorer", "coverage")
        return self.engine(key_scorer, nonkey_scorer).query(k=k, n=n, **kwargs)

    def verify_against_rescan(self, check_pools: bool = True) -> bool:
        """Cross-check every engine's state against a full rescan.

        Runs :meth:`PreviewEngine.verify_against_rescan` on each engine
        built so far, or on the coverage engine when there is none.
        """
        engines = list(self._engines.values()) or [self.engine()]
        return all(engine.verify_against_rescan(check_pools) for engine in engines)

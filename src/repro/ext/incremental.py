"""Incremental maintenance of schema graphs and scoring contexts.

Sec. 5 of the paper asserts that the schema graph and the scoring
measures "can be incrementally updated when the underlying entity graph
is updated (detailed discussion omitted)" — while optimal previews
cannot.  This module supplies that omitted machinery:

* :class:`IncrementalEntityGraph` wraps an :class:`EntityGraph` whose
  :class:`~repro.model.mutation_log.MutationLog` records, per mutation,
  the key types and relationship types it dirtied and whether it changed
  the schema graph itself (a *structural* mutation).  Writes are plain
  calls into the graph; the changelog is the only way a write reaches
  the wrapper's state, whether it came through the wrapper or straight
  to :attr:`IncrementalEntityGraph.entity_graph`;
* every read (:attr:`~IncrementalEntityGraph.schema`,
  :meth:`~IncrementalEntityGraph.context`, the coverage accessors)
  first runs one refresh, which folds the changelog since its cursor
  into one :class:`~repro.model.mutation_log.MutationDelta` and repairs
  the derived state at one of three granularities:

  * **none** — an empty delta (pure no-op mutations): everything is kept;
  * **type-scoped** — a non-structural delta: the dirty types' and
    relationship types' counts are copied from the graph into the schema
    graph in place (its distance oracle survives), and delta-capable
    :class:`ScoringContext`\\ s (coverage) are *patched* — only dirty
    types re-scored, candidate-pool rows shared for the rest — while the
    other contexts (random walk, entropy: global measures) are dropped
    and rebuild lazily on their next request;
  * **full** — a structural delta, or a baseline older than the
    changelog window: the schema graph is re-derived from the entity
    graph and every context is dropped;

* a *generation* counter invalidates any cached discovery result, making
  the paper's "previews cannot be incrementally updated" explicit in the
  API: callers re-run discovery (cheap — Fig. 8) against fresh scores.
  :meth:`IncrementalEntityGraph.engine` returns a
  :class:`~repro.engine.PreviewEngine` bound to this graph, which reads
  the same changelog through :meth:`IncrementalEntityGraph.dirty_since`:
  a dirtying write clears its result memo, and only a structural one
  drops its clique groups too.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..core.preview import DiscoveryResult
from ..engine import PreviewEngine
from ..exceptions import UnknownRelationshipTypeError, UnknownTypeError
from ..model.entity_graph import EntityGraph
from ..model.ids import EntityId, RelationshipTypeId, TypeId
from ..model.mutation_log import MutationDelta, MutationLog
from ..model.schema_graph import SchemaGraph
from ..scoring.preview_score import ScoringContext


class IncrementalEntityGraph:
    """An entity graph whose schema and scores follow its changelog."""

    def __init__(self, base: Optional[EntityGraph] = None, name: str = "incremental") -> None:
        self._graph = base if base is not None else EntityGraph(name=name)
        self._schema = SchemaGraph.from_entity_graph(self._graph)
        #: (key_scorer, nonkey_scorer) -> context, current as of _generation.
        self._contexts: Dict[tuple, ScoringContext] = {}
        #: The refresh cursor: the generation the schema and contexts reflect.
        self._generation = self.generation
        self._engines: Dict[tuple, PreviewEngine] = {}

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    @property
    def entity_graph(self) -> EntityGraph:
        """The wrapped (live) entity graph.

        Mutating it directly is allowed and costs the same as mutating
        through the wrapper: the changelog observes every mutation, and
        the next read folds it in.
        """
        return self._graph

    @property
    def schema(self) -> SchemaGraph:
        """The schema graph, refreshed from the changelog first."""
        self._refresh()
        return self._schema

    @property
    def generation(self) -> int:
        """The underlying graph's mutation counter (cache epoch)."""
        return self._graph.mutation_log.generation

    @property
    def mutation_log(self) -> MutationLog:
        """The underlying graph's per-generation mutation changelog."""
        return self._graph.mutation_log

    def dirty_since(self, generation: int) -> MutationDelta:
        """Everything dirtied after ``generation`` (one folded delta).

        The engine-facing changelog read: a
        :class:`~repro.engine.PreviewEngine` bound to this graph calls
        it once per generation change to decide between keeping its
        caches (empty delta), clearing its result memo (non-structural
        delta) and a full cache drop.
        """
        return self._graph.mutation_log.dirty_since(generation)

    def key_coverage(self, type_name: TypeId) -> int:
        """``Scov(τ)`` from the refreshed schema (0 for unknown types)."""
        try:
            return self.schema.entity_count(type_name)
        except UnknownTypeError:
            return 0

    def nonkey_coverage(self, rel_type: RelationshipTypeId) -> int:
        """``Sτcov(γ)`` from the refreshed schema (0 for unknown types)."""
        try:
            return self.schema.relationship_count(rel_type)
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
        """A scoring context current with the latest generation.

        Coverage contexts are *patched* across non-structural mutations
        (see :meth:`ScoringContext.patched`); any other context, or any
        context after a structural mutation, is built afresh on request.
        """
        self._refresh()
        cache_key = (key_scorer, nonkey_scorer)
        context = self._contexts.get(cache_key)
        if context is None:
            context = ScoringContext(
                self._schema,
                self._graph,
                key_scorer=key_scorer,
                nonkey_scorer=nonkey_scorer,
            )
            self._contexts[cache_key] = context
        return context

    def _refresh(self) -> None:
        """Fold the changelog since the cursor into the schema and contexts.

        A patchable delta only ever raises counts of types and
        relationship types the schema already holds, so copying them
        moves no vertex, edge or order.  A structural delta re-derives
        the schema in the graph's first-seen order; its ``key_types``
        (a frozenset) are never folded in, since new types would then
        enter in hash order and move tie-breaks.
        """
        generation = self.generation
        if self._generation == generation:
            return
        delta = self._graph.mutation_log.dirty_since(self._generation)
        if not delta.patchable:
            self._schema = SchemaGraph.from_entity_graph(self._graph)
            self._contexts = {}
        elif not delta.empty:
            graph, schema = self._graph, self._schema
            for type_name in delta.key_types:
                schema.add_entity_type(type_name, entity_count=graph.type_count(type_name))
            for rel_type in delta.rel_types:
                schema.add_relationship_type(
                    rel_type,
                    edge_count=graph.relationship_count(rel_type)
                    - schema.relationship_count(rel_type),
                )
            self._contexts = {
                cache_key: context.patched(delta.key_types)
                for cache_key, context in self._contexts.items()
                if context.supports_delta
            }
        self._generation = generation

    def engine(
        self, key_scorer: str = "coverage", nonkey_scorer: str = "coverage"
    ) -> PreviewEngine:
        """A :class:`PreviewEngine` wired to this graph's generation counter.

        One engine per scorer pair is kept alive for the graph's
        lifetime, so repeated queries between mutations hit its memo
        cache; any mutation bumps :attr:`generation`, which the engine
        observes and answers by reading :meth:`dirty_since`: a dirtying
        delta clears the memo, and a structural one drops the clique
        groups too.
        """
        cache_key = (key_scorer, nonkey_scorer)
        engine = self._engines.get(cache_key)
        if engine is None:
            engine = PreviewEngine(
                self, key_scorer=key_scorer, nonkey_scorer=nonkey_scorer
            )
            self._engines[cache_key] = engine
        return engine

    def discover(self, k: int, n: int, **kwargs) -> DiscoveryResult:
        """Run discovery against up-to-date scores.

        Optimal previews cannot be patched in place (Sec. 5), so this
        always re-solves — against the refreshed scores, through the
        generation-aware engine (a repeat of an unchanged query between
        mutations is answered from its cache).
        """
        key_scorer = kwargs.pop("key_scorer", "coverage")
        nonkey_scorer = kwargs.pop("nonkey_scorer", "coverage")
        return self.engine(key_scorer, nonkey_scorer).query(k=k, n=n, **kwargs)

    def verify_against_rescan(self, check_pools: bool = True) -> bool:
        """Cross-check the refreshed state against a full rescan.

        Test/debug helper: returns True when the schema graph holds
        exactly the types, relationship types and counts of a freshly
        derived one, in the same order, *and* (with ``check_pools``,
        the default) when every cached scorer-combo context's
        :class:`~repro.scoring.CandidatePool` — the delta-patched flat
        arrays every discovery algorithm reads — equals one built from
        scratch over the rescanned schema: same type order, key scores,
        sorted candidate lists with raw/weighted scores, prefix-sum
        tables and eligible set.  Floats are compared exactly, not
        approximately: the delta path promises bit-identical state.
        """
        fresh = SchemaGraph.from_entity_graph(self._graph)
        if _schema_counts(self.schema) != _schema_counts(fresh):
            return False
        if not check_pools:
            return True
        for key_scorer, nonkey_scorer in list(self._contexts) or [("coverage", "coverage")]:
            maintained = self.context(key_scorer, nonkey_scorer).candidate_pool()
            rebuilt = ScoringContext(
                fresh,
                self._graph,
                key_scorer=key_scorer,
                nonkey_scorer=nonkey_scorer,
            ).candidate_pool()
            # Frozen-dataclass equality covers every field (type order,
            # key scores, sorted candidates, weighted scores, prefix
            # tables, index, eligible) — including any added later.
            if maintained != rebuilt:
                return False
        return True


def _schema_counts(schema: SchemaGraph):
    """Every type and relationship type with its count, in schema order."""
    return (
        [(t, schema.entity_count(t)) for t in schema.entity_types()],
        [(r, schema.relationship_count(r)) for r in schema.relationship_types()],
    )

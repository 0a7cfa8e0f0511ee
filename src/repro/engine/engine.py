"""The preview engine: registry-dispatched, cache-aware query execution.

:class:`PreviewEngine` hoists everything the per-call
:func:`~repro.core.discovery.discover_preview` facade cannot share out of
the request path, the way multi-query database engines hoist common
sub-plans out of per-query execution:

* **Scoring state** — one :class:`~repro.scoring.ScoringContext` (and its
  :class:`~repro.scoring.CandidatePool` of sorted Γτ arrays and prefix
  sums) over one schema graph serves every query;
* **Result memoization** — :class:`DiscoveryResult`\\ s are cached per
  ``(generation, query)``, so repeated queries — the common case under
  preview-serving traffic — are O(1);
* **Clique-group reuse** — for distance-constrained (tight/diverse)
  queries answered by the Apriori algorithm, the qualifying key subsets
  (compatibility k-cliques) depend only on ``(k, d, mode)``, not on
  ``n``.  The engine enumerates each group once and answers every point
  of it — alone or along a Fig. 9-style sweep — with one batched kernel
  call over the cached subsets plus one allocation profile for the
  winner: byte-identical results to a fresh :func:`apriori_discover`
  call, without its clique enumeration;
* **Live graphs** — an engine built on an
  :class:`~repro.model.entity_graph.EntityGraph` owns all four of the
  above behind one cursor over the graph's
  :class:`~repro.model.mutation_log.MutationLog`.  The first read after
  a write folds the log since the cursor into one
  :class:`~repro.model.mutation_log.MutationDelta` (``dirty_since``)
  and applies one rule for every scorer pair.  An empty delta (pure
  no-op mutations) keeps everything.  Any other non-structural delta
  copies the dirty counts into the schema graph in place, and patches a
  delta-capable (coverage) context or drops any other one to rebuild on
  the next read.  It clears the result memo, since a tight/diverse
  result depends on every type of its group and a concise one on the
  whole eligible set.  It keeps the clique groups, which read only
  eligibility and distances: both follow from schema structure under
  every scorer.  A structural delta (a new entity or relationship type)
  or a baseline older than the log's window drops the schema, the
  context, the memo and the groups.

Algorithms resolve through :data:`~repro.core.registry.DISCOVERY_ALGORITHMS`;
a third-party algorithm registered there is immediately servable by the
engine with full memoization (though without the clique-group reuse).
"""

from __future__ import annotations

import logging
from typing import Dict, Iterable, List, Optional, Tuple

from .. import kernel, plan
from ..core.apriori import (
    _registered_apriori as _builtin_apriori_runner,
    qualifying_subsets,
)
from ..core.brute_force import brute_force_discover as _builtin_brute_force
from ..core.candidates import discover_among, eligible_key_types
from ..core.constraints import (
    DistanceConstraint,
    SizeConstraint,
    validate_constraints,
)
from ..core.discovery import make_context
from ..core.preview import DiscoveryResult
from ..core.registry import AlgorithmSpec, resolve_algorithm
from ..exceptions import InfeasiblePreviewError
from ..kernel.base import Subsets
from ..model.entity_graph import EntityGraph
from ..model.mutation_log import MutationDelta
from ..model.schema_graph import SchemaGraph
from ..parallel import ShardedExecutor
from ..scoring.preview_score import ScoringContext
from .query import PreviewQuery

logger = logging.getLogger(__name__)


class PreviewEngine:
    """Cache-aware preview query engine over one dataset.

    Parameters
    ----------
    data:
        An :class:`EntityGraph`, :class:`SchemaGraph` or
        :class:`ScoringContext`.  An entity graph is *live*: the engine
        follows its mutation log, so an answer always reflects the graph
        as it stands when asked, whoever wrote to it.  A schema graph or
        a prebuilt context is static.
    key_scorer, nonkey_scorer:
        Scoring measure names; ignored when ``data`` is a prebuilt
        context.

    Examples
    --------
    Build a tiny graph, keep one engine, and watch the second identical
    query come out of the memo:

    >>> from repro import EntityGraphBuilder, PreviewEngine
    >>> b = EntityGraphBuilder("tiny")
    >>> _ = b.entity("Men in Black", "FILM").entity("Will Smith", "FILM ACTOR")
    >>> _ = b.relate("Will Smith", "Actor", "Men in Black")
    >>> engine = PreviewEngine(b.build())
    >>> engine.query(k=1, n=1).preview.table_count
    1
    >>> _ = engine.query(k=1, n=1)
    >>> info = engine.cache_info()
    >>> (info["misses"], info["hits"])
    (1, 1)
    """

    def __init__(
        self,
        data: object,
        key_scorer: str = "coverage",
        nonkey_scorer: str = "coverage",
    ) -> None:
        self._key_scorer = key_scorer
        self._nonkey_scorer = nonkey_scorer
        #: The live graph whose mutation log this engine follows (None
        #: for static data).
        self._graph: Optional[EntityGraph] = (
            data if isinstance(data, EntityGraph) else None
        )
        #: The scoring context and the schema graph it scores.  On a
        #: live graph a write may drop the context, or both; the next
        #: read rebuilds what is missing.
        self._context: Optional[ScoringContext] = make_context(
            data, key_scorer=key_scorer, nonkey_scorer=nonkey_scorer
        )
        self._schema: Optional[SchemaGraph] = self._context.schema
        #: (spec, cache_key) -> DiscoveryResult (None = memoized
        #: infeasibility).  Keying by the resolved AlgorithmSpec means a
        #: re-registered algorithm never serves a stale predecessor's
        #: results from a live engine.
        self._results: Dict[Tuple, Optional[DiscoveryResult]] = {}
        #: (k, d, mode) -> qualifying key subsets, in the Apriori clique
        #: enumeration order (so score ties resolve identically).
        self._subsets: Dict[Tuple, Subsets] = {}
        #: The cursor: the generation all of the state above reflects.
        self._cache_generation = self.generation
        self._hits = 0
        self._misses = 0
        self._invalidations = 0
        self._retained = 0
        self._evicted = 0
        #: Batched-kernel dispatches made on behalf of this engine's
        #: queries (captured as deltas of the calling thread's kernel
        #: counters around each execution, so nested discovery calls and
        #: parent-side sharded dispatches are attributed here, and work
        #: on other threads is not).
        self._kernel_batches = 0
        self._kernel_subsets = 0
        #: Planner decisions made on behalf of this engine's queries
        #: (deltas of the calling thread's counters, the same
        #: attribution scheme as the kernel counters above).
        self._plan_decisions: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """The live graph's mutation counter (0 for static data)."""
        return 0 if self._graph is None else self._graph.generation

    @property
    def context(self) -> ScoringContext:
        """The current-generation scoring context."""
        self._sync_generation()
        if self._context is None:
            if self._schema is None:
                self._context = make_context(
                    self._graph, self._key_scorer, self._nonkey_scorer
                )
                self._schema = self._context.schema
            else:
                self._context = ScoringContext(
                    self._schema,
                    self._graph,
                    key_scorer=self._key_scorer,
                    nonkey_scorer=self._nonkey_scorer,
                )
        return self._context

    @property
    def schema(self) -> SchemaGraph:
        """The current-generation schema graph the context scores."""
        return self.context.schema

    def invalidate(self) -> None:
        """Drop every cached result and clique group (full reset).

        On a live graph the schema graph and the scoring context go
        too; the next read derives them from the graph again.
        """
        if self._graph is not None:
            self._schema = self._context = None
        self._evicted += len(self._results)
        self._results.clear()
        self._subsets.clear()
        self._invalidations += 1

    def cache_info(self) -> Dict[str, object]:
        """Hit/miss/size counters (for tests, benches and ops).

        Synchronizes with the live graph first, so a mutation is
        reflected here (fresh generation, dropped caches) even before
        the next query observes it.  ``retained``/``evicted`` count memo
        entries kept vs. dropped across all generation changes so far:
        only a no-op delta keeps entries, and any other write drops
        every one.  ``invalidations`` counts the *full* cache drops
        only, the ones that drop the clique groups too.
        ``profile_groups`` counts the cached ``(k, d, mode)``
        qualifying-subset groups: the pruning state every tight/diverse
        point of a group shares, whatever its ``n``.  (The name dates
        from when sweeps also cached per-subset allocation profiles;
        benchmark records read it under this name.)  ``kernel_backend``
        names the active scoring-kernel backend and
        ``kernel_batches``/``kernel_subsets`` count the batched kernel
        dispatches (and subsets they scored) made on behalf of this
        engine.  ``plan_mode`` names the effective execution-planner
        mode and ``plan_decisions`` breaks down the planner decisions
        (serial/sharded, and single-core vetoes) attributed to this
        engine's queries (see :mod:`repro.plan`).
        """
        self._sync_generation()
        return {
            "hits": self._hits,
            "misses": self._misses,
            "results": len(self._results),
            "profile_groups": len(self._subsets),
            "generation": self._cache_generation,
            "invalidations": self._invalidations,
            "retained": self._retained,
            "evicted": self._evicted,
            "kernel_backend": kernel.backend_name(),
            "kernel_batches": self._kernel_batches,
            "kernel_subsets": self._kernel_subsets,
            "plan_mode": plan.plan_mode(),
            "plan_decisions": dict(self._plan_decisions),
        }

    def _sync_generation(self) -> None:
        """Fold the mutation log since the cursor into every cache."""
        generation = self.generation
        if generation == self._cache_generation:
            return
        delta = self._graph.mutation_log.dirty_since(self._cache_generation)
        if not delta.patchable:
            self.invalidate()
        elif delta.empty:
            self._retained += len(self._results)
        else:
            self._patch(delta)
        self._cache_generation = generation

    def _patch(self, delta: MutationDelta) -> None:
        """Carry a non-structural delta into the schema, context and memo.

        Such a delta only raises counts of types and relationship types
        the schema already holds, so copying them from the graph moves
        no vertex, edge or order, and the schema keeps its distance
        oracle.  (A structural delta re-derives the schema in the
        graph's first-seen order instead: folding in its key types, a
        set, would add new types in hash order and move tie-breaks.)
        Clique groups read only eligibility and distances, which this
        write cannot move, so they stay.
        """
        graph, schema = self._graph, self._schema
        if schema is not None:
            for type_name in delta.key_types:
                schema.add_entity_type(
                    type_name, entity_count=graph.type_count(type_name)
                )
            for rel_type in delta.rel_types:
                schema.add_relationship_type(
                    rel_type,
                    edge_count=graph.relationship_count(rel_type)
                    - schema.relationship_count(rel_type),
                )
        context = self._context
        self._context = (
            context.patched(delta.key_types)
            if context is not None and context.supports_delta
            else None
        )
        self._evicted += len(self._results)
        self._results.clear()

    def verify_against_rescan(self, check_pools: bool = True) -> bool:
        """Cross-check the maintained state against a full rescan.

        Test/debug helper: returns True when the schema graph holds
        exactly the types, relationship types and counts of one freshly
        derived from the live graph, in the same order, *and* (with
        ``check_pools``, the default) when the context's
        :class:`~repro.scoring.CandidatePool` — the delta-patched flat
        arrays every discovery algorithm reads — equals one built from
        scratch over the rescanned schema: same type order, key scores,
        sorted candidate lists with raw/weighted scores, prefix-sum
        tables and eligible set.  Floats are compared exactly, not
        approximately: the delta path promises bit-identical state.
        Static data maintains nothing, so it always passes.
        """
        if self._graph is None:
            return True
        fresh = SchemaGraph.from_entity_graph(self._graph)
        if _schema_counts(self.schema) != _schema_counts(fresh):
            return False
        if not check_pools:
            return True
        rebuilt = ScoringContext(
            fresh,
            self._graph,
            key_scorer=self._key_scorer,
            nonkey_scorer=self._nonkey_scorer,
        )
        # Frozen-dataclass equality covers every field (type order, key
        # scores, sorted candidates, weighted scores, prefix tables,
        # index, eligible) — including any added later.
        return self.context.candidate_pool() == rebuilt.candidate_pool()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        k: int,
        n: int,
        d: Optional[int] = None,
        mode: str = "tight",
        algorithm: str = "auto",
        jobs: int = 1,
    ) -> DiscoveryResult:
        """Answer one preview query (same contract as ``discover_preview``).

        Keyword convenience over :meth:`run`: builds the
        :class:`PreviewQuery` from ``k``/``n``/``d``/``mode``/
        ``algorithm`` and returns its :class:`DiscoveryResult`; raises
        :class:`~repro.exceptions.InfeasiblePreviewError` when no
        preview satisfies the constraints.
        """
        return self.run(
            PreviewQuery(k=k, n=n, d=d, mode=mode, algorithm=algorithm), jobs=jobs
        )

    def run(
        self,
        query: PreviewQuery,
        jobs: int = 1,
        executor: Optional[ShardedExecutor] = None,
    ) -> DiscoveryResult:
        """Answer a :class:`PreviewQuery`; raises when infeasible.

        Parameters
        ----------
        query:
            The preview request (same contract as ``discover_preview``).
        jobs:
            Worker processes for the qualifying-subset evaluation of the
            built-in Apriori and brute-force algorithms (0 = all CPU
            cores), bit-identical to a serial run; other algorithms run
            serially regardless.  Memoization ignores ``jobs``, since it
            never changes the answer.
        executor:
            An already-running :class:`~repro.parallel.ShardedExecutor`
            to shard on instead of spinning up (and tearing down) a
            per-call pool — the serving layer keeps one executor alive
            per dataset across requests.  Overrides ``jobs``.

        Returns
        -------
        DiscoveryResult
            The optimal preview with its score and provenance.

        Raises
        ------
        InfeasiblePreviewError
            When no preview satisfies the constraints.
        DiscoveryError
            When the query's constraints are malformed.
        """
        if executor is None and jobs != 1:
            with ShardedExecutor(jobs) as owned:
                result = self._run_cached(query, owned)
        else:
            result = self._run_cached(query, executor)
        if result is None:
            raise InfeasiblePreviewError(
                f"no preview satisfies the constraints ({query.describe()})"
            )
        return result

    def sweep(
        self,
        queries: Iterable[PreviewQuery],
        skip_infeasible: bool = False,
        jobs: int = 1,
        executor: Optional[ShardedExecutor] = None,
    ) -> List[Optional[DiscoveryResult]]:
        """Answer a batch of queries, sharing state across points.

        Every point runs exactly as :meth:`run` would: points of one
        ``(k, d, mode)`` group share its cached clique enumeration, and
        each tight/diverse point is one batched kernel call over that
        group plus one allocation profile for its winner.  What the
        batch adds is a single worker pool for all of its points.

        Parameters
        ----------
        queries:
            The batch, answered in input order (deterministic
            tie-breaks); an empty batch returns an empty list explicitly
            rather than silently reporting a vacuous sweep.
        skip_infeasible:
            When true, infeasible points yield None in the result list
            instead of raising.
        jobs:
            With ``jobs > 1`` one worker pool serves the whole batch:
            each point whose group the planner deems large enough is
            scored in parallel shards (and brute-force points dispatch
            there too); smaller groups score inline.
        executor:
            An already-running :class:`~repro.parallel.ShardedExecutor`
            to use for the whole batch instead of creating one;
            overrides ``jobs``.  Lets a long-lived serving process
            amortize worker startup across *batches*, not just points.

        Returns
        -------
        list of DiscoveryResult or None
            Positionally aligned with ``queries`` and identical to
            running each query alone (which in turn matches per-call
            ``discover_preview``).

        Raises
        ------
        InfeasiblePreviewError
            On the first infeasible point, unless ``skip_infeasible``.
        """
        queries = list(queries)
        if not queries:
            logger.warning(
                "PreviewEngine.sweep received zero queries; returning [] "
                "(was a grid axis empty or a generator already exhausted?)"
            )
            return []
        if executor is None and jobs != 1:
            # One pool amortized over the whole batch: every sharded
            # point reuses the same workers.
            with ShardedExecutor(jobs) as owned:
                return self._sweep_batch(queries, skip_infeasible, owned)
        return self._sweep_batch(queries, skip_infeasible, executor)

    def _sweep_batch(
        self,
        queries: List[PreviewQuery],
        skip_infeasible: bool,
        executor: Optional[ShardedExecutor],
    ) -> List[Optional[DiscoveryResult]]:
        results: List[Optional[DiscoveryResult]] = []
        for query in queries:
            result = self._run_cached(query, executor)
            if result is None and not skip_infeasible:
                raise InfeasiblePreviewError(
                    f"no preview satisfies the constraints ({query.describe()})"
                )
            results.append(result)
        return results

    def _accumulate_plan_decisions(self, before: Dict[str, int]) -> None:
        """Fold the thread's planner-counter delta since ``before`` in."""
        for key, value in plan.thread_decision_counts().items():
            delta = value - before.get(key, 0)
            if delta:
                self._plan_decisions[key] = (
                    self._plan_decisions.get(key, 0) + delta
                )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run_cached(
        self, query: PreviewQuery, executor: Optional[ShardedExecutor]
    ) -> Optional[DiscoveryResult]:
        self._sync_generation()
        # Validate the constraints before touching any counter or memo
        # state: a malformed query (k=0, negative d, bogus mode) raises
        # here and leaves hit/miss statistics exactly as they were.
        query.size()
        query.distance()
        spec: AlgorithmSpec = resolve_algorithm(query.algorithm, query.shape())
        cache_key = (spec, query.cache_key())
        if cache_key in self._results:
            self._hits += 1
            return self._results[cache_key]
        # Count the miss only once the execution produced an answer
        # (feasible or memoized-infeasible); an algorithm that raises
        # mid-flight must not skew the statistics of retried queries.
        before = kernel.thread_kernel_stats()
        plan_before = plan.thread_decision_counts()
        result = self._execute(spec, query, executor)
        after = kernel.thread_kernel_stats()
        self._accumulate_plan_decisions(plan_before)
        self._kernel_batches += after["batches"] - before["batches"]
        self._kernel_subsets += after["subsets"] - before["subsets"]
        self._misses += 1
        self._results[cache_key] = result
        return result

    def _execute(
        self,
        spec: AlgorithmSpec,
        query: PreviewQuery,
        executor: Optional[ShardedExecutor],
    ) -> Optional[DiscoveryResult]:
        context = self.context
        size = query.size()
        distance = query.distance()
        # The clique-group fast path stands in for the *built-in*
        # Apriori only; a shadowing re-registration under the same name
        # must win.  It answers a point exactly as ``apriori_discover``
        # would, from the group's cached qualifying subsets.
        if distance is not None and spec.runner is _builtin_apriori_runner:
            validate_constraints(size, distance, eligible_key_types(context))
            subsets = self._group_subsets(context, size, distance)
            return discover_among(
                context, size, [subsets], "apriori[apriori]", executor
            )
        if executor is not None and spec.runner is _builtin_brute_force:
            return _builtin_brute_force(
                context, size, distance, executor=executor
            )
        return spec.run(context, size, distance)

    # -- Apriori clique-group fast path -------------------------------
    def _group_subsets(
        self,
        context: ScoringContext,
        size: SizeConstraint,
        distance: DistanceConstraint,
    ) -> Subsets:
        """The qualifying key subsets of the ``(k, d, mode)`` group.

        Enumerated once, and kept until a structural mutation, by
        :func:`repro.core.apriori.qualifying_subsets`, the same call
        ``apriori_discover`` makes, so score ties resolve identically.
        """
        group_key = (size.k, distance.d, distance.mode.value)
        subsets = self._subsets.get(group_key)
        if subsets is None:
            subsets = qualifying_subsets(context, size, distance)
            self._subsets[group_key] = subsets
        return subsets


def _schema_counts(schema: SchemaGraph):
    """Every type and relationship type with its count, in schema order."""
    return (
        [(t, schema.entity_count(t)) for t in schema.entity_types()],
        [(r, schema.relationship_count(r)) for r in schema.relationship_types()],
    )

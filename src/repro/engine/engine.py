"""The preview engine: registry-dispatched, cache-aware query execution.

:class:`PreviewEngine` hoists everything the per-call
:func:`~repro.core.discovery.discover_preview` facade cannot share out of
the request path, the way multi-query database engines hoist common
sub-plans out of per-query execution:

* **Scoring state** — one :class:`~repro.scoring.ScoringContext` (and its
  :class:`~repro.scoring.CandidatePool` of sorted Γτ arrays and prefix
  sums) serves every query;
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
* **Invalidation** — when constructed over a generation-tracked source
  (:class:`~repro.ext.incremental.IncrementalEntityGraph`), the caches
  are synchronized with the source's ``generation`` counter.  A source
  that additionally exposes the mutation changelog (``dirty_since``)
  gets *type-scoped* invalidation: every memo entry is keyed with the
  key-type dependency set of its :class:`DiscoveryResult`, and a
  non-structural mutation evicts only the entries whose dependency set
  intersects the dirty types — untouched sweep points survive the
  mutation, and qualifying-subset enumerations are kept outright (they
  depend only on schema structure).  Structural mutations (new
  entity/relationship types), unknown baselines and non-delta-capable
  scorer pairs (random walk, entropy) fall back to the full cache drop,
  so the fast path is never trusted beyond what the scorers guarantee.

Algorithms resolve through :data:`~repro.core.registry.DISCOVERY_ALGORITHMS`;
a third-party algorithm registered there is immediately servable by the
engine with full memoization (though without the clique-group reuse).
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Tuple

from .. import kernel, plan
from ..core.apriori import (
    _registered_apriori as _builtin_apriori_runner,
    qualifying_subsets,
)
from ..core.branch_bound import branch_and_bound_discover as _builtin_branch_bound
from ..core.brute_force import brute_force_discover as _builtin_brute_force
from ..core.dynamic_prog import (
    _registered_dynamic_programming as _builtin_dynamic_programming,
)
from ..core.candidates import build_allocation_profile, eligible_key_types
from ..core.constraints import (
    DistanceConstraint,
    SizeConstraint,
    validate_constraints,
)
from ..core.discovery import make_context
from ..core.preview import DiscoveryResult
from ..core.registry import AlgorithmSpec, resolve_algorithm
from ..exceptions import InfeasiblePreviewError
from ..kernel.base import Subsets, subset_members
from ..model.ids import TypeId
from ..scoring.base import scorer_pair_supports_delta
from ..scoring.preview_score import ScoringContext
from .query import PreviewQuery

if TYPE_CHECKING:  # pragma: no cover - typing only, keeps jobs=1 lean
    from ..parallel import ShardedExecutor

logger = logging.getLogger(__name__)

#: Built-in runners that provably read only *eligible* types' scores
#: (their enumerations all start from ``eligible_key_types``); their
#: results therefore depend on the eligible set, not every type.
_ELIGIBLE_ONLY_RUNNERS = (
    _builtin_apriori_runner,
    _builtin_branch_bound,
    _builtin_brute_force,
    _builtin_dynamic_programming,
)


class PreviewEngine:
    """Cache-aware preview query engine over one dataset.

    Parameters
    ----------
    data:
        An :class:`EntityGraph`, :class:`SchemaGraph`,
        :class:`ScoringContext`, or a *generation-tracked source* — any
        object exposing a ``generation`` attribute and a
        ``context(key_scorer, nonkey_scorer)`` method, such as
        :class:`~repro.ext.incremental.IncrementalEntityGraph`.  With a
        tracked source, every mutation of the underlying graph
        invalidates the engine's caches automatically.
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
        if hasattr(data, "generation") and callable(getattr(data, "context", None)):
            self._source = data
            self._static_context: Optional[ScoringContext] = None
        else:
            self._source = None
            self._static_context = make_context(
                data, key_scorer=key_scorer, nonkey_scorer=nonkey_scorer
            )
        #: (spec, cache_key) -> DiscoveryResult (None = memoized
        #: infeasibility).  Keying by the resolved AlgorithmSpec means a
        #: re-registered algorithm never serves a stale predecessor's
        #: results from a live engine.
        self._results: Dict[Tuple, Optional[DiscoveryResult]] = {}
        #: Memo key -> the key types its result depends on; a mutation
        #: dirtying a disjoint set provably cannot change the result, so
        #: the entry survives type-scoped invalidation.
        self._result_deps: Dict[Tuple, FrozenSet[TypeId]] = {}
        #: (k, d, mode) -> qualifying key subsets, in the Apriori clique
        #: enumeration order (so score ties resolve identically).
        self._subsets: Dict[Tuple, Subsets] = {}
        #: (k, d, mode) -> union of the group's subset types (the
        #: dependency set of every result answered from that group),
        #: filled on first read, which only dependency tracking makes.
        self._group_deps: Dict[Tuple, FrozenSet[TypeId]] = {}
        #: Cached worker-pool snapshot + the types dirtied since it was
        #: projected (refreshed in O(delta) on the next parallel build).
        self._snapshot = None
        self._snapshot_dirty: set = set()
        #: Whether this engine's scorer pair allows type-scoped eviction
        #: (both scorers must declare ``supports_delta``); resolved once
        #: from the scorer registries, False for unknown names.
        self._delta_capable = scorer_pair_supports_delta(key_scorer, nonkey_scorer)
        #: Dependency sets are only worth recording when a type-scoped
        #: eviction can ever consult them: a changelog-bearing source
        #: plus a delta-capable scorer pair.
        self._track_deps = bool(
            self._delta_capable
            and self._source is not None
            and callable(getattr(self._source, "dirty_since", None))
        )
        #: Interned "eligible set" dependency value (one per pool
        #: lifetime — eligibility only changes structurally, and a
        #: structural change fully invalidates).
        self._eligible_deps: Optional[FrozenSet[TypeId]] = None
        self._cache_generation = self.generation
        self._hits = 0
        self._misses = 0
        self._invalidations = 0
        self._retained = 0
        self._evicted = 0
        #: Batched-kernel dispatches made on behalf of this engine's
        #: queries (captured as deltas of the process-wide kernel
        #: counters around each execution, so nested discovery calls and
        #: parent-side sharded dispatches are all attributed here).
        self._kernel_batches = 0
        self._kernel_subsets = 0
        #: Planner decisions made on behalf of this engine's queries
        #: (deltas of the process-wide counters, the same attribution
        #: scheme as the kernel counters above).
        self._plan_decisions: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """The source's mutation counter (0 for static data)."""
        if self._source is not None:
            return self._source.generation
        return 0

    @property
    def context(self) -> ScoringContext:
        """The current-generation scoring context."""
        if self._source is not None:
            return self._source.context(self._key_scorer, self._nonkey_scorer)
        return self._static_context

    def invalidate(self) -> None:
        """Drop every cached result and clique group (full reset)."""
        self._evicted += len(self._results)
        self._results.clear()
        self._result_deps.clear()
        self._subsets.clear()
        self._group_deps.clear()
        self._snapshot = None
        self._snapshot_dirty.clear()
        self._eligible_deps = None
        self._invalidations += 1

    def cache_info(self) -> Dict[str, object]:
        """Hit/miss/size counters (for tests, benches and ops).

        Synchronizes with the tracked source first, so a mutation is
        reflected here (fresh generation, dropped caches) even before
        the next query observes it.  ``retained``/``evicted`` count memo
        entries that survived vs. were dropped across all invalidation
        events so far: a full invalidation evicts everything, while a
        type-scoped one (mutation-changelog sources, delta-capable
        scorers) evicts only entries whose dependency set intersects the
        dirty types.  ``invalidations`` counts the *full* cache drops
        only.  ``profile_groups`` counts the cached ``(k, d, mode)``
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
        generation = self.generation
        if generation == self._cache_generation:
            return
        delta = self._dirty_delta(self._cache_generation)
        if delta is None:
            self.invalidate()
        elif not delta.empty:
            self._evict_dirty(frozenset(delta.key_types))
        # An empty delta (pure no-op mutations) retains every cache.
        self._cache_generation = generation

    def _dirty_delta(self, since: int):
        """The non-structural dirty delta since ``since``, else None.

        None — meaning "fall back to a full invalidation" — whenever the
        source does not expose the mutation changelog, the scorer pair
        is not delta-capable, the baseline predates the changelog's
        retention window, or the delta contains a structural mutation.
        """
        if self._source is None or not self._delta_capable:
            return None
        dirty_since = getattr(self._source, "dirty_since", None)
        if dirty_since is None:
            return None
        delta = dirty_since(since)
        if delta.structural or delta.full:
            return None
        return delta

    def _evict_dirty(self, dirty: FrozenSet[TypeId]) -> None:
        """Type-scoped invalidation for one non-structural dirty set.

        Memo entries whose dependency set intersects ``dirty`` are
        dropped; the rest — results over provably untouched scores —
        survive.  Qualifying-subset enumerations depend only on schema
        structure and are kept outright; the worker snapshot
        accumulates the dirty set for its next O(delta) refresh.
        """
        stale_keys = [
            key for key, deps in self._result_deps.items() if deps & dirty
        ]
        for key in stale_keys:
            del self._results[key]
            del self._result_deps[key]
        self._evicted += len(stale_keys)
        self._retained += len(self._results)
        if self._snapshot is not None:
            self._snapshot_dirty.update(dirty)

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
        executor: Optional["ShardedExecutor"] = None,
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
        result = self._run_cached(query, jobs=jobs, executor=executor)
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
        executor: Optional["ShardedExecutor"] = None,
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
            from ..parallel import ShardedExecutor

            # One pool amortized over the whole batch: every sharded
            # point reuses the same workers.
            with ShardedExecutor(jobs) as owned:
                return self._sweep_batch(queries, skip_infeasible, owned)
        return self._sweep_batch(queries, skip_infeasible, executor)

    def _sweep_batch(
        self,
        queries: List[PreviewQuery],
        skip_infeasible: bool,
        executor: Optional["ShardedExecutor"],
    ) -> List[Optional[DiscoveryResult]]:
        results: List[Optional[DiscoveryResult]] = []
        for query in queries:
            result = self._run_cached(query, executor=executor)
            if result is None and not skip_infeasible:
                raise InfeasiblePreviewError(
                    f"no preview satisfies the constraints ({query.describe()})"
                )
            results.append(result)
        return results

    def _accumulate_plan_decisions(self, before: Dict[str, int]) -> None:
        """Fold the planner-counter delta since ``before`` into this engine."""
        for key, value in plan.decision_counts().items():
            delta = value - before.get(key, 0)
            if delta:
                self._plan_decisions[key] = (
                    self._plan_decisions.get(key, 0) + delta
                )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run_cached(
        self,
        query: PreviewQuery,
        jobs: int = 1,
        executor: Optional["ShardedExecutor"] = None,
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
        before = kernel.kernel_stats()
        plan_before = plan.decision_counts()
        result = self._execute(spec, query, jobs=jobs, executor=executor)
        after = kernel.kernel_stats()
        self._accumulate_plan_decisions(plan_before)
        self._kernel_batches += after["batches"] - before["batches"]
        self._kernel_subsets += after["subsets"] - before["subsets"]
        self._misses += 1
        self._results[cache_key] = result
        if self._track_deps:
            self._result_deps[cache_key] = self._dependencies(spec, query)
        return result

    def _dependencies(self, spec: AlgorithmSpec, query: PreviewQuery) -> FrozenSet[TypeId]:
        """The key types whose scores this query's result depends on.

        Called after :meth:`_execute`, so fast-path groups are already
        enumerated.  Three tiers, each sound under *non-structural*
        mutations (type universe, ``Γτ`` membership, distances and
        eligibility all fixed):

        * Apriori fast path — the union of the group's qualifying
          subsets: the result is the argmax over those subsets'
          allocations, and each allocation reads only its own types'
          scores;
        * other built-ins — the eligible set: their enumerations draw
          keys from ``eligible_key_types`` and read nothing else;
        * third-party algorithms — every type (they may read anything).
        """
        distance = query.distance()
        if distance is not None and spec.runner is _builtin_apriori_runner:
            group_key = (query.size().k, distance.d, distance.mode.value)
            deps = self._group_deps.get(group_key)
            if deps is None and group_key in self._subsets:
                deps = subset_members(self._subsets[group_key])
                self._group_deps[group_key] = deps
            if deps is not None:
                return deps
        pool = self.context.candidate_pool()
        if spec.runner in _ELIGIBLE_ONLY_RUNNERS:
            if self._eligible_deps is None:
                self._eligible_deps = frozenset(pool.eligible)
            return self._eligible_deps
        return frozenset(pool.types)

    def _execute(
        self,
        spec: AlgorithmSpec,
        query: PreviewQuery,
        jobs: int = 1,
        executor: Optional["ShardedExecutor"] = None,
    ) -> Optional[DiscoveryResult]:
        context = self.context
        size = query.size()
        distance = query.distance()
        # The clique-group fast path stands in for the *built-in*
        # Apriori only; a shadowing re-registration under the same name
        # must win.
        if distance is not None and spec.runner is _builtin_apriori_runner:
            if executor is not None:
                return self._execute_apriori(
                    context, size, distance, executor=executor
                )
            if jobs != 1:
                from ..parallel import ShardedExecutor

                # Lazily started: a pool only spins up if the planner
                # shards this group.
                with ShardedExecutor(jobs) as owned:
                    return self._execute_apriori(
                        context, size, distance, executor=owned
                    )
            return self._execute_apriori(context, size, distance)
        if (jobs != 1 or executor is not None) and (
            spec.runner is _builtin_brute_force
        ):
            return _builtin_brute_force(
                context, size, distance, jobs=jobs, executor=executor
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

        Enumerated once per generation (kept across non-structural
        mutations) by :func:`repro.core.apriori.qualifying_subsets`, the
        same call ``apriori_discover`` makes, so score ties resolve
        identically.
        """
        group_key = (size.k, distance.d, distance.mode.value)
        subsets = self._subsets.get(group_key)
        if subsets is None:
            subsets = qualifying_subsets(context, size, distance)
            self._subsets[group_key] = subsets
        return subsets

    def _current_snapshot(self, pool):
        """The worker-pool snapshot for ``pool``, refreshed in O(delta).

        Built once, then patched with the types dirtied since the last
        parallel build (see :meth:`~repro.parallel.ScoringSnapshot.refresh`):
        untouched rows keep their already-projected scores, so a
        long-lived executor stays warm across mutations.  Full
        invalidations reset it.
        """
        from ..parallel import ScoringSnapshot

        if self._snapshot is None:
            self._snapshot = ScoringSnapshot.from_pool(pool)
        elif self._snapshot_dirty:
            self._snapshot = self._snapshot.refresh(pool, self._snapshot_dirty)
        self._snapshot_dirty.clear()
        return self._snapshot

    def _execute_apriori(
        self,
        context: ScoringContext,
        size: SizeConstraint,
        distance: DistanceConstraint,
        executor: Optional["ShardedExecutor"] = None,
    ) -> Optional[DiscoveryResult]:
        """Answer one tight/diverse point from the group's cached subsets.

        Produces the same :class:`DiscoveryResult` (preview, score and
        bookkeeping) as :func:`repro.core.apriori.apriori_discover`: one
        batched kernel call scores the whole group at this budget
        (sharded over the executor when the planner says so), and only
        the winner's allocation profile is built.
        """
        validate_constraints(size, distance, eligible_key_types(context))
        subsets = self._group_subsets(context, size, distance)
        if not subsets:
            return None
        extra_cap = size.n - size.k
        pool = context.candidate_pool()
        if executor is not None and kernel.should_shard(
            len(subsets), executor.jobs
        ):
            snapshot = self._current_snapshot(pool)
            best_at = executor.best_allocation(snapshot, subsets, extra_cap)
        else:
            best_at = kernel.best_allocation(pool, subsets, extra_cap)
        if best_at is None:
            return None
        winner = build_allocation_profile(
            pool, subsets[best_at[1]], cap=extra_cap
        )
        if winner is None:  # pragma: no cover - kernel said feasible
            return None
        return DiscoveryResult(
            preview=winner.preview_at(pool, extra_cap),
            score=winner.score_at(extra_cap),
            algorithm="apriori[apriori]",
            key_scorer=context.key_scorer_name,
            nonkey_scorer=context.nonkey_scorer_name,
            candidates_examined=len(subsets),
        )

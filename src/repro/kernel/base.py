"""Backend contract and conformance oracle for the batched scoring kernel.

A kernel backend scores *batches* of key subsets against one candidate
pool instead of running :func:`~repro.core.candidates.build_allocation_profile`
once per subset.  The batched formulation rests on an identity of the
Theorem-3 merge: because every weighted row ``S(τ) × Sτ(γ)`` is sorted
non-increasing and key scores are non-negative, the merge score at extra
budget ``c`` equals

    (sum of each key's top-1 weighted score, in key order)
  + (sum of the ``c`` largest strictly-positive values in the union of
     the per-key weighted tails ``row[1 : c + 1]``, in descending order)

and accumulating those terms sequentially in exactly that order
reproduces the heap-merge float sum bit for bit (equal floats commute
exactly, and the merge stops at the first non-positive pop, which is
the same set as the strictly-positive filter).

Every backend honors the same contract:

* ``lower(source)`` builds backend-private columns from anything that
  exposes ``index`` (TypeId -> row) and ``weighted`` (per-type sorted
  rows) — both :class:`~repro.scoring.CandidatePool` and
  :class:`~repro.parallel.ScoringSnapshot` qualify.
* ``best_allocation(columns, subsets, extra_cap)`` returns the best
  ``(score, subset_index)`` with the serial strict-``>`` tie-break
  (lowest index among equal scores), or None when every subset is
  infeasible (duplicate keys, or a key with an empty candidate list).
* ``batch_scores(columns, subsets, extra_cap)`` returns one
  ``Optional[float]`` per subset (None = infeasible) — the conformance
  surface the property tests diff against :class:`OracleBackend`.
* ``subset_bounds(index, subsets, table_bounds)`` gathers each
  subset's Theorem-3 bound and ``survivors(subsets, bounds, floor)``
  keeps the subsets whose bound reaches a floor: the pruning that
  :func:`~repro.core.candidates.discover_among` runs before it scores.
  The default ``subset_bounds`` returns None, meaning "score unpruned";
  the oracle keeps it.
* ``qualifying_subsets(nodes, oracle, distance, k)`` enumerates the
  k-subsets of ``nodes`` whose pairs all satisfy ``distance`` (Alg. 3's
  first step) in :func:`~repro.graph.cliques.apriori_k_cliques` order,
  so score ties break the same way under every backend.  The default
  *is* that level-wise join; a backend may return any read-only
  sequence of key tuples in the same order that its own scoring reads
  efficiently.

:class:`OracleBackend` *is* the retained per-subset path: it runs the
original heap merge for each subset, so any batched backend can be
checked against it on arbitrary pools.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from ..graph.cliques import k_cliques
from ..model.ids import TypeId

#: A batch of key subsets, each a tuple of entity-type ids.
Subsets = Sequence[Tuple[TypeId, ...]]
#: ``(score, subset_index)`` of a batch winner, or None when none is feasible.
BestAllocation = Optional[Tuple[float, int]]

#: Rows per kernel invocation when a consumer streams an unbounded subset
#: generator (brute force) or a backend bounds its working set (numpy).
BATCH_SIZE = 16384

_STATS_LOCK = threading.Lock()
_BATCHES = 0
_SUBSETS = 0


def record_batch(subset_count: int) -> None:
    """Count one batched kernel dispatch of ``subset_count`` subsets.

    Called at consumer dispatch sites (serial kernel calls and the
    parent side of sharded dispatches), not inside the backends, so
    worker processes and direct backend probes never skew the totals.
    """
    global _BATCHES, _SUBSETS
    with _STATS_LOCK:
        _BATCHES += 1
        _SUBSETS += subset_count


def kernel_stats() -> Dict[str, int]:
    """Cumulative ``{"batches", "subsets"}`` counters for this process."""
    with _STATS_LOCK:
        return {"batches": _BATCHES, "subsets": _SUBSETS}


def reset_kernel_stats() -> None:
    """Zero the cumulative counters (benchmarks isolate legs with this)."""
    global _BATCHES, _SUBSETS
    with _STATS_LOCK:
        _BATCHES = 0
        _SUBSETS = 0


class KernelBackend:
    """Shared surface of every kernel backend (see module docstring)."""

    #: Registry name, also reported by ``PreviewEngine.cache_info()``.
    name = "abstract"

    #: Smallest batch, in qualifying subsets, that the ``auto`` planner
    #: shards at ``jobs > 1``.  Each value is the smallest ladder point
    #: where sharding won at least 9 in every 10 pairs on 2 cores in
    #: ``benchmarks/bench_crossover.py`` (recorded in
    #: ``BENCH_crossover.json``).  This default is the stdlib python
    #: backend's; the oracle backend, which has no ladder of its own,
    #: inherits it.
    shard_threshold: int = 16_738

    def lower(self, source) -> object:
        """Backend-private columns for one pool/snapshot ``source``."""
        raise NotImplementedError

    def best_allocation(
        self, columns, subsets: Subsets, extra_cap: int
    ) -> BestAllocation:
        """Batch winner under the serial tie-break, or None."""
        raise NotImplementedError

    def batch_scores(
        self, columns, subsets: Subsets, extra_cap: int
    ) -> List[Optional[float]]:
        """Per-subset scores (None = infeasible), positionally aligned."""
        raise NotImplementedError

    def subset_bounds(
        self,
        index: Dict[TypeId, int],
        subsets: Subsets,
        table_bounds: Sequence[float],
    ) -> Optional[Tuple[object, Optional[int]]]:
        """Each subset's Theorem-3 bound, and the position of the largest.

        ``index`` maps key types to pool rows and ``table_bounds[row]``
        is that row's widest-table score (``-inf`` for a row with no
        candidate); every subset has the same number of keys.  A
        subset's bound sums its keys' entries left to right in key
        order, so it equals
        :func:`~repro.core.candidates.upper_bound_for_keys` bit for bit;
        a subset with a duplicate key or an empty row gets ``-inf``.
        Returns ``(bounds, seed)``: the backend-private bound vector and
        the first position of its largest finite entry (None when every
        bound is ``-inf``).  This default returns None, so the backend
        scores every subset: the oracle stays the unpruned reference.
        """
        return None

    def survivors(self, subsets: Subsets, bounds, floor: float) -> Subsets:
        """The subsets whose bound is at least ``floor``, in their order.

        Order is kept, so a lowest-index tie-break over the survivors
        is the lowest-index tie-break over ``subsets``.
        """
        raise NotImplementedError

    def qualifying_subsets(
        self, nodes: Sequence[TypeId], oracle, distance, k: int
    ) -> Subsets:
        """k-subsets of ``nodes`` whose every pair satisfies ``distance``.

        ``oracle`` is the schema's
        :class:`~repro.graph.distance.DistanceOracle` and ``distance`` a
        :class:`~repro.core.constraints.DistanceConstraint`.  The
        default runs the paper's level-wise join over per-pair checks
        and returns a list of tuples.
        """
        return k_cliques(nodes, lambda a, b: distance.pair_ok(oracle, a, b), k)


class OracleBackend(KernelBackend):
    """The per-subset reference path, wrapped in the batch interface.

    Runs the original heap merge once per subset — no columnar tricks —
    so its answers define bit-identity for the batched backends.
    """

    name = "oracle"

    def lower(self, source):
        # build_allocation_profile reads index/weighted/attrs directly;
        # both pool and snapshot already expose them.
        """Identity lowering: the oracle reads source columns directly."""
        return source

    def best_allocation(self, columns, subsets, extra_cap):
        """Best allocation per subset via the retained per-subset path."""
        from ..core.candidates import build_allocation_profile

        best_score = float("-inf")
        best_at = -1
        for at, keys in enumerate(subsets):
            if len(set(keys)) != len(keys):
                continue
            profile = build_allocation_profile(columns, keys, cap=extra_cap)
            if profile is None:
                continue
            score = profile.score_at(extra_cap)
            if score > best_score:
                best_score = score
                best_at = at
        if best_at < 0:
            return None
        return best_score, best_at

    def batch_scores(self, columns, subsets, extra_cap):
        """Score each subset via the retained per-subset path."""
        from ..core.candidates import build_allocation_profile

        scores: List[Optional[float]] = []
        for keys in subsets:
            if len(set(keys)) != len(keys):
                scores.append(None)
                continue
            profile = build_allocation_profile(columns, keys, cap=extra_cap)
            scores.append(
                None if profile is None else profile.score_at(extra_cap)
            )
        return scores

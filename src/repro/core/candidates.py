"""Candidate bookkeeping shared by all discovery algorithms.

Implements the consequence of Theorem 3: in an optimal preview, a table
with key ``τ`` and ``m`` non-key attributes uses exactly the top-``m``
entries of the sorted candidate list ``Γτ``.  Given a fixed set of key
attributes, the best attribute allocation is therefore:

1. give every table its top-1 candidate (each table needs one);
2. fill the remaining ``n - k`` slots with the globally best remaining
   candidates ranked by weighted score ``S(τ) × Sτ(γ)`` — a k-way merge
   over the per-type sorted lists (Alg. 1 lines 5-14).

All reads go through the context's :class:`~repro.scoring.CandidatePool`
— flat arrays of sorted candidates, weighted scores and prefix sums
computed once per context — so repeated allocations (the hot loop of the
brute-force/Apriori/B&B algorithms) never rebuild dictionaries or sorts.

Attributes with zero (or negative-rounded-to-zero) marginal contribution
beyond the mandatory first are skipped: Definition 2 only upper-bounds the
attribute count, and a zero-score attribute never increases the score, so
dropping it leaves the preview optimal while keeping it minimal.
"""

from __future__ import annotations

import heapq
from functools import reduce
from operator import add
from typing import Iterable, List, Optional, Sequence, Tuple

from .. import kernel, plan
from ..exceptions import UnknownTypeError
from ..kernel.base import Subsets
from ..model.ids import TypeId
from ..scoring.candidate_pool import CandidatePool
from ..scoring.preview_score import ScoringContext
from .constraints import SizeConstraint
from .preview import DiscoveryResult, Preview, PreviewTable


def eligible_key_types(context: ScoringContext) -> List[TypeId]:
    """Entity types that can key a table (non-empty candidate list)."""
    return list(context.candidate_pool().eligible)


class AllocationProfile:
    """The k-way-merge pick sequence for one fixed key subset.

    ``picks[j]`` is the ``j``-th merge-filled candidate as
    ``(key_pos, rank)`` and ``cum[j]`` the preview score after taking
    ``j`` extra candidates beyond the mandatory top-1 per table
    (``cum[0]`` is the top-1-only score).  ``cap`` records the bound the
    profile was built with (None = run to exhaustion): reads beyond a
    finite ``cap`` would silently under-allocate, so callers read at
    most the budget they built for.  Prefix reads reproduce the
    incremental allocation bit-for-bit because floats accumulate in pop
    order.
    """

    __slots__ = ("keys", "indices", "picks", "cum", "cap")

    def __init__(
        self,
        keys: Tuple[TypeId, ...],
        indices: Tuple[int, ...],
        picks: List[Tuple[int, int]],
        cum: List[float],
        cap: Optional[int],
    ) -> None:
        self.keys = keys
        self.indices = indices
        self.picks = picks
        self.cum = cum
        self.cap = cap

    def score_at(self, extra_cap: int) -> float:
        """Preview score with at most ``extra_cap`` merge-filled slots."""
        return self.cum[min(extra_cap, len(self.picks))]

    def preview_at(self, pool: CandidatePool, extra_cap: int) -> Preview:
        """Materialize the preview for one attribute budget."""
        counts = [1] * len(self.keys)
        for key_pos, _rank in self.picks[: min(extra_cap, len(self.picks))]:
            counts[key_pos] += 1
        return Preview(
            tables=tuple(
                PreviewTable(key=key, nonkey=pool.attrs[type_index][:count])
                for key, type_index, count in zip(self.keys, self.indices, counts)
            )
        )


def build_allocation_profile(
    pool: CandidatePool,
    keys: Sequence[TypeId],
    cap: Optional[int] = None,
) -> Optional[AllocationProfile]:
    """Run the Theorem-3 merge for ``keys``, recording the pick sequence.

    Mandatory top-1 per table (Alg. 1 line 8), then merge-fill by
    weighted score (lines 11-14) until ``cap`` extra picks (None = until
    the heap runs dry or hits a zero-score candidate).  Returns None when
    some key has no candidate attribute; raises
    :class:`~repro.exceptions.UnknownTypeError` for unknown types.
    """
    indices: List[int] = []
    for key in keys:
        try:
            type_index = pool.index[key]
        except KeyError:
            raise UnknownTypeError(key) from None
        if not pool.attrs[type_index]:
            return None
        indices.append(type_index)

    base = 0.0
    heap: List[Tuple[float, int, int]] = []  # (-weighted, key_pos, rank)
    for key_pos, type_index in enumerate(indices):
        weighted_row = pool.weighted[type_index]
        base += weighted_row[0]
        if len(weighted_row) > 1:
            heapq.heappush(heap, (-weighted_row[1], key_pos, 1))

    picks: List[Tuple[int, int]] = []
    cum: List[float] = [base]
    capped = False
    while heap:
        if cap is not None and len(picks) >= cap:
            capped = True
            break
        neg_weighted, key_pos, rank = heapq.heappop(heap)
        weighted = -neg_weighted
        if weighted <= 0.0:
            # The heap pops in descending order, so every remaining
            # candidate is also non-improving: the profile is complete
            # for every budget, not just the requested cap.
            break
        picks.append((key_pos, rank))
        cum.append(cum[-1] + weighted)
        next_rank = rank + 1
        weighted_row = pool.weighted[indices[key_pos]]
        if next_rank < len(weighted_row):
            heapq.heappush(heap, (-weighted_row[next_rank], key_pos, next_rank))
    return AllocationProfile(
        tuple(keys), tuple(indices), picks, cum, cap if capped else None
    )


def best_preview_for_keys(
    context: ScoringContext,
    keys: Sequence[TypeId],
    size: SizeConstraint,
) -> Optional[Tuple[Preview, float]]:
    """Best attribute allocation for a fixed key set, or None if infeasible.

    Infeasible means duplicate keys, or some key type with no candidate
    non-key attribute at all (an isolated schema vertex cannot form a
    table).  The returned score is exact under Eq. 1 / Eq. 2.
    """
    if len(set(keys)) != len(keys):
        return None
    pool = context.candidate_pool()
    extra_cap = size.n - size.k
    profile = build_allocation_profile(pool, keys, cap=extra_cap)
    if profile is None:
        return None
    return profile.preview_at(pool, extra_cap), profile.score_at(extra_cap)


def discover_among(
    context: ScoringContext,
    size: SizeConstraint,
    batches: Iterable[Subsets],
    algorithm: str,
    executor=None,
) -> Optional[DiscoveryResult]:
    """ComputePreview on the subsets that can win, keeping the best.

    The shared last step of Alg. 1 and Alg. 3, and the only code that
    takes key subsets to a :class:`DiscoveryResult`.  ``batches`` is an
    iterable of subset batches, read one at a time: Apriori passes its
    one clique group, brute force its combination stream in chunks of
    :data:`repro.kernel.BATCH_SIZE`, so memory never depends on the
    enumeration's length.

    Each batch is bounded first (:func:`upper_bound_for_keys`, gathered
    by the active kernel backend); its first highest-bound subset is
    scored, and the survivors are the subsets whose bound reaches
    :func:`bound_floor` of the better of that score and the best so
    far.  Any subset that scores at or above both survives, so the
    optimum, and every subset tied with it, is never pruned.  The
    ``oracle`` backend bounds nothing and scores every subset.

    The survivors, in their original order, are one dispatch: without
    an ``executor`` one serial :func:`repro.kernel.best_allocation`
    call scores them; with a live :class:`~repro.parallel.ShardedExecutor`
    (the caller keeps ownership), :func:`repro.plan.should_shard`
    decides on the survivor count, once per batch, whether they go to
    the workers instead.  A batch replaces the best only on a strictly
    higher score, and within a batch the lowest-index survivor wins
    among equal scores, so the winner is the first subset in
    enumeration order among those with the top score.  Only it is
    materialized, against the real pool.  Every subset counts as
    examined, by its bound; returns None when every subset is
    infeasible.
    """
    pool = context.candidate_pool()
    extra_cap = size.n - size.k
    best_score = float("-inf")
    best_keys = None
    examined = 0
    for subsets in batches:
        if not subsets:
            continue
        examined += len(subsets)
        survivors = _bound_survivors(pool, size, subsets, best_score)
        if executor is not None and plan.should_shard(
            len(survivors), executor.jobs
        ):
            best = executor.best_allocation(pool, survivors, extra_cap)
        else:
            best = kernel.best_allocation(pool, survivors, extra_cap)
        if best is not None and best[0] > best_score:
            best_score, best_keys = best[0], survivors[best[1]]
    if best_keys is None:
        return None
    allocation = best_preview_for_keys(context, best_keys, size)
    if allocation is None:  # pragma: no cover - kernel said feasible
        return None
    preview, score = allocation
    return DiscoveryResult(
        preview=preview,
        score=score,
        algorithm=algorithm,
        key_scorer=context.key_scorer_name,
        nonkey_scorer=context.nonkey_scorer_name,
        candidates_examined=examined,
    )


def _bound_survivors(
    pool: CandidatePool, size: SizeConstraint, subsets: Subsets, best: float
) -> Subsets:
    """The subsets of ``subsets`` that can still reach ``best``, in their order.

    The per-type bounds come from the pool's prefix tables; the active
    backend gathers them per subset and selects the survivors against
    the better of ``best`` and the score of the batch's first
    highest-bound subset.  Empty when every subset is infeasible; all
    of ``subsets`` when the backend does not prune.
    """
    backend = kernel.active_backend()
    gathered = backend.subset_bounds(pool.index, subsets, table_bounds(pool, size))
    if gathered is None:
        return subsets
    bounds, seed = gathered
    if seed is None:
        return subsets[:0]
    incumbent = kernel.best_allocation(
        pool, subsets[seed : seed + 1], size.n - size.k
    )
    floor = bound_floor(max(best, incumbent[0]), size.n)
    return backend.survivors(subsets, bounds, floor)


def table_bounds(pool: CandidatePool, size: SizeConstraint) -> List[float]:
    """Each pool row's widest-table score: its :func:`upper_bound_for_keys` term.

    ``-inf`` for a row with no candidate, whose type cannot key a table.
    """
    cap = size.max_attributes_per_table
    minus_inf = float("-inf")
    return [
        row[min(cap, len(row) - 1)] if len(row) > 1 else minus_inf
        for row in pool.prefix
    ]


#: Unit roundoff of IEEE-754 binary64 under round-to-nearest.
_UNIT_ROUNDOFF = 2.0**-53


def bound_floor(incumbent: float, n: int) -> float:
    """The smallest computed bound that can still reach ``incumbent``.

    A key set whose computed :func:`upper_bound_for_keys` value lies
    below this floor scores strictly below ``incumbent`` at attribute
    budget ``n``; one that scores at or above it has a bound at or
    above the floor.  The float margin is needed: under entropy scores
    a computed score can exceed its computed bound by a few ulps.

    Derivation.  With unit roundoff ``u = 2**-53`` and
    ``γ(m) = m·u / (1 - m·u)``, a sum of non-negative floats computed
    in any order, each term carrying ``m`` roundings in all, is within
    a factor ``1 ± γ(m)`` of its exact value.  Let ``B*`` and ``S*`` be
    the exact bound and score on the pool's float inputs, ``B`` and
    ``S`` the computed ones.  Scores are non-negative, and each table
    of the Theorem-3 allocation holds a prefix of its candidates no
    longer than ``cap = n - k + 1``, so ``S* <= B*``.

    * Bound side: a table term is one product of the key score with a
      sequential sum of at most ``cap`` scores, and ``k`` terms are
      summed, so ``B >= B*·(1 - γ(cap + k - 1)) = B*·(1 - γ(n))``.
    * Score side: at most ``n`` weighted terms (``k`` top-1 values and
      at most ``n - k`` merged ones), each one product, are summed in
      sequence, so ``S <= S*·(1 + γ(n))``.

    Hence ``S <= B·(1 + γ(n)) / (1 - γ(n))``, and ``S >= incumbent``
    requires ``B >= incumbent·(1 - γ(n)) / (1 + γ(n))``, which is at
    least ``incumbent·(1 - 2γ(n))``.  The extra ``3u`` in the margin
    absorbs the two roundings of computing the floor itself.  The
    branch-and-bound search sums the same ``k`` table terms in another
    order, so the same floor holds for its bounds.
    """
    return incumbent * (1.0 - sum_margin(n))


def sum_margin(n: int) -> float:
    """``2γ(n) + 3u``: the relative margin of :func:`bound_floor`.

    Two sums of at most ``n`` roundings per non-negative term, computed
    in any orders, differ from their exact values by factors within
    ``1 ± γ(n)``; the ``3u`` absorbs the roundings of applying the
    margin.  The concise DP prunes dominated key types against the same
    margin (:func:`repro.core.dynamic_prog.undominated_rows`).
    """
    gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    return 2.0 * gamma + 3.0 * _UNIT_ROUNDOFF


def upper_bound_for_keys(
    context: ScoringContext, keys: Sequence[TypeId], size: SizeConstraint
) -> float:
    """A cheap upper bound on the best score achievable with ``keys``.

    Used for pruning: each table independently takes its best
    ``n - (k - 1)`` candidates, an O(1) prefix-table lookup per key via
    the candidate pool.  In exact arithmetic it never falls below the
    true optimum.  In floating point the computed score can exceed it
    by a few ulps, so prune only against :func:`bound_floor`.
    """
    cap = size.max_attributes_per_table
    # Left to right: builtin ``sum`` compensates float sums since 3.12.
    return reduce(add, (context.top_m_table_score(key, cap) for key in keys), 0)

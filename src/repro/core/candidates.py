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
from typing import List, Optional, Sequence, Tuple

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
    subsets: Subsets,
    algorithm: str,
    executor=None,
) -> Optional[DiscoveryResult]:
    """ComputePreview on every subset of one batch, keeping the best.

    The shared last step of Alg. 1 and Alg. 3, and the only code that
    takes a listed batch of key subsets to a :class:`DiscoveryResult`
    (serial brute force streams its enumeration instead).  Without
    an ``executor`` one serial :func:`repro.kernel.best_allocation` call
    scores the batch against the live candidate pool.  With a live
    :class:`~repro.parallel.ShardedExecutor` (the caller keeps
    ownership), :func:`repro.plan.should_shard` decides whether the
    batch goes to its workers instead.  Either way the winner is the
    lowest-index subset among equal scores, matching the serial
    strict-``>`` scan, and only it is materialized here against the real
    pool, so both routes are bit-identical.  Every subset counts as
    examined; returns None when every subset is infeasible.
    """
    pool = context.candidate_pool()
    extra_cap = size.n - size.k
    if executor is not None and plan.should_shard(len(subsets), executor.jobs):
        best = executor.best_allocation(pool, subsets, extra_cap)
    else:
        best = kernel.best_allocation(pool, subsets, extra_cap)
    if best is None:
        return None
    allocation = best_preview_for_keys(context, subsets[best[1]], size)
    if allocation is None:  # pragma: no cover - kernel said feasible
        return None
    preview, score = allocation
    return DiscoveryResult(
        preview=preview,
        score=score,
        algorithm=algorithm,
        key_scorer=context.key_scorer_name,
        nonkey_scorer=context.nonkey_scorer_name,
        candidates_examined=len(subsets),
    )


def upper_bound_for_keys(
    context: ScoringContext, keys: Sequence[TypeId], size: SizeConstraint
) -> float:
    """A cheap upper bound on the best score achievable with ``keys``.

    Used for pruning: each table independently takes its best
    ``n - (k - 1)`` candidates.  Never below the true optimum — an O(1)
    prefix-table lookup per key via the candidate pool.
    """
    cap = size.max_attributes_per_table
    # Left to right: builtin ``sum`` compensates float sums since 3.12.
    return reduce(add, (context.top_m_table_score(key, cap) for key in keys), 0)

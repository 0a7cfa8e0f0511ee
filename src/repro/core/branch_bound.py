"""Branch-and-bound concise preview discovery (an engineering extension).

A drop-in alternative to the brute force for concise previews: explores
key subsets best-first, pruning any partial subset whose *optimistic
bound* (each remaining slot filled by the best-scoring available table,
every table taking its widest allowed prefix — see
:func:`~repro.core.candidates.upper_bound_for_keys`) cannot beat the
incumbent.  Exact: the bound dominates the true optimum, so pruning never
discards an optimal solution.

The DP (Alg. 2) remains asymptotically better for concise previews; the
value of this variant is (a) it extends to distance constraints where the
DP's substructure breaks, and (b) it quantifies — in
``bench_ablation_branch_bound.py`` — how much of the brute force's work
is avoidable by bounding alone, an ablation on the paper's design choice
of going straight to DP/Apriori.
"""

from __future__ import annotations

import heapq
from functools import reduce
from operator import add
from typing import List, Optional, Tuple

from ..scoring.preview_score import ScoringContext
from .candidates import best_preview_for_keys, eligible_key_types
from .constraints import DistanceConstraint, SizeConstraint, validate_constraints
from .preview import DiscoveryResult
from .registry import register_discovery_algorithm


@register_discovery_algorithm(
    "branch-and-bound",
    shapes=("concise", "tight", "diverse"),
    auto_rank=60,
    notes="exact best-first search; supports every constraint shape",
)
def branch_and_bound_discover(
    context: ScoringContext,
    size: SizeConstraint,
    distance: Optional[DistanceConstraint] = None,
) -> Optional[DiscoveryResult]:
    """Exact best-first discovery with optimistic-bound pruning."""
    key_pool = eligible_key_types(context)
    validate_constraints(size, distance, key_pool)
    oracle = context.schema.distance_oracle() if distance is not None else None
    k = size.k
    cap = size.max_attributes_per_table

    # Per-type optimistic table value: its widest allowed top-m score.
    table_bound = {key: context.top_m_table_score(key, cap) for key in key_pool}
    # Order types by descending bound so greedy completions are tight.
    ordered = sorted(key_pool, key=lambda key: -table_bound[key])
    # Precompute, for each start index, the best (k) bounds in the suffix.
    bounds_from: List[List[float]] = [[] for _ in range(len(ordered) + 1)]
    for i in range(len(ordered) - 1, -1, -1):
        merged = sorted(bounds_from[i + 1] + [table_bound[ordered[i]]], reverse=True)
        bounds_from[i] = merged[:k]

    def optimistic(prefix_bound: float, next_index: int, picked: int) -> float:
        remaining = k - picked
        # Left to right: builtin ``sum`` compensates float sums since 3.12.
        extra = reduce(add, bounds_from[next_index][:remaining], 0)
        if len(bounds_from[next_index]) < remaining:
            return float("-inf")  # not enough types left
        return prefix_bound + extra

    best_score = float("-inf")
    best_preview = None
    examined = 0
    # Heap entries: (-optimistic, next_index, keys tuple, prefix bound).
    heap: List[Tuple[float, int, Tuple[str, ...], float]] = []
    root = optimistic(0.0, 0, 0)
    if root > float("-inf"):
        heapq.heappush(heap, (-root, 0, (), 0.0))
    while heap:
        neg_bound, index, keys, prefix_bound = heapq.heappop(heap)
        if -neg_bound <= best_score:
            break  # best-first: nothing left can improve
        if len(keys) == k:
            examined += 1
            allocation = best_preview_for_keys(context, keys, size)
            if allocation is None:
                continue
            preview, score = allocation
            if score > best_score:
                best_score = score
                best_preview = preview
            continue
        if index >= len(ordered):
            continue
        key = ordered[index]
        # Branch 1: skip ordered[index].
        skip_bound = optimistic(prefix_bound, index + 1, len(keys))
        if skip_bound > best_score:
            heapq.heappush(heap, (-skip_bound, index + 1, keys, prefix_bound))
        # Branch 2: take it (respecting pairwise distance feasibility).
        if distance is not None and any(
            not distance.pair_ok(oracle, key, other) for other in keys
        ):
            continue
        taken = keys + (key,)
        taken_bound = prefix_bound + table_bound[key]
        total_bound = optimistic(taken_bound, index + 1, len(taken))
        if total_bound > best_score:
            heapq.heappush(heap, (-total_bound, index + 1, taken, taken_bound))

    if best_preview is None:
        return None
    return DiscoveryResult(
        preview=best_preview,
        score=best_score,
        algorithm="branch-and-bound",
        key_scorer=context.key_scorer_name,
        nonkey_scorer=context.nonkey_scorer_name,
        candidates_examined=examined,
    )

"""Brute-force optimal preview discovery (Alg. 1).

Enumerates every k-subset of candidate key attributes; for each subset the
attribute allocation follows Theorem 3 (top-1 per table, then the globally
best remaining candidates via a k-way merge — see
:func:`~repro.core.candidates.best_preview_for_keys`).  The distance-
constrained variant additionally rejects subsets with a violating key
pair, exactly as the paper describes ("performing distance check on every
pair of preview tables in each k-subset").

Complexity: ``O(K N log N + C(K, k) (k + n))`` — exponential in ``k``;
this is the baseline the DP and Apriori algorithms are measured against in
Figs. 8 and 9.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from .. import kernel, plan
from ..scoring.preview_score import ScoringContext
from .candidates import best_preview_for_keys, discover_among, eligible_key_types
from .constraints import DistanceConstraint, SizeConstraint, validate_constraints
from .preview import DiscoveryResult
from .registry import register_discovery_algorithm


@register_discovery_algorithm(
    "brute-force",
    shapes=("concise", "tight", "diverse"),
    auto_rank=50,
    notes="exhaustive baseline; supports every constraint shape",
)
def brute_force_discover(
    context: ScoringContext,
    size: SizeConstraint,
    distance: Optional[DistanceConstraint] = None,
    executor=None,
) -> Optional[DiscoveryResult]:
    """Find an optimal (concise/tight/diverse) preview by enumeration.

    Returns None when no k-subset is feasible (e.g. a diverse constraint
    nobody satisfies).  Ties in score are broken by enumeration order,
    which is deterministic given the schema construction order — the paper
    likewise returns one optimal preview and notes the extension to all.
    A live :class:`~repro.parallel.ShardedExecutor` passed as
    ``executor`` (the caller keeps ownership) lets the planner shard the
    per-subset allocation across its workers with bit-identical results
    — see :func:`~repro.core.candidates.discover_among`; the pairwise
    distance check stays in the parent, which holds the distance oracle.
    """
    key_pool = eligible_key_types(context)
    validate_constraints(size, distance, key_pool)
    oracle = context.schema.distance_oracle() if distance is not None else None

    qualifying = (
        keys
        for keys in combinations(key_pool, size.k)
        if distance is None or distance.keys_ok(oracle, keys)
    )
    if executor is not None:
        # C(K, k) bounds the qualifying count before anything is
        # materialized: only a batch the planner would shard is listed,
        # and discover_among records the verdict on the listed count.
        estimate = plan.estimated_subsets(len(key_pool), size.k)
        if plan.would_shard(estimate, executor.jobs):
            return discover_among(
                context, size, list(qualifying), "brute-force", executor
            )
        plan.should_shard(estimate, executor.jobs)  # the scan's serial verdict

    # Serial path: stream the combination generator through the batched
    # kernel in bounded chunks (the enumeration can be astronomically
    # larger than memory), keeping the first strict maximum across
    # chunks — the same lowest-index tie-break as the old scan.
    pool = context.candidate_pool()
    extra_cap = size.n - size.k
    best_score = float("-inf")
    best_keys = None
    examined = 0
    chunk = []
    append = chunk.append
    for keys in qualifying:
        append(keys)
        if len(chunk) < kernel.BATCH_SIZE:
            continue
        best = kernel.best_allocation(pool, chunk, extra_cap)
        examined += len(chunk)
        if best is not None and best[0] > best_score:
            best_score, best_keys = best[0], chunk[best[1]]
        chunk = []
        append = chunk.append
    if chunk:
        best = kernel.best_allocation(pool, chunk, extra_cap)
        examined += len(chunk)
        if best is not None and best[0] > best_score:
            best_score, best_keys = best[0], chunk[best[1]]
    if best_keys is None:
        return None
    allocation = best_preview_for_keys(context, best_keys, size)
    if allocation is None:  # pragma: no cover - kernel said feasible
        return None
    preview, score = allocation
    return DiscoveryResult(
        preview=preview,
        score=score,
        algorithm="brute-force",
        key_scorer=context.key_scorer_name,
        nonkey_scorer=context.nonkey_scorer_name,
        candidates_examined=examined,
    )

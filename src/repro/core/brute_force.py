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

from itertools import combinations, islice
from typing import Iterable, Iterator, List, Optional, Tuple

from .. import kernel
from ..model.ids import TypeId
from ..scoring.preview_score import ScoringContext
from .candidates import discover_among, eligible_key_types
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
    The combination stream is never listed: it reaches
    :func:`~repro.core.candidates.discover_among` in chunks of
    :data:`repro.kernel.BATCH_SIZE` (read at call time), each bounded
    and pruned against the best score so far.  A live
    :class:`~repro.parallel.ShardedExecutor` passed as ``executor`` (the
    caller keeps ownership) lets the planner shard a chunk's survivors
    across its workers with bit-identical results; the pairwise
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
    batches = _chunks(qualifying, kernel.BATCH_SIZE)
    return discover_among(context, size, batches, "brute-force", executor)


def _chunks(
    subsets: Iterable[Tuple[TypeId, ...]], length: int
) -> Iterator[List[Tuple[TypeId, ...]]]:
    """``subsets`` in consecutive lists of at most ``length``."""
    iterator = iter(subsets)
    while True:
        chunk = list(islice(iterator, length))
        if not chunk:
            return
        yield chunk

"""Apriori-style optimal tight/diverse preview discovery (Alg. 3).

Two steps, exactly as the paper structures them:

1. **Find qualifying k-subsets** of entity types — all k-cliques of the
   *compatibility graph* in which two types are adjacent when their schema
   distance satisfies the constraint (``<= d`` tight, ``>= d`` diverse).
   :func:`qualifying_subsets` is the one enumeration path: the
   level-wise Apriori-style join runs in the active kernel backend
   (:mod:`repro.graph.cliques` by default, a vectorized join over the
   dense distance table under numpy); a Bron–Kerbosch backend is also
   available (the paper notes any k-clique algorithm can be plugged in).
2. **ComputePreview** for each qualifying subset — the Theorem-3 greedy
   allocation shared with Alg. 1 — keeping the best-scoring preview.

Worst-case complexity matches the brute force, but the L2 seeding and
joins prune most distance-violating subsets early, which is where the
orders-of-magnitude wins in Fig. 9 come from.
"""

from __future__ import annotations

from typing import Optional

from .. import kernel
from ..graph.cliques import k_cliques
from ..kernel.base import Subsets
from ..scoring.preview_score import ScoringContext
from .candidates import discover_among, eligible_key_types
from .constraints import DistanceConstraint, SizeConstraint, validate_constraints
from .preview import DiscoveryResult
from .registry import register_discovery_algorithm


def qualifying_subsets(
    context: ScoringContext,
    size: SizeConstraint,
    distance: DistanceConstraint,
    clique_backend: str = "apriori",
) -> Subsets:
    """The qualifying key subsets of one ``(k, d, mode)`` group.

    Every ``size.k``-subset of the eligible key types whose pairs all
    satisfy ``distance``, in the Apriori clique order (so score ties
    resolve identically on every path).  ``"apriori"`` runs the
    level-wise join in the active kernel backend, which may return a
    compact read-only sequence instead of a list (see
    :meth:`repro.kernel.KernelBackend.qualifying_subsets`);
    ``"bron-kerbosch"`` runs :func:`repro.graph.cliques.k_cliques` with
    that backend, for the ablation.
    """
    key_pool = eligible_key_types(context)
    oracle = context.schema.distance_oracle()
    if clique_backend == "apriori":
        return kernel.active_backend().qualifying_subsets(
            key_pool, oracle, distance, size.k
        )
    return k_cliques(
        key_pool,
        lambda a, b: distance.pair_ok(oracle, a, b),
        size.k,
        backend=clique_backend,
    )


def apriori_discover(
    context: ScoringContext,
    size: SizeConstraint,
    distance: DistanceConstraint,
    clique_backend: str = "apriori",
    executor=None,
) -> Optional[DiscoveryResult]:
    """Find an optimal tight/diverse preview; None when none exists.

    ``clique_backend`` selects the k-clique enumerator: ``"apriori"``
    (the paper's level-wise join) or ``"bron-kerbosch"`` (the classical
    alternative used by the ablation bench).  A live
    :class:`~repro.parallel.ShardedExecutor` passed as ``executor`` (the
    caller keeps ownership) lets the planner shard the per-subset
    ComputePreview step across its workers; results are bit-identical
    to the serial run — see :func:`~repro.core.candidates.discover_among`.
    """
    validate_constraints(size, distance, eligible_key_types(context))
    subsets = qualifying_subsets(context, size, distance, clique_backend)
    if not subsets:
        return None
    return discover_among(
        context, size, subsets, f"apriori[{clique_backend}]", executor
    )


@register_discovery_algorithm(
    "apriori",
    shapes=("tight", "diverse"),
    auto_rank=0,
    notes=(
        "requires a distance constraint; use the DP or brute-force "
        "algorithm for concise previews"
    ),
)
def _registered_apriori(
    context: ScoringContext,
    size: SizeConstraint,
    distance: Optional[DistanceConstraint] = None,
) -> Optional[DiscoveryResult]:
    """Registry adapter: Apriori serves distance-constrained previews."""
    assert distance is not None  # guaranteed by registry shape validation
    return apriori_discover(context, size, distance)

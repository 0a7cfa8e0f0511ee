"""Process-pool sharded evaluation of qualifying key subsets (Alg. 1/3).

The expensive step shared by the brute-force and Apriori algorithms is an
embarrassingly parallel loop: enumerate the qualifying k-subsets of key
attributes, run the Theorem-3 allocation (``ComputePreview``) on each,
keep the best.  Once the shared artifacts are hoisted (the
:class:`~repro.scoring.CandidatePool` of sorted, weighted Γτ arrays),
per-subset work has no cross-subset state and shards cleanly across
worker processes.

Design: the picklable scoring snapshot
--------------------------------------
Workers never see the entity graph, the schema graph or the scoring
context — none of those need to cross the pipe, and some are expensive
to pickle.  Instead the parent derives a :class:`ScoringSnapshot` from
the candidate pool: a type-index map plus the flat tuples of
``S(τ) × Sτ(γ)`` merge scores, which is *exactly* the surface
:func:`~repro.core.candidates.build_allocation_profile` reads.  The
snapshot duck-types that surface, so workers run the very same
allocation code the serial path runs — float accumulation happens in the
same order on the same values, making per-subset scores bit-identical to
a serial run, not merely approximately equal.

Each worker returns only its shard's best ``(score, subset_index)`` (or
compact profile payloads from ``build_profiles``, which has no engine
caller); the parent reduces with the exact serial tie-break — the
*lowest* subset index wins among equal scores, matching the
``score > best_score`` strict comparison of the serial loops — and
materializes the winning preview locally against the real candidate
pool.  Results are therefore bit-identical to ``apriori_discover`` /
``brute_force_discover`` at ``jobs=1``, which the property tests in
``tests/test_parallel.py`` assert for all four registered algorithms.

Whether a batch reaches the pool at all is :mod:`repro.plan`'s call
(the active kernel backend's measured shard threshold); once it does,
the executor cuts ``min(jobs, n)`` equal contiguous shards.  ``jobs=1``
is a true serial fallback: the shard functions run inline and
:mod:`multiprocessing` is never imported.  ``jobs=0`` resolves to the
usable core count (:func:`repro.plan.usable_cpus`).
"""

from .executor import ShardedExecutor, resolve_jobs
from .snapshot import ScoringSnapshot

__all__ = [
    "ScoringSnapshot",
    "ShardedExecutor",
    "resolve_jobs",
]

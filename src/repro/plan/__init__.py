"""Serial or sharded execution for subset scoring (``repro.plan``).

One fixed rule decides whether a batch of key subsets goes to the
process pool: ``jobs > 1``, at least two usable cores, and a subset
count at or above the active kernel backend's measured
``shard_threshold``.  Process-wide decision counters are surfaced
through ``PreviewEngine.cache_info()`` and the serve ``stats`` op.
``REPRO_PLAN`` (or :func:`use_mode`) selects ``auto`` or forces
``sharded``; ``jobs=1`` is the serial path.  Both modes are
bit-identical in results.  See ``docs/execution-planner.md``.
"""

from __future__ import annotations

from .planner import (
    ENV_PLAN,
    PLAN_MODES,
    decision_counts,
    estimated_subsets,
    plan_mode,
    reset_plan_caches,
    shard_threshold,
    should_shard,
    usable_cpus,
    use_mode,
    would_shard,
)

__all__ = [
    "ENV_PLAN",
    "PLAN_MODES",
    "decision_counts",
    "estimated_subsets",
    "plan_mode",
    "reset_plan_caches",
    "shard_threshold",
    "should_shard",
    "usable_cpus",
    "use_mode",
    "would_shard",
]

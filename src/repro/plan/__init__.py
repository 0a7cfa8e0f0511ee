"""Adaptive execution planning for subset scoring (``repro.plan``).

The subsystem that grew out of the kernel's single static dispatch
threshold: a :class:`CostModel` of measured per-backend timings, a
:class:`Planner` that picks serial or sharded execution per call site,
adaptive shard sizing, and process-wide decision counters surfaced
through ``PreviewEngine.cache_info()`` and the serve ``stats`` op.
``REPRO_PLAN`` (or :func:`use_mode`) forces any mode; all modes are
bit-identical in results.  See ``docs/execution-planner.md``.
"""

from __future__ import annotations

from .cost_model import DEFAULT_WINDOW, MIN_SAMPLES, CostModel, LinearFit
from .planner import (
    DEFAULT_DISPATCH_THRESHOLD,
    ENV_PLAN,
    ENV_THRESHOLD,
    MIN_SHARD_PAYOFF,
    OVERSUBSCRIPTION,
    PLAN_MODES,
    Planner,
    decision_counts,
    dispatch_threshold,
    estimated_subsets,
    get_planner,
    observe_lowering,
    observe_serial,
    observe_shard,
    observe_sharded,
    observe_snapshot_cost,
    plan_mode,
    plan_stats,
    reset_plan_caches,
    reset_plan_stats,
    reset_planner,
    shard_layout,
    should_shard,
    usable_cpus,
    use_mode,
)

__all__ = [
    "CostModel",
    "LinearFit",
    "Planner",
    "DEFAULT_DISPATCH_THRESHOLD",
    "DEFAULT_WINDOW",
    "ENV_PLAN",
    "ENV_THRESHOLD",
    "MIN_SAMPLES",
    "MIN_SHARD_PAYOFF",
    "OVERSUBSCRIPTION",
    "PLAN_MODES",
    "decision_counts",
    "dispatch_threshold",
    "estimated_subsets",
    "get_planner",
    "observe_lowering",
    "observe_serial",
    "observe_shard",
    "observe_sharded",
    "observe_snapshot_cost",
    "plan_mode",
    "plan_stats",
    "reset_plan_caches",
    "reset_plan_stats",
    "reset_planner",
    "shard_layout",
    "should_shard",
    "usable_cpus",
    "use_mode",
]

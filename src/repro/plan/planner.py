"""The execution planner: one measured shard threshold per backend.

Every subset-evaluation call site asks one question: *is this batch
worth worker processes?*  The answer is a fixed rule, selected by
``REPRO_PLAN`` (or in-process via :func:`use_mode`):

``auto`` (default)
    Shard only when ``jobs > 1``, at least two cores are usable, and
    the batch's subset count reaches the active kernel backend's
    ``shard_threshold`` — the smallest batch at which sharding won at
    least 9 in every 10 measured pairs on the crossover ladder of
    ``benchmarks/bench_crossover.py``.  A single-core affinity mask
    vetoes sharding outright: workers pinned to one core serialize.
``serial``
    Never shard; every batch runs the serial batched kernel inline.
``sharded``
    Always shard multi-subset batches when ``jobs > 1``, past the
    veto — forceable for benchmarks, tests and bisection.

The subset count is known before dispatch: it depends only on the
schema and on ``(k, d, mode)``, so a bound fixed from the input
replaces one learned from timings.

Every decision increments a process-wide counter
(:func:`decision_counts`): ``serial`` / ``sharded`` for the chosen
strategy and ``vetoed_single_core`` when the affinity veto forced the
answer.  :class:`~repro.engine.PreviewEngine` attributes deltas of
these counters to its queries (``cache_info()``'s ``plan_decisions``)
and the benchmarks record them alongside wall times.

Planning never changes answers — only where the same kernel arithmetic
runs — so every mode is bit-identical to every other (asserted by
``tests/test_plan.py`` and the golden workload trace).
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager
from typing import Dict, Optional

from .. import config
from ..exceptions import PlanError

#: Environment variable selecting the planner mode (declared in
#: :mod:`repro.config`).
ENV_PLAN = config.PLAN.name

#: The planner modes ``REPRO_PLAN`` accepts.
PLAN_MODES = ("auto", "serial", "sharded")

#: In-process mode override (managed by :func:`use_mode`); None defers
#: to the ``REPRO_PLAN`` environment knob.
_FORCED_MODE: Optional[str] = None

#: Cached affinity probe; reset via :func:`reset_plan_caches`.
_CPU_CACHE: Optional[int] = None

_LOCK = threading.Lock()
_DECISIONS: Dict[str, int] = {"serial": 0, "sharded": 0, "vetoed_single_core": 0}


def plan_mode() -> str:
    """The effective planner mode (in-process override, else ``REPRO_PLAN``).

    Raises
    ------
    PlanError
        When ``REPRO_PLAN`` names an unknown mode.
    """
    if _FORCED_MODE is not None:
        return _FORCED_MODE
    raw = (config.raw_knob(ENV_PLAN) or "auto").strip().lower() or "auto"
    if raw not in PLAN_MODES:
        raise PlanError(
            f"{ENV_PLAN} must be one of {', '.join(PLAN_MODES)}, got {raw!r}"
        )
    return raw


@contextmanager
def use_mode(mode: str):
    """Temporarily force a planner mode in-process (tests, bench legs).

    Raises
    ------
    PlanError
        For an unknown mode name.
    """
    global _FORCED_MODE
    if mode not in PLAN_MODES:
        raise PlanError(
            f"unknown planner mode {mode!r}; expected one of "
            f"{', '.join(PLAN_MODES)}"
        )
    previous = _FORCED_MODE
    _FORCED_MODE = mode
    try:
        yield
    finally:
        _FORCED_MODE = previous


def usable_cpus() -> int:
    """CPU cores this process may actually run on (cached per process).

    The affinity mask is a process property that practically never
    changes mid-run, and ``should_shard`` sits on the per-query hot
    path — so the probe happens once and :func:`reset_plan_caches` is
    the test-visible way to force a re-probe.
    """
    global _CPU_CACHE
    if _CPU_CACHE is None:
        try:
            _CPU_CACHE = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            _CPU_CACHE = os.cpu_count() or 1
    return _CPU_CACHE


def reset_plan_caches() -> None:
    """Drop the cached affinity probe (test hook)."""
    global _CPU_CACHE
    _CPU_CACHE = None


def estimated_subsets(eligible_count: int, k: int) -> int:
    """Upper bound on the qualifying k-subset count: ``C(eligible, k)``."""
    if k < 0 or k > eligible_count:
        return 0
    return math.comb(eligible_count, k)


def shard_threshold() -> int:
    """The active kernel backend's shard threshold, in subsets."""
    # Imported lazily: repro.kernel imports this module at load time,
    # so the dependency must stay call-time-only to avoid a cycle.
    from .. import kernel

    return kernel.active_backend().shard_threshold


def _count(*keys: str) -> None:
    with _LOCK:
        for key in keys:
            _DECISIONS[key] += 1


def should_shard(subset_count: int, jobs: int) -> bool:
    """Whether ``subset_count`` subsets justify ``jobs`` workers.

    The answer depends on the mode (see the module docstring); the
    result is recorded in the decision counters either way.  Serial
    and sharded execution are bit-identical, so this only moves wall
    time.
    """
    mode = plan_mode()
    if mode == "serial" or jobs <= 1 or subset_count <= 1:
        _count("serial")
        return False
    if mode == "sharded":
        _count("sharded")
        return True
    if usable_cpus() <= 1:
        _count("serial", "vetoed_single_core")
        return False
    verdict = subset_count >= shard_threshold()
    _count("sharded" if verdict else "serial")
    return verdict


def decision_counts() -> Dict[str, int]:
    """A copy of the process-wide cumulative decision counters."""
    with _LOCK:
        return dict(_DECISIONS)

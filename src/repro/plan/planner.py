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
``sharded``
    Always shard multi-subset batches when ``jobs > 1``, past the
    veto — forceable for benchmarks, tests and bisection.

There is no forced serial mode: ``jobs=1`` is the serial path, and
below the threshold ``auto`` already runs serially.

The subset count is known before dispatch: it depends only on the
schema and on ``(k, d, mode)``, so a bound fixed from the input
replaces one learned from timings.

Every decision increments a process-wide counter
(:func:`decision_counts`): ``serial`` / ``sharded`` for the chosen
strategy and ``vetoed_single_core`` when the affinity veto forced the
answer.  The same counts are kept per thread
(:func:`thread_decision_counts`): :class:`~repro.engine.PreviewEngine`
attributes the deltas of its own thread to its queries
(``cache_info()``'s ``plan_decisions``), and the benchmarks record the
process-wide ones alongside wall times.

Planning never changes answers — only where the same kernel arithmetic
runs — so every mode is bit-identical to every other (asserted by
``tests/test_plan.py`` and the golden workload trace).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Dict, Optional, Tuple

from .. import config, kernel
from ..exceptions import PlanError

#: Environment variable selecting the planner mode (declared in
#: :mod:`repro.config`).
ENV_PLAN = config.PLAN.name

#: The planner modes ``REPRO_PLAN`` accepts.
PLAN_MODES = ("auto", "sharded")

#: In-process mode override (managed by :func:`use_mode`); None defers
#: to the ``REPRO_PLAN`` environment knob.
_FORCED_MODE: Optional[str] = None

#: Cached affinity probe; reset via :func:`reset_plan_caches`.
_CPU_CACHE: Optional[int] = None

_LOCK = threading.Lock()
_DECISIONS: Dict[str, int] = {"serial": 0, "sharded": 0, "vetoed_single_core": 0}


class _ThreadDecisions(threading.local):
    """The decision counters of one thread."""

    def __init__(self) -> None:
        self.counts = dict.fromkeys(_DECISIONS, 0)


_THREAD_DECISIONS = _ThreadDecisions()


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


def shard_threshold() -> int:
    """The active kernel backend's shard threshold, in subsets."""
    return kernel.active_backend().shard_threshold


def _verdict(subset_count: int, jobs: int) -> Tuple[str, ...]:
    """The decision counters one verdict bumps; the first names it."""
    mode = plan_mode()
    if jobs <= 1 or subset_count <= 1:
        return ("serial",)
    if mode == "sharded":
        return ("sharded",)
    if usable_cpus() <= 1:
        return ("serial", "vetoed_single_core")
    return ("sharded" if subset_count >= shard_threshold() else "serial",)


def should_shard(subset_count: int, jobs: int) -> bool:
    """Whether ``subset_count`` subsets justify ``jobs`` workers.

    The answer depends on the mode (see the module docstring); the
    result is recorded in the decision counters either way, so call it
    once per dispatched batch.  Serial and sharded execution are
    bit-identical, so this only moves wall time.
    """
    keys = _verdict(subset_count, jobs)
    mine = _THREAD_DECISIONS.counts
    with _LOCK:
        for key in keys:
            _DECISIONS[key] += 1
    for key in keys:
        mine[key] += 1
    return keys[0] == "sharded"


def decision_counts() -> Dict[str, int]:
    """A copy of the process-wide cumulative decision counters."""
    with _LOCK:
        return dict(_DECISIONS)


def thread_decision_counts() -> Dict[str, int]:
    """A copy of the decision counters of the calling thread alone.

    An engine attributes deltas of these to its queries, so engines
    answering on other threads never count each other's decisions.
    """
    return dict(_THREAD_DECISIONS.counts)

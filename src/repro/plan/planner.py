"""The adaptive execution planner: calibrated serial/sharded dispatch.

:class:`Planner` answers the question every subset-evaluation call site
asks — *is this batch worth worker processes, and if so, how should it
be cut into shards?* — from measured signals instead of one global
constant.  Four modes, selected by ``REPRO_PLAN`` (or in-process via
:func:`use_mode`):

``auto`` (default)
    Cost-model planning.  While the model is cold the decision falls
    back to the PR 6 static threshold; once both the serial and sharded
    cost lines of the active kernel backend are fitted
    (:meth:`~repro.plan.cost_model.CostModel.warm`), the cheaper
    predicted strategy wins.  A single-core affinity mask still vetoes
    sharding outright — workers pinned to one core serialize, which is
    hardware, not a heuristic the model should relearn per process.
``serial``
    Never shard; every batch runs the serial batched kernel inline.
``sharded``
    Always shard multi-subset batches when ``jobs > 1`` — the pre-PR 6
    behavior, kept forceable for benchmarks and bisection.
``static``
    Exactly the PR 6 planner: subset count against
    :func:`dispatch_threshold`, single-core veto, no model,
    ``min(jobs, n)`` equal shards.

Every decision increments a process-wide counter
(:func:`decision_counts`): ``serial`` / ``sharded`` for the chosen
strategy, ``model_warm`` vs ``fallback`` for how an ``auto`` decision
was reached, and ``vetoed_single_core`` when the affinity veto forced
the answer.  :class:`~repro.engine.PreviewEngine`
attributes deltas of these counters to its queries (``cache_info()``'s
``plan_decisions``) and the benchmarks record them alongside wall
times.

Planning never changes answers — only where and in what chunks the same
kernel arithmetic runs — so every mode is bit-identical to every other
(asserted by ``tests/test_plan.py`` and the golden workload trace).
"""

from __future__ import annotations

import math
import os
import pickle
import threading
import time
import weakref
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from .. import config
from ..exceptions import KernelError, PlanError
from .cost_model import DEFAULT_WINDOW, CostModel

#: Environment override for the sharding crossover point (declared in
#: :mod:`repro.config`; the name is kept here for subprocess spawners).
ENV_THRESHOLD = config.DISPATCH_THRESHOLD.name

#: Environment variable selecting the planner mode (declared in
#: :mod:`repro.config`).
ENV_PLAN = config.PLAN.name

#: Below this many subsets, process-pool dispatch costs more than the
#: serial kernel call it would replace (measured on the bench-mixed
#: workload trace; see docs/execution-planner.md).
DEFAULT_DISPATCH_THRESHOLD = 4096

#: The planner modes ``REPRO_PLAN`` accepts.
PLAN_MODES = ("auto", "serial", "sharded", "static")

#: Adaptive shard-sizing target: this many shards per worker, so pool
#: scheduling absorbs stragglers (the last shard is at most ``1/target``
#: of the work instead of ``1/jobs``).
OVERSUBSCRIPTION = 2

#: A shard's predicted compute time must be at least this multiple of
#: the fitted per-shard fixed cost, or the planner stops splitting —
#: shards smaller than that are pure dispatch overhead.
MIN_SHARD_PAYOFF = 8.0

#: In-process mode override (managed by :func:`use_mode`); None defers
#: to the ``REPRO_PLAN`` environment knob.
_FORCED_MODE: Optional[str] = None

#: Cached affinity probe (satellite fix: ``os.sched_getaffinity`` was
#: re-probed on every ``should_shard`` call).  Reset via
#: :func:`reset_plan_caches`.
_CPU_CACHE: Optional[int] = None

#: Cached parsed dispatch threshold, keyed by the raw env value so a
#: test's ``monkeypatch.setenv`` is still observed without re-parsing
#: on every decision.
_THRESHOLD_CACHE: Optional[Tuple[Optional[str], int]] = None


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


def dispatch_threshold() -> int:
    """The effective sharding threshold (env override or default).

    The parse is memoized against the raw environment value, so the
    hot path re-reads ``os.environ`` (tests that ``setenv`` stay
    honored) but only re-parses when the value actually changed.

    Raises
    ------
    KernelError
        When ``REPRO_DISPATCH_THRESHOLD`` is set but not a non-negative
        integer (the historical contract of the kernel planner).
    """
    global _THRESHOLD_CACHE
    raw = config.raw_knob(ENV_THRESHOLD)
    if _THRESHOLD_CACHE is not None and _THRESHOLD_CACHE[0] == raw:
        return _THRESHOLD_CACHE[1]
    if raw is None:
        value = DEFAULT_DISPATCH_THRESHOLD
    else:
        try:
            value = int(raw)
        except ValueError:
            raise KernelError(
                f"{ENV_THRESHOLD} must be an integer, got {raw!r}"
            ) from None
        if value < 0:
            raise KernelError(f"{ENV_THRESHOLD} must be >= 0, got {value}")
    _THRESHOLD_CACHE = (raw, value)
    return value


def reset_plan_caches() -> None:
    """Drop the cached affinity probe and parsed threshold (test hook)."""
    global _CPU_CACHE, _THRESHOLD_CACHE
    _CPU_CACHE = None
    _THRESHOLD_CACHE = None


def estimated_subsets(eligible_count: int, k: int) -> int:
    """Upper bound on the qualifying k-subset count: ``C(eligible, k)``."""
    if k < 0 or k > eligible_count:
        return 0
    return math.comb(eligible_count, k)


def _active_backend_name() -> str:
    # Imported lazily: repro.kernel imports this module at load time,
    # so the dependency must stay call-time-only to avoid a cycle.
    from .. import kernel

    return kernel.backend_name()


class Planner:
    """Cost-model-backed execution planning with decision accounting.

    One process-wide instance (see :func:`get_planner`) serves every
    call site; all methods are thread-safe (serve hosts plan from their
    worker threads concurrently).
    """

    def __init__(self, model: Optional[CostModel] = None) -> None:
        self.model = model if model is not None else CostModel(
            window=config.plan_window()
        )
        self._lock = threading.Lock()
        self._decisions: Dict[str, int] = {
            "serial": 0,
            "sharded": 0,
            "model_warm": 0,
            "fallback": 0,
            "vetoed_single_core": 0,
        }
        #: Snapshot objects already measured (id -> weakref to the
        #: snapshot), FIFO-bounded — measuring costs one pickle per
        #: snapshot lifetime, so it must never repeat per dispatch.
        #: The weakref guards against CPython id reuse: a hit only
        #: counts when the stored reference still resolves to the very
        #: object being asked about, so a fresh snapshot allocated at a
        #: dead snapshot's address is measured independently.
        #: Unweakrefable snapshots (plain dicts in tests) are memoized
        #: by strong reference instead — holding the object pins its id,
        #: so reuse is equally impossible, at the cost of keeping at
        #: most 16 of them alive.
        self._measured_snapshots: Dict[int, object] = {}

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _count(self, *keys: str) -> None:
        with self._lock:
            for key in keys:
                self._decisions[key] = self._decisions.get(key, 0) + 1

    def _static_verdict(self, subset_count: int, jobs: int) -> bool:
        """The PR 6 rule: threshold plus single-core affinity veto."""
        if jobs <= 1 or min(jobs, usable_cpus()) <= 1:
            return False
        return subset_count >= dispatch_threshold()

    def should_shard(self, subset_count: int, jobs: int) -> bool:
        """Whether ``subset_count`` subsets justify ``jobs`` workers.

        The answer depends on the mode (see the module docstring); the
        result is recorded in the decision counters either way.  Serial
        and sharded execution are bit-identical, so this only moves
        wall time.
        """
        mode = plan_mode()
        if mode == "serial":
            self._count("serial")
            return False
        if mode == "sharded":
            if jobs > 1 and subset_count > 1:
                self._count("sharded")
                return True
            self._count("serial")
            return False
        if jobs <= 1 or subset_count <= 1:
            self._count("serial")
            return False
        if mode == "static":
            verdict = self._static_verdict(subset_count, jobs)
            self._count("sharded" if verdict else "serial")
            return verdict
        # auto
        if min(jobs, usable_cpus()) <= 1:
            self._count("serial", "vetoed_single_core")
            return False
        verdict, how = self._auto_verdict(subset_count)
        self._count("sharded" if verdict else "serial", how)
        return verdict

    def _auto_verdict(self, subset_count: int) -> Tuple[bool, str]:
        """(shard?, ``model_warm``/``fallback``) for a vetted auto call."""
        backend = _active_backend_name()
        with self._lock:
            if self.model.warm(backend):
                serial_cost = self.model.predict(
                    "serial", backend, subset_count
                )
                sharded_cost = self.model.predict(
                    "sharded", backend, subset_count
                )
                return sharded_cost < serial_cost, "model_warm"
        return subset_count >= dispatch_threshold(), "fallback"

    # ------------------------------------------------------------------
    # Shard sizing
    # ------------------------------------------------------------------
    def shard_layout(self, subset_count: int, jobs: int) -> List[int]:
        """Shard sizes for one dispatch (sizes sum to ``subset_count``).

        Static and forced modes reproduce the PR 6 tiling —
        ``min(jobs, n)`` near-equal chunks.  Under ``auto`` the layout
        oversubscribes the pool :data:`OVERSUBSCRIPTION`-fold so the
        scheduler can backfill around stragglers, and a warm per-shard
        cost fit caps the split: no shard shrinks below the size whose
        predicted compute still pays :data:`MIN_SHARD_PAYOFF` times the
        fitted per-shard fixed cost.  The remainder lands on the *first*
        shards, so the final shard — the one that would otherwise
        straggle — is never the largest.

        Shard geometry never affects results: the executor's reduction
        carries global subset indices, so any tiling reduces to the
        same winner.
        """
        if subset_count <= 0:
            return []
        jobs = max(1, jobs)
        if jobs == 1 or subset_count == 1:
            return [subset_count]
        shards = min(jobs, subset_count)
        if plan_mode() == "auto":
            target = min(subset_count, jobs * OVERSUBSCRIPTION)
            with self._lock:
                fitted = self.model.fit("shard", _active_backend_name())
            if fitted is not None and fitted.rate > 0.0 and fitted.setup > 0.0:
                # Largest shard count whose per-shard compute still
                # dwarfs the fixed per-shard cost.
                payoff_size = math.ceil(
                    MIN_SHARD_PAYOFF * fitted.setup / fitted.rate
                )
                affordable = max(1, subset_count // max(payoff_size, 1))
                shards = max(min(target, affordable), min(jobs, subset_count))
            else:
                shards = target
        base, remainder = divmod(subset_count, shards)
        return [
            base + (1 if shard < remainder else 0) for shard in range(shards)
        ]

    # ------------------------------------------------------------------
    # Observation hooks
    # ------------------------------------------------------------------
    def observe(
        self, signal: str, backend: str, subsets: int, seconds: float
    ) -> None:
        """Record one timing observation into the cost model."""
        with self._lock:
            self.model.observe(signal, backend, subsets, seconds)

    def observe_snapshot_cost(self, snapshot: object) -> None:
        """Measure one snapshot's pickle bytes/seconds (once per object).

        Called by the sharded executor right before a pool dispatch; the
        measurement costs one extra ``pickle.dumps``, so it is keyed by
        object identity and never repeated for a snapshot the executor
        re-ships across calls.  A memo hit requires the stored weak
        reference to resolve to ``snapshot`` itself — ``id()`` alone is
        not enough, because CPython recycles addresses after GC and a
        fresh snapshot must never inherit a dead snapshot's cost.
        """
        key = id(snapshot)
        with self._lock:
            entry = self._measured_snapshots.get(key)
            if entry is not None:
                target = entry() if isinstance(entry, weakref.ref) else entry
                if target is snapshot:
                    return
        try:
            memo_entry: object = weakref.ref(snapshot)
        except TypeError:
            # Unweakrefable: memoize the object itself (pins the id).
            memo_entry = snapshot
        start = time.perf_counter()
        payload = pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
        elapsed = time.perf_counter() - start
        with self._lock:
            if (
                key not in self._measured_snapshots
                and len(self._measured_snapshots) >= 16
            ):
                oldest = next(iter(self._measured_snapshots))
                del self._measured_snapshots[oldest]
            self._measured_snapshots[key] = memo_entry
            self.model.observe_snapshot(len(payload), elapsed)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def decision_counts(self) -> Dict[str, int]:
        """A copy of the cumulative decision counters."""
        with self._lock:
            return dict(self._decisions)

    def stats(self) -> Dict[str, object]:
        """JSON-ready planner state: mode, decisions, model warmth."""
        backend = _active_backend_name()
        with self._lock:
            return {
                "mode": plan_mode(),
                "decisions": dict(self._decisions),
                "model": {
                    "backend": backend,
                    "warm": self.model.warm(backend),
                    "observations": self.model.observation_counts(),
                    "snapshot": self.model.snapshot_stats(),
                },
            }

    def reset_stats(self) -> None:
        """Zero the decision counters (benchmark legs isolate with this)."""
        with self._lock:
            for key in self._decisions:
                self._decisions[key] = 0


#: The process-wide planner every call site consults (lazily built so
#: ``REPRO_PLAN_WINDOW`` is read at first use, not import).
_PLANNER: Optional[Planner] = None
_PLANNER_LOCK = threading.Lock()


def get_planner() -> Planner:
    """The process-wide :class:`Planner`, created on first use."""
    global _PLANNER
    if _PLANNER is None:
        with _PLANNER_LOCK:
            if _PLANNER is None:
                _PLANNER = Planner()
    return _PLANNER


def reset_planner() -> None:
    """Replace the process-wide planner with a fresh, cold one (tests)."""
    global _PLANNER
    with _PLANNER_LOCK:
        _PLANNER = None


def should_shard(subset_count: int, jobs: int) -> bool:
    """Module-level convenience for :meth:`Planner.should_shard`."""
    return get_planner().should_shard(subset_count, jobs)


def shard_layout(subset_count: int, jobs: int) -> List[int]:
    """Module-level convenience for :meth:`Planner.shard_layout`."""
    return get_planner().shard_layout(subset_count, jobs)


def observe_serial(backend: str, subsets: int, seconds: float) -> None:
    """Record one serial batched-kernel dispatch timing."""
    get_planner().observe("serial", backend, subsets, seconds)


def observe_sharded(
    backend: str, subsets: int, seconds: float, shards: int
) -> None:
    """Record one whole sharded dispatch timing (parent-side wall)."""
    get_planner().observe("sharded", backend, subsets, seconds)


def observe_shard(backend: str, subsets: int, seconds: float) -> None:
    """Record one worker shard's compute timing (measured in-worker)."""
    get_planner().observe("shard", backend, subsets, seconds)


def observe_lowering(backend: str, subsets: int, seconds: float) -> None:
    """Record one columnar lowering (the serial path's per-call setup)."""
    get_planner().observe("lower", backend, subsets, seconds)


def observe_snapshot_cost(snapshot: object) -> None:
    """Measure one snapshot's pickle cost (once per object identity)."""
    get_planner().observe_snapshot_cost(snapshot)


def decision_counts() -> Dict[str, int]:
    """The process-wide cumulative decision counters."""
    return get_planner().decision_counts()


def plan_stats() -> Dict[str, object]:
    """The process-wide planner's JSON-ready state."""
    return get_planner().stats()


def reset_plan_stats() -> None:
    """Zero the process-wide decision counters."""
    get_planner().reset_stats()

"""Process-pool executor for sharded key-subset evaluation.

:class:`ShardedExecutor` chunks a qualifying-subset list into contiguous
shards, ships each shard (plus one :class:`ScoringSnapshot`) to a worker
process, and reduces the per-shard answers with the exact serial
tie-break order.  Two shard operations:

* :meth:`ShardedExecutor.best_allocation` — score every subset at one
  attribute budget, return the global best ``(score, subset_index)``;
  its one caller is :func:`~repro.core.candidates.discover_among`.
* :meth:`ShardedExecutor.build_profiles` — build the full allocation
  profile payload (pick sequence + cumulative scores) per subset.  No
  engine path calls it (or :meth:`ShardedExecutor.build_profile_groups`)
  any more: sweeps answer every point through ``best_allocation``.
  Both stay as public executor operations, and benchmark tracing looks
  them up by name.

``jobs=1`` (and degenerate shard counts) run the shard functions inline —
:mod:`multiprocessing` is imported lazily and only on a genuinely
parallel call, so serial users never pay for (or depend on) it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .. import kernel, plan
from ..core.candidates import build_allocation_profile
from ..exceptions import DiscoveryError
from ..model.ids import TypeId
from .snapshot import ScoringSnapshot

#: (picks, cum, cap) — the picklable payload of one AllocationProfile,
#: or None for an infeasible subset (some key with an empty Γτ).
ProfilePayload = Optional[Tuple[List[Tuple[int, int]], List[float], Optional[int]]]

#: One profile group for :meth:`ShardedExecutor.build_profile_groups`:
#: (subsets, cap).  Each group keeps its own cap.
ProfileGroup = Tuple[Sequence[Tuple[TypeId, ...]], Optional[int]]


def resolve_jobs(jobs: int) -> int:
    """Normalize a user-facing ``jobs`` value (0 = all CPU cores).

    Returns the effective worker count (always >= 1); raises
    :class:`~repro.exceptions.DiscoveryError` for negative values.
    """
    if jobs < 0:
        raise DiscoveryError(f"jobs must be non-negative, got {jobs}")
    if jobs == 0:
        return plan.usable_cpus()
    return jobs


def _score_shard(payload) -> Optional[Tuple[float, int]]:
    """The shard's winning ``(score, global_subset_index)``, or None.

    The whole shard is one batched kernel call over the snapshot's
    columns — the backend name travels in the payload, so workers run
    the parent's backend under both ``fork`` and ``spawn``.  The kernel
    keeps the lowest-index subset among equal scores (and treats
    duplicate keys as infeasible), the same rules the serial discovery
    loops apply.
    """
    snapshot, start, subsets, extra_cap, backend_name = payload
    backend = kernel.get_backend(backend_name)
    best = backend.best_allocation(
        backend.lower(snapshot), subsets, extra_cap
    )
    if best is None:
        return None
    return best[0], start + best[1]


def _profile_shard(payload) -> List[ProfilePayload]:
    """Allocation-profile payloads for one shard, positionally aligned."""
    snapshot, _start, subsets, cap, _backend_name = payload
    results: List[ProfilePayload] = []
    for keys in subsets:
        profile = build_allocation_profile(snapshot, keys, cap=cap)
        if profile is None:
            results.append(None)
        else:
            results.append((profile.picks, profile.cum, profile.cap))
    return results


def _profile_groups_shard(payload) -> List[Tuple[int, List[ProfilePayload]]]:
    """Profile payloads for a *bin* of whole profile groups.

    The payload carries ``(snapshot, [(group_index, subsets, cap), ...])``
    — several small groups batched into one worker task.  Groups
    are never split across bins, so each keeps its own cap and its
    payloads stay positionally aligned; the group index travels with
    the results for reassembly in the parent.
    """
    snapshot, groups = payload
    results: List[Tuple[int, List[ProfilePayload]]] = []
    for group_index, subsets, cap in groups:
        payloads: List[ProfilePayload] = []
        for keys in subsets:
            profile = build_allocation_profile(snapshot, keys, cap=cap)
            if profile is None:
                payloads.append(None)
            else:
                payloads.append((profile.picks, profile.cum, profile.cap))
        results.append((group_index, payloads))
    return results


class ShardedExecutor:
    """Shards subset evaluation across a reusable process pool.

    Parameters
    ----------
    jobs:
        Worker processes (0 = all CPU cores).  With ``jobs=1`` every
        operation runs inline in the calling process.
    start_method:
        Multiprocessing start method; None picks ``fork`` when the
        platform offers it (cheapest for one-shot CLI/bench runs).
        Long-lived multi-threaded processes — the serve layer — must
        pass ``"spawn"``: forking a process that already runs an event
        loop plus worker threads can clone held locks into the child
        and hang it.

    The pool is created lazily on the first parallel call and reused
    until :meth:`close` (the executor is a context manager), so a sweep
    amortizes worker startup across all of its groups and points.
    """

    def __init__(self, jobs: int = 1, start_method: Optional[str] = None) -> None:
        self.jobs = resolve_jobs(jobs)
        self._start_method = start_method
        self._pool = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Terminate the worker pool (no-op for serial executors)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def _get_pool(self):
        if self._pool is None:
            # Imported here, not at module top: jobs=1 must stay a pure
            # serial fallback with no multiprocessing dependency.
            import multiprocessing

            method = self._start_method
            if method is None:
                method = (
                    "fork"
                    if "fork" in multiprocessing.get_all_start_methods()
                    else "spawn"
                )
            self._pool = multiprocessing.get_context(method).Pool(
                processes=self.jobs
            )
        return self._pool

    # ------------------------------------------------------------------
    # Sharding
    # ------------------------------------------------------------------
    def _payloads(
        self,
        snapshot: ScoringSnapshot,
        subsets: Sequence[Tuple[TypeId, ...]],
        cap: Optional[int],
    ) -> List[Tuple]:
        """``min(jobs, n)`` equal contiguous shards, tagged with their start.

        Never produces an empty shard: the shard count is capped at the
        subset count, so every shard carries at least one subset (an
        empty ``subsets`` yields zero shards rather than dividing by
        zero — the public operations short-circuit before that, but the
        sharding itself is total).  The remainder lands on the first
        shards.  Shard geometry never affects results: the reduction
        carries global subset indices.
        """
        if not subsets:
            return []
        backend_name = kernel.backend_name()
        shards = min(self.jobs, len(subsets))
        base, remainder = divmod(len(subsets), shards)
        payloads = []
        start = 0
        for shard in range(shards):
            size = base + (1 if shard < remainder else 0)
            payloads.append(
                (
                    snapshot,
                    start,
                    subsets[start:start + size],
                    cap,
                    backend_name,
                )
            )
            start += size
        return payloads

    def _map(self, fn, payloads: List[Tuple]) -> List:
        if self.jobs == 1 or len(payloads) == 1:
            return [fn(payload) for payload in payloads]
        return self._get_pool().map(fn, payloads)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def best_allocation(
        self,
        pool,
        subsets: Sequence[Tuple[TypeId, ...]],
        extra_cap: int,
    ) -> Optional[Tuple[float, int]]:
        """Globally best ``(score, subset_index)`` at one budget.

        ``pool`` is the live :class:`~repro.scoring.CandidatePool` (a
        :class:`ScoringSnapshot` works too); each call ships a fresh
        snapshot of it, so a mutated pool can never be scored stale.
        The reduction keeps the first strict maximum over shards in
        index order, so the winner is the lowest-index subset among
        equal scores — bit-identical to the serial loops.
        """
        if not subsets:
            return None
        # Counted on the parent side: worker-process counters are
        # invisible here, and the inline jobs=1 path must not double
        # count (backends themselves never record).
        kernel.record_batch(len(subsets))
        payloads = self._payloads(
            ScoringSnapshot.from_pool(pool), subsets, extra_cap
        )
        best: Optional[Tuple[float, int]] = None
        for shard_best in self._map(_score_shard, payloads):
            if shard_best is None:
                continue
            if best is None or shard_best[0] > best[0]:
                best = shard_best
        return best

    def build_profiles(
        self,
        snapshot: ScoringSnapshot,
        subsets: Sequence[Tuple[TypeId, ...]],
        cap: Optional[int],
    ) -> List[ProfilePayload]:
        """Per-subset allocation-profile payloads, positionally aligned."""
        if not subsets:
            return []
        payloads = self._payloads(snapshot, subsets, cap)
        results: List[ProfilePayload] = []
        for shard in self._map(_profile_shard, payloads):
            results.extend(shard)
        return results

    def build_profile_groups(
        self,
        snapshot: ScoringSnapshot,
        groups: Sequence[ProfileGroup],
    ) -> List[List[ProfilePayload]]:
        """Profile payloads for several groups in ONE dispatch.

        Each group is a (subsets, cap) pair too small to justify its
        own pool dispatch, but together they amortize the snapshot
        shipping.  Whole groups are greedily
        bin-packed (largest first, into the lightest bin) across at
        most ``jobs`` worker tasks and dispatched in a single pool map;
        results come back positionally aligned with ``groups``.

        Group membership only moves work between processes — every
        profile is built by the same serial
        :func:`~repro.core.candidates.build_allocation_profile` call —
        so batching cannot change results.
        """
        if not groups:
            return []
        bins: List[List[Tuple[int, Sequence[Tuple[TypeId, ...]], Optional[int]]]] = [
            [] for _ in range(min(self.jobs, len(groups)))
        ]
        loads = [0] * len(bins)
        order = sorted(
            range(len(groups)), key=lambda i: len(groups[i][0]), reverse=True
        )
        for group_index in order:
            subsets, cap = groups[group_index]
            lightest = loads.index(min(loads))
            bins[lightest].append((group_index, list(subsets), cap))
            loads[lightest] += len(subsets)
        payloads = [(snapshot, bin_groups) for bin_groups in bins if bin_groups]
        results: List[Optional[List[ProfilePayload]]] = [None] * len(groups)
        for bin_result in self._map(_profile_groups_shard, payloads):
            for group_index, group_payloads in bin_result:
                results[group_index] = group_payloads
        return results

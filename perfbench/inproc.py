"""Closed-loop driver for the workloads that call the library in-process.

A workload supplies set-up passes, rounds of identical ops and an
oracle; this module times the rounds, verifies every answer after the
timed window, and assembles the end-to-end or per-layer metrics.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Dict, List, Optional, Tuple

from . import layers
from . import spans as spanlib
from .common import (
    END_TO_END_UNITS, SETUP_PASSES, WRONG_DIGEST, Placement, Rounds, metric, peak_rss_mb,
)


class Phase:
    """What one timed window produced."""

    def __init__(self, tail_pct: float) -> None:
        self.rounds = Rounds(tail_pct)
        #: (op key, payload digest) per answered op.
        self.answers: List[Tuple[object, str]] = []
        #: Op key -> its latencies, for the run record.
        self.op_latencies: Dict[str, List[float]] = {}
        self.engine_infos: List[Dict[str, object]] = []
        self.kernel: Dict[str, int] = {}
        self.plan: Dict[str, int] = {}
        self.start_ns = 0
        self.end_ns = 0

    @property
    def ops_per_s(self) -> float:
        return self.rounds.metrics()["ops_per_s"]


def timed_phase(workload, seconds: float, recorder=None) -> Phase:
    """Run whole rounds until ``seconds`` have passed (at least one round).

    Each round's payloads are reduced to digests once its timer stops,
    so a run's answers never stay live and count in ``peak_rss_mb``.
    """
    from repro import kernel, plan
    from repro.workload import payload_digest

    phase = Phase(workload.tail_pct)
    gc.collect()
    kernel_before = kernel.kernel_stats()
    plan_before = plan.decision_counts()
    placement = Placement()
    phase.start_ns = time.perf_counter_ns()
    deadline = time.perf_counter() + seconds
    try:
        while True:
            placement.next_round()
            began = time.perf_counter()
            answered, infos = workload.round(recorder)
            phase.rounds.add([latency for _, latency, _ in answered], time.perf_counter() - began)
            for key, latency, payload in answered:
                phase.answers.append((key, payload_digest(payload)))
                phase.op_latencies.setdefault(repr(key), []).append(latency)
            phase.engine_infos.extend(infos)
            if time.perf_counter() >= deadline:
                break
    finally:
        placement.release()
    phase.end_ns = time.perf_counter_ns()
    phase.kernel = layers.counter_delta(kernel.kernel_stats(), kernel_before)
    phase.plan = layers.counter_delta(plan.decision_counts(), plan_before)
    return phase


def setup_pass(workload) -> Tuple[int, int]:
    """One set-up pass; returns its ``perf_counter_ns`` window.

    The previous pass's state is dropped and collected first, outside
    the window, so two passes never hold their inputs at once.
    """
    workload.close()
    gc.collect()
    start = time.perf_counter_ns()
    workload.setup_pass()
    return start, time.perf_counter_ns()


def setup(workload, passes: int) -> List[float]:
    """Run ``passes`` timed set-up passes; the last one stays live."""
    windows = [setup_pass(workload) for _ in range(passes)]
    return [(end - start) / 1e9 for start, end in windows]


def failures(phase: Phase, expected: Dict[object, str]) -> List[object]:
    """Keys of the answers whose payload digest differs from the oracle's."""
    return [key for key, digest in phase.answers if digest != expected[key]]


def engine_totals(infos: List[Dict[str, object]]) -> Dict[str, float]:
    """Cumulative engine counters summed; cache sizes averaged per engine."""
    totals: Dict[str, float] = {}
    for name in ("hits", "misses", "evicted", "retained", "invalidations"):
        totals[name] = sum(info[name] for info in infos)
    for name in ("results", "profile_groups"):
        totals[name] = statistics.mean(info[name] for info in infos) if infos else 0
    return totals


def run(workload, seconds: float, trace: bool, corrupt: bool = False,
        setup_passes: Optional[int] = None):
    """One run: set-up, timed window(s), verification, metrics.

    Returns ``(summary, record, recorder)``: the result object the
    benchmark prints, the full run record, and the traced run's span
    recorder (None untraced).  ``corrupt`` swaps one expected digest for
    a wrong one (the self-test's failure-accounting check).
    """
    setups = setup(workload, setup_passes or SETUP_PASSES)
    record: Dict[str, object] = {"setup_s_passes": setups}
    recorder: Optional[spanlib.Recorder] = None
    if trace:
        untraced = timed_phase(workload, seconds / 2)
        recorder = spanlib.Recorder()
        installation = spanlib.install(recorder)
        recorder.watch_gc()
        try:
            setup_window = setup_pass(workload)
            phase = timed_phase(workload, seconds / 2, recorder)
        finally:
            installation.uninstall()
            recorder.unwatch_gc()
        phases = [untraced, phase]
    else:
        phase = timed_phase(workload, seconds)
        phases = [phase]
    rss = peak_rss_mb()
    expected = workload.expected()
    if corrupt:
        expected[phase.answers[0][0]] = WRONG_DIGEST
    failed = [key for p in phases for key in failures(p, expected)]
    attempted = sum(len(p.answers) for p in phases)
    record.update(
        rounds=phase.rounds.describe(),
        op_median_ms={
            key: round(1e3 * statistics.median(values), 4)
            for key, values in sorted(phase.op_latencies.items())
        },
        kernel=phase.kernel,
        plan=phase.plan,
        failed_keys=[repr(key) for key in failed[:10]],
        rss_mb=rss,
    )
    if trace:
        window = (recorder, phase.start_ns, phase.end_ns)
        metrics = layers.per_layer_metrics(
            ops=phase.rounds.ops,
            timed=[window],
            setup=(recorder, *setup_window),
            kernel=phase.kernel,
            engine=engine_totals(phase.engine_infos),
            plan=phase.plan,
            gc_window=window,
            untraced_share=layers.root_untraced_share(*window),
            overhead=untraced.ops_per_s / phase.ops_per_s,
        )
        record["nesting_violations"] = len(spanlib.nesting_violations(recorder.spans))
        record["spans"] = len(recorder.spans)
    else:
        values = dict(phase.rounds.metrics(), setup_s=statistics.median(setups), peak_rss_mb=rss)
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    summary = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }
    return summary, record, recorder

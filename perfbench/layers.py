"""Per-layer metrics of a traced run, assembled from spans and counters."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional, Sequence, Tuple

from . import spans as spanlib
from .common import PER_LAYER_UNITS, SELF_TIME_METRICS, metric

#: A recorder plus the ``[start_ns, end_ns]`` window its spans count in.
Window = Tuple[spanlib.Recorder, int, int]


def _totals(windows: Sequence[Window]) -> Dict[str, Dict[str, float]]:
    merged: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_ns": 0, "size": 0}
    )
    for recorder, start, end in windows:
        indices = spanlib.window(recorder.spans, start, end)
        for layer, entry in spanlib.layer_totals(recorder.spans, indices).items():
            for key, value in entry.items():
                merged[layer][key] += value
    return merged


def root_untraced_share(recorder: spanlib.Recorder, start: int, end: int) -> float:
    """Share of ``op`` span time that no layer span covers."""
    selfs = spanlib.self_times(recorder.spans)
    total = covered_out = 0
    for i in spanlib.window(recorder.spans, start, end):
        span = recorder.spans[i]
        if span[spanlib.LAYER] == "op":
            total += span[spanlib.END] - span[spanlib.START]
            covered_out += selfs[i]
    return covered_out / total if total else 0.0


def per_layer_metrics(
    *,
    ops: int,
    timed: Sequence[Window],
    setup: Optional[Window],
    kernel: Dict[str, int],
    engine: Dict[str, float],
    plan: Dict[str, int],
    gc_window: Window,
    untraced_share: float,
    overhead: float,
    serve: Optional[Dict[str, float]] = None,
) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric; layers a workload never reaches read 0.

    ``*_ms`` metrics are self time per timed op, except
    ``datasets.generate_ms`` and ``store.build_ms`` (and ``store.bytes``),
    which run only in set-up and are reported per set-up pass.
    """
    ops = max(1, ops)
    totals = _totals(timed)
    values: Dict[str, float] = {}
    for layer, name in SELF_TIME_METRICS.items():
        values[name] = totals[layer]["self_ns"] / 1e6 / ops
    setup_totals = _totals([setup]) if setup else defaultdict(
        lambda: {"calls": 0, "self_ns": 0, "size": 0}
    )
    values["datasets.generate_ms"] = setup_totals["datasets.generate"]["self_ns"] / 1e6
    values["store.build_ms"] = setup_totals["store.build"]["self_ns"] / 1e6
    values["store.bytes"] = setup_totals["store.build"]["size"]
    values["graph.cliques_calls"] = totals["graph.cliques"]["calls"] / ops
    values["kernel.batches"] = kernel.get("batches", 0) / ops
    values["kernel.subsets"] = kernel.get("subsets", 0) / ops
    scored = totals["kernel.score"]["size"]
    values["kernel.ns_per_subset"] = (
        totals["kernel.score"]["self_ns"] / scored if scored else 0.0
    )
    profiles = totals["core.profile"]["calls"]
    answers = totals["engine"]["size"]
    values["core.profiles"] = profiles / ops
    values["core.profiles_per_answer"] = profiles / answers if answers else 0.0
    lookups = engine.get("hits", 0) + engine.get("misses", 0)
    values["engine.hit_ratio"] = engine.get("hits", 0) / lookups if lookups else 0.0
    for name in ("misses", "evicted", "retained", "invalidations"):
        values[f"engine.{name}"] = engine.get(name, 0) / ops
    values["engine.results"] = engine.get("results", 0)
    values["engine.profile_groups"] = engine.get("profile_groups", 0)
    for name in ("serial", "sharded", "model_warm", "fallback"):
        values[f"plan.{name}"] = plan.get(name, 0) / ops
    values["parallel.dispatches"] = totals["parallel.dispatch"]["calls"] / ops
    serve = serve or {}
    for name in ("wire_ms_p50", "fast_path_share", "wait_ms", "errors"):
        values[f"serve.{name}"] = serve.get(name, 0.0)
    gc_recorder, gc_start, gc_end = gc_window
    pause, gen2 = spanlib.gc_totals(gc_recorder.gc_events, gc_start, gc_end)
    values["gc.pause_ms"] = pause / 1e6 / ops
    values["gc.gen2_collections"] = gen2 / ops
    values["trace.untraced_share"] = untraced_share
    values["trace.overhead"] = overhead
    return {name: metric(values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def counter_delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    """``after - before`` per numeric key."""
    return {
        key: value - before.get(key, 0)
        for key, value in after.items()
        if isinstance(value, (int, float))
    }

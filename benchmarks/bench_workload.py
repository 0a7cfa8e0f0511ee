"""Workload benchmark — per-path replay throughput on a common trace.

One deterministic mixed read/write trace (Zipf-skewed hot queries over
the film domain, interleaved mutation bursts) is replayed through every
execution path by the differential oracle, which simultaneously proves
the payloads bit-identical and measures per-path wall time.  The
recorded ops/sec are the numbers the four subsystems can be regressed
against: the serial path prices a from-scratch rebuild per read, the
incremental path shows what the delta pipeline and memo caches save,
the sharded path adds the process-pool round trip, and the serve path
adds the full socket/protocol stack (response cache included).

Required: all paths bit-identical, recorded digests reproduced, and the
warm incremental path at least ``SPEEDUP_FLOOR``x the ops/sec of the
from-scratch serial oracle (the hot-query regime is exactly what the
engine's memo exists for).

The record lands in ``BENCH_workload.json`` at the repo root.  Run
directly (``PYTHONPATH=src python benchmarks/bench_workload.py``) or
through pytest (``pytest benchmarks/bench_workload.py``).
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import SCALE, SEED  # noqa: E402

from repro import kernel, plan  # noqa: E402
from repro.workload import (  # noqa: E402
    ScenarioSpec,
    format_report,
    generate_trace,
    record_digests,
    run_conformance,
)

DOMAIN = "film"
OPS = 64
#: The benchmark scenario: hot-query dominated with real write pressure.
SPEC = ScenarioSpec(
    name="bench-mixed",
    mutate_rate=0.25,
    burst_length=3,
    structural_rate=0.05,
    relationship_rate=0.5,
    sweep_rate=0.12,
    stats_rate=0.05,
    zipf_exponent=1.2,
    clients=2,
    query_pool=8,
)
JOBS = 2
#: Required incremental-over-serial replay throughput ratio.
SPEEDUP_FLOOR = 1.2
RESULT_FILE = Path(__file__).resolve().parents[1] / "BENCH_workload.json"


def run_benchmark():
    trace = generate_trace(
        domain=DOMAIN, scale=SCALE, seed=SEED, ops=OPS, scenario=SPEC
    )
    trace = record_digests(trace)
    plan_before = plan.decision_counts()
    report = run_conformance(trace, jobs=JOBS)
    plan_after = plan.decision_counts()
    plan_decisions = {
        key: plan_after[key] - plan_before.get(key, 0)
        for key in plan_after
        if plan_after[key] - plan_before.get(key, 0)
    }

    paths = {
        path: {
            "ops_per_sec": stats["ops_per_sec"],
            "seconds": stats["seconds"],
        }
        for path, stats in report["paths"].items()
    }
    speedup = (
        paths["incremental"]["ops_per_sec"] / paths["serial"]["ops_per_sec"]
        if paths["serial"]["ops_per_sec"] > 0
        else float("inf")
    )
    payload = {
        "benchmark": "workload",
        "domain": DOMAIN,
        "scale": SCALE,
        "seed": SEED,
        "ops": OPS,
        "reads": trace.read_count,
        "mutations": trace.mutation_count,
        "scenario": trace.scenario,
        "jobs": JOBS,
        "kernel_backend": kernel.backend_name(),
        "shard_threshold": kernel.active_backend().shard_threshold,
        "plan_mode": plan.plan_mode(),
        "plan_decisions": plan_decisions,
        "paths": paths,
        "identical": report["identical"],
        "first_divergence": report["first_divergence"],
        "recorded_digests_ok": report["recorded_digests"]["ok"],
        "incremental_over_serial": round(speedup, 3),
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_met": speedup >= SPEEDUP_FLOOR,
        "report": format_report(report),
    }
    RESULT_FILE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def check(payload):
    assert payload["identical"], (
        f"replay paths diverged: {payload['first_divergence']}"
    )
    assert payload["recorded_digests_ok"], "recorded digests not reproduced"
    assert payload["speedup_met"], (
        f"warm incremental replay only {payload['incremental_over_serial']:.2f}x "
        f"the serial from-scratch oracle (floor {payload['speedup_floor']}x): "
        f"{payload['paths']['incremental']['ops_per_sec']:.1f} vs "
        f"{payload['paths']['serial']['ops_per_sec']:.1f} ops/s"
    )


def test_workload_conformance_throughput(benchmark):
    payload = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
    check(payload)


if __name__ == "__main__":
    result = run_benchmark()
    print(result["report"])
    check(result)
    print(
        f"\nconformance on {result['ops']} ops ({result['reads']} reads, "
        f"{result['mutations']} mutations): all paths bit-identical; "
        f"incremental {result['incremental_over_serial']:.1f}x serial "
        f"(floor {result['speedup_floor']}x)"
    )

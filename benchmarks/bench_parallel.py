"""Parallel sharding benchmark — serial vs process-pool subset evaluation.

Runs the paper's Alg. 1/3 hot loop — "enumerate qualifying k-subsets,
ComputePreview each, keep the max" — on the music domain (the largest
efficiency-experiment domain) two ways and records both wall times:

* **serial** — ``apriori_discover`` / ``brute_force_discover`` at
  ``jobs=1``, the seed behavior;
* **sharded** — the same calls at ``jobs=4``: the qualifying-subset list
  is chunked across worker processes, each worker scores its shard
  against a picklable :class:`~repro.parallel.ScoringSnapshot`, and the
  parent materializes the winner (see :mod:`repro.parallel`).

The Fig. 9-style grid leans on the constraint the paper itself flags as
expensive (tight ``d=3`` at ``k=4``: ~250k qualifying subsets on music),
where per-subset allocation dominates and sharding pays off; the cheap
points document that tiny workloads do not.

Asserts the sharded results are *bit-identical* to serial at every
point (always), and that sharding is at least 2x faster.  The legs pin
the execution planner (``REPRO_PLAN``-style forcing via
:func:`repro.plan.use_mode`) so each measures what it claims: the
serial leg under ``serial``, the sharded leg under ``sharded``.  On a
single-core box the planner's affinity veto
(``vetoed_single_core: true`` in the record) makes worker processes
pure overhead, so the speedup floor is *skipped* there instead of
asserted — a wall-clock claim about parallel hardware is unfalsifiable
without the hardware; identity is still asserted.  Wall times and the
planner's per-leg decision counters land in ``BENCH_parallel.json`` at
the repo root.

Run directly (``PYTHONPATH=src python benchmarks/bench_parallel.py``)
or through pytest (``pytest benchmarks/bench_parallel.py``).
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import domain_context  # noqa: E402

from repro import kernel, plan  # noqa: E402
from repro.core import apriori_discover, brute_force_discover  # noqa: E402
from repro.core.constraints import (  # noqa: E402
    DistanceConstraint,
    SizeConstraint,
)

DOMAIN = "music"
JOBS = 4
#: Required sharded-over-serial speedup — asserted only on hardware with
#: at least JOBS usable cores (see module docstring).
SPEEDUP_FLOOR = 2.0
RESULT_FILE = Path(__file__).resolve().parents[1] / "BENCH_parallel.json"

#: Fig. 9-style (k, n, d) points.  Tight d=3 is the expensive radius the
#: paper highlights (~250k qualifying subsets at k=4 on music); the
#: diverse point shows the small-workload end of the same grid.
APRIORI_POINTS = (
    (4, 14, 3, "tight"),
    (4, 14, 4, "diverse"),
)
#: Brute-force points: the concise k=3 budget sweep enumerates all
#: C(69, 3) = 52,394 key subsets; the tight point filters them first.
BRUTE_FORCE_POINTS = (
    (3, 12, None, None),
    (3, 12, 2, "tight"),
)


def run_points(context, discover, points, jobs, mode_name):
    """Time one leg with the planner pinned to ``mode_name``."""
    results = []
    before = plan.decision_counts()
    with plan.use_mode(mode_name):
        start = time.perf_counter()
        for k, n, d, mode in points:
            size = SizeConstraint(k=k, n=n)
            distance = (
                DistanceConstraint.from_mode(d, mode) if d is not None else None
            )
            if discover is apriori_discover:
                results.append(
                    apriori_discover(context, size, distance, jobs=jobs)
                )
            else:
                results.append(
                    brute_force_discover(context, size, distance, jobs=jobs)
                )
        elapsed_ms = (time.perf_counter() - start) * 1000.0
    after = plan.decision_counts()
    decisions = {
        key: after[key] - before.get(key, 0)
        for key in after
        if after[key] - before.get(key, 0)
    }
    return elapsed_ms, results, decisions


def compare(points, serial_results, sharded_results):
    mismatches = []
    for point, serial, sharded in zip(points, serial_results, sharded_results):
        if serial != sharded:  # DiscoveryResult equality is exact, not approx
            mismatches.append(str(point))
    return mismatches


def bench_leg(name, context, discover, points):
    serial_ms, serial_results, serial_decisions = run_points(
        context, discover, points, jobs=1, mode_name="serial"
    )
    sharded_ms, sharded_results, sharded_decisions = run_points(
        context, discover, points, jobs=JOBS, mode_name="sharded"
    )
    speedup = serial_ms / sharded_ms if sharded_ms > 0 else float("inf")
    return {
        "algorithm": name,
        "points": [list(point) for point in points],
        "serial_ms": round(serial_ms, 3),
        "sharded_ms": round(sharded_ms, 3),
        "speedup": round(speedup, 3),
        "plan_decisions": {
            "serial_leg": serial_decisions,
            "sharded_leg": sharded_decisions,
        },
        "mismatches": compare(points, serial_results, sharded_results),
    }


def run_benchmark():
    context = domain_context(DOMAIN)
    context.candidate_pool()  # shared precomputation outside both timings
    cpus = plan.usable_cpus()
    legs = [
        bench_leg("apriori", context, apriori_discover, APRIORI_POINTS),
        bench_leg(
            "brute-force", context, brute_force_discover, BRUTE_FORCE_POINTS
        ),
    ]
    # The planner's single-core veto: with one usable core, worker
    # processes serialize and the sharded leg measures pure dispatch
    # overhead — its speedup says nothing about the sharded path.
    vetoed = min(JOBS, cpus) <= 1
    payload = {
        "benchmark": "parallel_sharding",
        "domain": DOMAIN,
        "jobs": JOBS,
        "cpus": cpus,
        "kernel_backend": kernel.backend_name(),
        "shard_threshold": kernel.active_backend().shard_threshold,
        "vetoed_single_core": vetoed,
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_met": all(leg["speedup"] >= SPEEDUP_FLOOR for leg in legs),
        "identical": all(not leg["mismatches"] for leg in legs),
        "legs": legs,
    }
    RESULT_FILE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def check(payload):
    for leg in payload["legs"]:
        assert not leg["mismatches"], (
            f"sharded {leg['algorithm']} diverged from serial at: "
            f"{leg['mismatches']}"
        )
    if payload["vetoed_single_core"]:
        # The planner vetoed sharding on this hardware: any speedup
        # number is dispatch overhead, not evidence.  Identity was
        # asserted above; the floor is meaningless here.
        return
    for leg in payload["legs"]:
        if leg["speedup"] >= payload["speedup_floor"]:
            continue
        # Only demonstrably missing cores excuse a miss of the floor.
        assert payload["cpus"] < payload["jobs"], (
            f"sharded {leg['algorithm']} only {leg['speedup']:.2f}x faster "
            f"than serial at jobs={payload['jobs']} (floor "
            f"{payload['speedup_floor']}x) on a {payload['cpus']}-core "
            f"machine: serial {leg['serial_ms']:.1f} ms, sharded "
            f"{leg['sharded_ms']:.1f} ms"
        )


def test_parallel_sharding(benchmark):
    payload = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
    check(payload)


if __name__ == "__main__":
    result = run_benchmark()
    print(json.dumps(result, indent=2, sort_keys=True))
    check(result)
    for leg in result["legs"]:
        print(
            f"{leg['algorithm']}: serial {leg['serial_ms']:.0f} ms, "
            f"jobs={result['jobs']} sharded {leg['sharded_ms']:.0f} ms "
            f"({leg['speedup']:.2f}x), identical results"
        )
    if result["vetoed_single_core"]:
        print(
            "note: planner vetoed sharding (single usable core); speedup "
            "floor skipped, identity still asserted"
        )
    elif not result["speedup_met"]:
        print(
            f"note: {result['speedup_floor']}x floor missed with only "
            f"{result['cpus']} usable core(s); identity was still asserted"
        )

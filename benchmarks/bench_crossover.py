"""Serial/sharded crossover ladder — the evidence for each shard threshold.

Each kernel backend's ``shard_threshold`` (see :mod:`repro.plan`) is
the smallest batch, in qualifying subsets, that the ``auto`` planner
sends to a worker pool.  This script measures where that is.  For every
batched backend available (python, and numpy when installed; the
oracle inherits python's constant) it scores a ladder of music
``(k, d, mode)`` groups from 5,861 to 864,501 qualifying subsets,
serial against a warm 2-worker pool, in :data:`CROSSOVER_PAIRS`
alternating pairs per point.  Each round visits the points in a new
seeded order with an idle gap before every call, as between served
requests.

A backend's measured threshold is the smallest point where sharding
won at least 9 in every 10 pairs (None if no point did).  The record,
``BENCH_crossover.json`` at the repo root, holds the ladder and the
measured thresholds; the constants live only in the code, and the
console summary prints each beside its measurement.  Bit-identity of
serial and sharded winners is asserted at every point.

The ladder takes about eight minutes on 2 cores, so it is run by hand
when the constants are re-measured, never in CI; run nothing else on
the machine meanwhile, or the win counts move::

    PYTHONPATH=src python benchmarks/bench_crossover.py
"""

import json
import platform
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import domain_context  # noqa: E402

from repro import kernel, plan  # noqa: E402
from repro.core.apriori import qualifying_subsets  # noqa: E402
from repro.core.constraints import (  # noqa: E402
    DistanceConstraint,
    SizeConstraint,
)
from repro.parallel import ScoringSnapshot, ShardedExecutor  # noqa: E402

DOMAIN = "music"
RESULT_FILE = Path(__file__).resolve().parents[1] / "BENCH_crossover.json"

#: The ladder: music ``(k, n, d, mode)`` groups ordered by
#: qualifying-subset count (the count depends only on the schema and
#: on ``(k, d, mode)``, never on scale).  The last point is every
#: 4-subset of music's 69 key types.
CROSSOVER_POINTS = (
    (4, 14, 2, "tight"),  # 5,861 subsets
    (3, 12, 3, "diverse"),  # 16,738
    (3, 12, 3, "tight"),  # 25,905
    (3, 12, 2, "diverse"),  # 42,137
    (3, 12, 4, "tight"),  # 49,223
    (3, 12, 1, "diverse"),  # 52,394
    (4, 14, 3, "diverse"),  # 93,106
    (4, 14, 3, "tight"),  # 246,926
    (4, 14, 2, "diverse"),  # 558,549
    (4, 14, 1, "diverse"),  # 864,501
)
#: Workers of the pool: the planner's decision on a 2-core box.
CROSSOVER_JOBS = 2
#: Alternating serial/sharded pairs per ladder point.  Near the
#: crossover sharding wins 7 to 9 pairs in 10, so 10 pairs moved the
#: measured threshold by a ladder step from run to run; 40 steady it.
CROSSOVER_PAIRS = 40
#: A point shards under ``auto`` once sharding wins 9 in every 10 pairs.
CROSSOVER_WINS = CROSSOVER_PAIRS * 9 // 10
#: Idle time before every timed call, as between served requests.
IDLE_GAP_S = 0.02
CROSSOVER_SEED = 19


def ladder_backends():
    """The batched backends available here, each laddered on its own.

    The oracle backend is the per-subset conformance path, not a
    serving backend: it inherits the python backend's threshold.
    """
    available = kernel.available_backends()
    return tuple(name for name in ("python", "numpy") if name in available)


def timed(call):
    """``(seconds, result)`` of one call made after an idle gap."""
    time.sleep(IDLE_GAP_S)
    start = time.perf_counter()
    result = call()
    return time.perf_counter() - start, result


def measured_threshold(points):
    """The smallest ladder point where sharding won enough pairs, or None."""
    for point in points:
        if point["sharded_wins"] >= CROSSOVER_WINS:
            return point["subsets"]
    return None


def crossover_leg(context, backend):
    """Serial vs sharded at every ladder point under ``backend``.

    Each backend scores the subsets its own enumeration returns (a list
    of tuples for python, an index matrix for numpy), the serial call
    lowers the pool as :func:`repro.kernel.best_allocation` does per
    dispatch, and the sharded call reuses one snapshot and one warm
    pool, as a long-lived engine does.  Every round visits the points
    in a new seeded order and alternates which side runs first.
    """
    pool = context.candidate_pool()
    snapshot = ScoringSnapshot.from_pool(pool)
    rng = random.Random(CROSSOVER_SEED)
    with kernel.use_backend(backend):
        groups = [
            qualifying_subsets(
                context,
                SizeConstraint(k=k, n=n),
                DistanceConstraint.from_mode(d, mode),
            )
            for k, n, d, mode in CROSSOVER_POINTS
        ]
        times = {
            side: [[] for _ in CROSSOVER_POINTS] for side in ("serial", "sharded")
        }
        identical = [True] * len(CROSSOVER_POINTS)
        order = list(range(len(CROSSOVER_POINTS)))
        with ShardedExecutor(CROSSOVER_JOBS) as executor:
            # Start the workers outside every timing.
            executor.best_allocation(snapshot, groups[0][:CROSSOVER_JOBS], 1)
            for pair in range(CROSSOVER_PAIRS):
                rng.shuffle(order)
                for at in order:
                    k, n = CROSSOVER_POINTS[at][:2]
                    subsets, extra_cap = groups[at], n - k
                    calls = [
                        ("serial", lambda: kernel.best_allocation(
                            pool, subsets, extra_cap
                        )),
                        ("sharded", lambda: executor.best_allocation(
                            snapshot, subsets, extra_cap
                        )),
                    ]
                    if pair % 2:
                        calls.reverse()
                    answers = {}
                    for side, call in calls:
                        seconds, answers[side] = timed(call)
                        times[side][at].append(seconds)
                    serial, sharded = answers["serial"], answers["sharded"]
                    if serial is None or sharded is None:
                        identical[at] &= serial is sharded
                    else:
                        identical[at] &= (
                            serial[0].hex() == sharded[0].hex()
                            and serial[1] == sharded[1]
                        )
    points = []
    for at, (k, n, d, mode) in enumerate(CROSSOVER_POINTS):
        serial_s, sharded_s = times["serial"][at], times["sharded"][at]
        serial_ms = 1e3 * statistics.median(serial_s)
        sharded_ms = 1e3 * statistics.median(sharded_s)
        points.append(
            {
                "point": [k, n, d, mode],
                "subsets": len(groups[at]),
                "serial_ms": round(serial_ms, 3),
                "sharded_ms": round(sharded_ms, 3),
                "speedup": round(serial_ms / sharded_ms, 3),
                "sharded_wins": sum(
                    sharded < serial for serial, sharded in zip(serial_s, sharded_s)
                ),
                "identical": identical[at],
            }
        )
    points.sort(key=lambda point: point["subsets"])
    return {
        "backend": backend,
        "points": points,
        "measured_threshold": measured_threshold(points),
    }


def numpy_version():
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def run_benchmark():
    context = domain_context(DOMAIN)
    context.candidate_pool()  # shared precomputation outside every timing
    payload = {
        "benchmark": "serial_sharded_crossover",
        "domain": DOMAIN,
        "cpus": plan.usable_cpus(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "jobs": CROSSOVER_JOBS,
        "pairs": CROSSOVER_PAIRS,
        "wins_needed": CROSSOVER_WINS,
        "idle_gap_ms": round(IDLE_GAP_S * 1e3, 3),
        "backends": [
            crossover_leg(context, backend) for backend in ladder_backends()
        ],
    }
    RESULT_FILE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def check(payload):
    for ladder in payload["backends"]:
        diverged = [
            point["subsets"] for point in ladder["points"] if not point["identical"]
        ]
        assert not diverged, (
            f"sharded {ladder['backend']} scoring diverged from serial at "
            f"{diverged} subsets"
        )


if __name__ == "__main__":
    result = run_benchmark()
    check(result)
    for ladder in result["backends"]:
        print(f"crossover, {ladder['backend']} backend:")
        for point in ladder["points"]:
            print(
                f"  {point['subsets']:>9,} subsets: serial "
                f"{point['serial_ms']:8.1f} ms, sharded "
                f"{point['sharded_ms']:8.1f} ms ({point['speedup']:.2f}x), "
                f"sharding won {point['sharded_wins']}/{result['pairs']}"
            )
        print(
            f"  measured threshold {ladder['measured_threshold']}, code "
            f"constant {kernel.get_backend(ladder['backend']).shard_threshold}"
        )
    print("identical results at every point")

"""Engine sweep benchmark — PreviewEngine.sweep against two loops.

Runs on the music domain (the largest efficiency-experiment domain).  A
sweep answers each tight/diverse point exactly like a one-shot query —
one batched kernel call over the ``(k, d, mode)`` group's qualifying
subsets, then one allocation profile for the winner — so what it shares
across points is the group's clique enumeration (plus the memo).  Two
legs:

* **naive grid** — a Fig. 9-style ``(k, n, d)`` grid answered by one
  :func:`repro.core.discover_preview` call per point, the way the seed
  code ran parameter sweeps (every point re-enumerates the Apriori
  compatibility cliques), against one
  :meth:`repro.engine.PreviewEngine.sweep` over the same grid.  The
  engine must be at least ``SPEEDUP_FLOOR``x faster.
* **one-shot loop** — the paper's expensive tight ``d=3`` group at
  ``k=4`` over ``n`` in ``D3_NS`` (about 250k qualifying subsets): one
  sweep on a fresh engine against one :meth:`PreviewEngine.run` per
  point, each on its own fresh engine over the same context — the best
  path a caller has without the sweep.  The sweep must be no slower.
  The leg also records the bytes the sweep leaves live (tracemalloc,
  engine still held), in a separate untimed pass.

Both legs assert that the two sides agree at every point: same preview,
``float.hex``-identical score, same bookkeeping, and the same served
payload (:func:`repro.core.serialize.result_to_dict`).  Wall times (best
of ``RUNS``) land in ``BENCH_engine_sweep.json`` at the repo root so
later changes can track the trajectory.

Run directly (``PYTHONPATH=src python benchmarks/bench_engine_sweep.py``)
or through pytest (``pytest benchmarks/bench_engine_sweep.py``).
"""

import gc
import json
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import domain_context  # noqa: E402

from repro.core.serialize import result_to_dict  # noqa: E402
from repro.engine import PreviewEngine, PreviewQuery  # noqa: E402
from repro.exceptions import InfeasiblePreviewError  # noqa: E402

DOMAIN = "music"
KS = (3, 4, 5)
NS = (8, 10, 12, 14, 16)
#: The Fig. 9 domain-panel constraints (tight d=2, diverse d=4).  Wider
#: tight radii blow up the clique lattice (~80 s per point at d=3, k=5 —
#: the paper's own finding) and would make the grid impractical.
DISTANCES = ((2, "tight"), (4, "diverse"))
#: Required speedup of the engine sweep over the naive loop.
SPEEDUP_FLOOR = 2.0
#: The one-shot-loop leg: one expensive tight group, three budgets.
D3_K, D3_D, D3_MODE = 4, 3, "tight"
D3_NS = (10, 12, 14)
#: Best-of-N repetitions per timed side.
RUNS = 3
RESULT_FILE = Path(__file__).resolve().parents[1] / "BENCH_engine_sweep.json"


def build_grid():
    return list(PreviewQuery.grid(ks=KS, ns=NS, distances=DISTANCES))


def build_d3_sweep():
    return [PreviewQuery(k=D3_K, n=n, d=D3_D, mode=D3_MODE) for n in D3_NS]


def same_answer(a, b) -> bool:
    """Exact agreement: preview, score bits, bookkeeping and payload."""
    if a is None or b is None:
        return a is b
    return (
        a.preview == b.preview
        and a.score.hex() == b.score.hex()
        and a.algorithm == b.algorithm
        and a.candidates_examined == b.candidates_examined
        and result_to_dict(a) == result_to_dict(b)
    )


def mismatched(queries, expected, actual):
    return [
        query.describe()
        for query, a, b in zip(queries, expected, actual)
        if not same_answer(a, b)
    ]


def run_naive(context, queries):
    """Per-call facade loop: no state shared beyond the scoring context."""
    from repro.core import discover_preview

    results = []
    for query in queries:
        try:
            results.append(
                discover_preview(
                    context,
                    k=query.k,
                    n=query.n,
                    d=query.d,
                    mode=query.mode,
                    algorithm=query.algorithm,
                )
            )
        except InfeasiblePreviewError:
            results.append(None)
    return results


def run_one_shot_loop(context, queries):
    """One ``PreviewEngine.run`` per point, each on a fresh engine."""
    results = []
    for query in queries:
        try:
            results.append(PreviewEngine(context).run(query))
        except InfeasiblePreviewError:
            results.append(None)
    return results


def run_engine(context, queries):
    """Fresh engine per run (cold caches), one sweep over the grid."""
    engine = PreviewEngine(context)
    return engine.sweep(queries, skip_infeasible=True), engine


def time_runs(fn, runs=RUNS):
    """Best-of-N wall time in milliseconds plus the last return value."""
    best = float("inf")
    value = None
    for _ in range(runs):
        start = time.perf_counter()
        value = fn()
        best = min(best, (time.perf_counter() - start) * 1000.0)
    return best, value


def sweep_live_bytes(context, queries):
    """Bytes a cold sweep leaves allocated while its engine is alive."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        engine = PreviewEngine(context)
        engine.sweep(queries, skip_infeasible=True)
        gc.collect()
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return live


def run_d3_leg(context):
    """The expensive tight group: one sweep vs the one-shot loop."""
    queries = build_d3_sweep()
    loop_ms, loop_results = time_runs(lambda: run_one_shot_loop(context, queries))
    sweep_ms, (sweep_results, engine) = time_runs(
        lambda: run_engine(context, queries)
    )
    mismatches = mismatched(queries, loop_results, sweep_results)
    info = engine.cache_info()
    return {
        "point": {"k": D3_K, "d": D3_D, "mode": D3_MODE, "ns": list(D3_NS)},
        "subsets": info["kernel_subsets"] // len(queries),
        "loop_ms": round(loop_ms, 3),
        "sweep_ms": round(sweep_ms, 3),
        "sweep_over_loop": round(sweep_ms / loop_ms, 3) if loop_ms > 0 else None,
        "sweep_live_bytes": sweep_live_bytes(context, queries),
        "identical": not mismatches,
        "mismatches": mismatches,
        "scores_hex": [
            None if result is None else result.score.hex()
            for result in sweep_results
        ],
    }


def run_benchmark():
    context = domain_context(DOMAIN)
    context.candidate_pool()  # shared precomputation outside every timing
    queries = build_grid()

    naive_ms, naive_results = time_runs(lambda: run_naive(context, queries))
    engine_ms, (engine_results, engine) = time_runs(
        lambda: run_engine(context, queries)
    )
    mismatches = mismatched(queries, naive_results, engine_results)

    speedup = naive_ms / engine_ms if engine_ms > 0 else float("inf")
    payload = {
        "benchmark": "engine_sweep",
        "domain": DOMAIN,
        "grid": {
            "ks": list(KS),
            "ns": list(NS),
            "distances": [list(spec) for spec in DISTANCES],
        },
        "points": len(queries),
        "feasible_points": sum(1 for r in naive_results if r is not None),
        "naive_ms": round(naive_ms, 3),
        "engine_ms": round(engine_ms, 3),
        "speedup": round(speedup, 3),
        "speedup_floor": SPEEDUP_FLOOR,
        "identical": not mismatches,
        "mismatches": mismatches,
        "engine_cache": engine.cache_info(),
        "one_shot_loop": run_d3_leg(context),
    }
    RESULT_FILE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def check(payload):
    assert payload["identical"], (
        "engine sweep diverged from per-call discovery at: "
        f"{payload['mismatches']}"
    )
    assert payload["speedup"] >= SPEEDUP_FLOOR, (
        f"engine sweep only {payload['speedup']:.2f}x faster than the naive "
        f"loop (floor {SPEEDUP_FLOOR}x): naive {payload['naive_ms']:.1f} ms, "
        f"engine {payload['engine_ms']:.1f} ms"
    )
    leg = payload["one_shot_loop"]
    assert leg["identical"], (
        f"engine sweep diverged from one-shot runs at: {leg['mismatches']}"
    )
    assert leg["sweep_ms"] <= leg["loop_ms"], (
        f"the k={D3_K} {D3_MODE} d={D3_D} sweep took {leg['sweep_ms']:.1f} ms, "
        f"slower than {len(D3_NS)} one-shot runs ({leg['loop_ms']:.1f} ms)"
    )


def test_engine_sweep(benchmark):
    payload = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
    check(payload)


if __name__ == "__main__":
    result = run_benchmark()
    print(json.dumps(result, indent=2, sort_keys=True))
    check(result)
    leg = result["one_shot_loop"]
    print(
        f"\nengine sweep: {result['points']} points, "
        f"{result['speedup']:.2f}x faster than the naive loop; "
        f"k={D3_K} {D3_MODE} d={D3_D} sweep {leg['sweep_ms']:.0f} ms vs "
        f"{leg['loop_ms']:.0f} ms for {len(D3_NS)} one-shot runs, "
        f"{leg['sweep_live_bytes'] / 2**20:.1f} MiB live "
        f"(recorded to {RESULT_FILE.name})"
    )

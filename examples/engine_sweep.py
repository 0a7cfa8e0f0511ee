"""Cached parameter sweeps with the PreviewEngine.

Sizing a preview means exploring the ``(k, n, d)`` space — the paper's
Fig. 9 grids.  The naive way re-runs full discovery per point; the
engine enumerates the Apriori compatibility cliques once per
``(k, d, mode)`` group, answers every ``n`` with one batched kernel call
over them, and memoizes results so a repeated sweep is free.  This
example runs the same grid both ways on a built-in domain, checks the
results agree, and prints the timings and cache counters.

Run:  PYTHONPATH=src python examples/engine_sweep.py
"""

import time

from repro import PreviewEngine, PreviewQuery, discover_preview, make_context
from repro.datasets import load_domain


def main():
    graph = load_domain("architecture", scale=1000, seed=0)
    # One scoring context shared by both loops, so the comparison isolates
    # what the engine adds on top of score precomputation.
    context = make_context(graph)
    engine = PreviewEngine(context)

    grid = list(
        PreviewQuery.grid(
            ks=(2, 3, 4),
            ns=range(6, 15, 2),
            distances=[(2, "tight"), (3, "diverse")],
        )
    )
    print(f"grid: {len(grid)} (k, n, d) points on the architecture domain\n")

    start = time.perf_counter()
    naive = []
    for q in grid:
        naive.append(
            discover_preview(context, k=q.k, n=q.n, d=q.d, mode=q.mode)
        )
    naive_ms = (time.perf_counter() - start) * 1000

    start = time.perf_counter()
    swept = engine.sweep(grid)
    engine_ms = (time.perf_counter() - start) * 1000

    assert all(
        a.preview == b.preview and a.score == b.score
        for a, b in zip(naive, swept)
    ), "engine sweep must match per-call discovery exactly"

    for q, result in zip(grid[:5], swept[:5]):
        print(f"  {q.describe():<24} score={result.score:10.1f}  {result.preview}")
    print(f"  ... {len(grid) - 5} more points\n")

    print(f"naive per-call loop : {naive_ms:8.1f} ms")
    print(f"engine sweep        : {engine_ms:8.1f} ms "
          f"({naive_ms / engine_ms:.1f}x faster)")

    # A repeated sweep is answered entirely from the memo cache.
    start = time.perf_counter()
    engine.sweep(grid)
    cached_ms = (time.perf_counter() - start) * 1000
    info = engine.cache_info()
    print(f"repeat sweep (warm) : {cached_ms:8.1f} ms "
          f"({info['hits']} hits, {info['misses']} misses)")


if __name__ == "__main__":
    main()

"""Incremental maintenance benchmark — delta pipeline vs. full rebuild.

The seed treated every mutation as a cache apocalypse: one ``add_entity``
bumped the generation, the engine dropped its memo, sweep subsets and
allocation profiles, and the next query rebuilt O(graph) state from
scratch.  The delta pipeline instead consumes the entity graph's
:class:`~repro.model.mutation_log.MutationLog`: scoring contexts and
candidate pools are patched in O(delta), the engine evicts only memo
entries whose key-type dependency set intersects the dirty types, and
the cached clique enumerations survive.  An evicted point is re-scored
by one batched kernel call over its whole clique group.

Two legs on the music domain (the largest efficiency-experiment domain),
at the paper's expensive tight ``d=3`` radius:

* **delta-query** — mutate a single entity of the *least-connected*
  eligible type, then answer the flagship ``k=4, n=14`` tight query on
  the long-lived engine.  Compared against the seed behavior: a full
  ``ScoringContext`` rebuild plus a cold engine answering the same
  query.  Results are asserted bit-identical and the delta path must be
  at least ``SPEEDUP_FLOOR``× faster.
* **retention** — mutate an entity of an *ineligible* type (one that
  cannot key any preview table) and re-run a warmed tight sweep: every
  cached point must be served from the memo (hits only, zero new
  misses, zero evictions) and still equal a from-scratch sweep.

Wall times land in ``BENCH_incremental.json`` at the repo root.  Run
directly (``PYTHONPATH=src python benchmarks/bench_incremental.py``) or
through pytest (``pytest benchmarks/bench_incremental.py``).
"""

import json
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import SCALE, SEED  # noqa: E402

from repro.core.candidates import eligible_key_types  # noqa: E402
from repro.core.constraints import DistanceConstraint  # noqa: E402
from repro.datasets import load_domain  # noqa: E402
from repro.engine import PreviewEngine, PreviewQuery  # noqa: E402
from repro.ext import IncrementalEntityGraph  # noqa: E402
from repro.graph.cliques import k_cliques  # noqa: E402
from repro.scoring import ScoringContext  # noqa: E402

DOMAIN = "music"
#: Flagship Fig. 9 point: tight d=3 at k=4 — ~250k qualifying subsets.
K, N, D, MODE = 4, 14, 3, "tight"
#: Sweep budgets warmed (and asserted retained) around the flagship n.
SWEEP_NS = (10, 12, 14)
#: Required delta-over-rebuild speedup for a single-type mutation.
SPEEDUP_FLOOR = 5.0
#: Mutate→query rounds aggregated per leg (keeps wall time modest while
#: smoothing scheduler noise).
ROUNDS = 3
#: The ineligible type used by the retention leg (no relationships ever,
#: so it cannot key a table and belongs to no dependency set).
IDLE_TYPE = "BENCH IDLE"
RESULT_FILE = Path(__file__).resolve().parents[1] / "BENCH_incremental.json"


def least_connected_type(context) -> str:
    """The eligible type in the fewest qualifying k-subsets.

    Re-enumerates the ``(K, D, MODE)`` clique group exactly the way the
    engine does, so the count reflects how many qualifying subsets a
    mutation of that type touches.
    """
    distance = DistanceConstraint.from_mode(D, MODE)
    oracle = context.schema.distance_oracle()
    key_pool = eligible_key_types(context)
    membership = Counter()
    for keys in k_cliques(
        key_pool,
        lambda a, b: distance.pair_ok(oracle, a, b),
        K,
        backend="apriori",
    ):
        for type_name in keys:
            membership[type_name] += 1
    return min(key_pool, key=lambda t: (membership.get(t, 0), str(t)))


def rebuild_answer(inc, query):
    """The seed path: full context rebuild + cold engine, one query."""
    context = ScoringContext(inc.schema, inc.entity_graph)
    return PreviewEngine(context).query(
        k=query.k, n=query.n, d=query.d, mode=query.mode
    )


def run_benchmark():
    graph = load_domain(DOMAIN, scale=SCALE, seed=SEED)  # private copy
    inc = IncrementalEntityGraph(base=graph)
    # Registered before warming so later IDLE mutations are
    # non-structural; the type never gets a relationship, so it stays
    # ineligible and outside every dependency set.
    inc.add_entity("bench-idle-0", [IDLE_TYPE])
    dirty_type = least_connected_type(inc.context())
    engine = inc.engine()
    grid = [PreviewQuery(k=K, n=n, d=D, mode=MODE) for n in SWEEP_NS]
    flagship = grid[-1]

    start = time.perf_counter()
    engine.sweep(grid)
    warm_ms = (time.perf_counter() - start) * 1000.0

    # -- Leg 1: delta mutate→query vs full rebuild ---------------------
    delta_ms = 0.0
    rebuild_ms = 0.0
    mismatches = []
    for round_index in range(ROUNDS):
        start = time.perf_counter()
        inc.add_entity(f"bench-delta-{round_index}", [dirty_type])
        delta_result = engine.query(k=K, n=N, d=D, mode=MODE)
        delta_ms += (time.perf_counter() - start) * 1000.0
        start = time.perf_counter()
        rebuilt_result = rebuild_answer(inc, flagship)
        rebuild_ms += (time.perf_counter() - start) * 1000.0
        if delta_result != rebuilt_result:  # exact, not approximate
            mismatches.append(f"round {round_index}")
    speedup = rebuild_ms / delta_ms if delta_ms > 0 else float("inf")

    # -- Leg 2: retention across an untouched-type mutation ------------
    engine.sweep(grid)  # re-memoize every point at the current generation
    before = engine.cache_info()
    inc.add_entity("bench-idle-1", [IDLE_TYPE])  # dirty = {IDLE_TYPE}
    retained = engine.sweep(grid)
    after = engine.cache_info()
    retention = {
        "points": len(grid),
        "hits_gained": after["hits"] - before["hits"],
        "misses_gained": after["misses"] - before["misses"],
        "evicted_gained": after["evicted"] - before["evicted"],
        "full_invalidations_gained": after["invalidations"]
        - before["invalidations"],
        "identical_to_rebuild": all(
            result == rebuild_answer(inc, query)
            for query, result in zip(grid, retained)
        ),
    }

    payload = {
        "benchmark": "incremental_delta",
        "domain": DOMAIN,
        "point": [K, N, D, MODE],
        "sweep_ns": list(SWEEP_NS),
        "rounds": ROUNDS,
        "dirty_type": dirty_type,
        "warm_ms": round(warm_ms, 3),
        "delta_ms": round(delta_ms, 3),
        "rebuild_ms": round(rebuild_ms, 3),
        "speedup": round(speedup, 3),
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_met": speedup >= SPEEDUP_FLOOR,
        "mismatches": mismatches,
        "retention": retention,
        "verified_against_rescan": inc.verify_against_rescan(),
    }
    RESULT_FILE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def check(payload):
    assert not payload["mismatches"], (
        "delta-maintained results diverged from full rebuild at: "
        f"{payload['mismatches']}"
    )
    assert payload["verified_against_rescan"], (
        "incremental aggregates or patched candidate pools diverged from "
        "a full rescan"
    )
    retention = payload["retention"]
    assert retention["identical_to_rebuild"], (
        "retained sweep points diverged from a from-scratch rebuild"
    )
    assert retention["hits_gained"] == retention["points"], (
        f"expected {retention['points']} memo hits after an untouched-type "
        f"mutation, got {retention['hits_gained']}"
    )
    assert retention["misses_gained"] == 0, (
        f"{retention['misses_gained']} sweep point(s) were re-executed "
        "after a mutation that touched no dependency"
    )
    assert retention["evicted_gained"] == 0, "untouched entries were evicted"
    assert retention["full_invalidations_gained"] == 0, (
        "an untouched-type mutation triggered a full invalidation"
    )
    assert payload["speedup"] >= payload["speedup_floor"], (
        f"delta mutate→query only {payload['speedup']:.2f}x faster than the "
        f"full rebuild (floor {payload['speedup_floor']}x): delta "
        f"{payload['delta_ms']:.1f} ms vs rebuild {payload['rebuild_ms']:.1f} "
        f"ms over {payload['rounds']} rounds"
    )


def test_incremental_delta(benchmark):
    payload = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
    check(payload)


if __name__ == "__main__":
    result = run_benchmark()
    print(json.dumps(result, indent=2, sort_keys=True))
    check(result)
    print(
        f"single-{result['dirty_type']!r} mutation on {result['domain']}: "
        f"delta {result['delta_ms']:.0f} ms vs full rebuild "
        f"{result['rebuild_ms']:.0f} ms over {result['rounds']} rounds "
        f"({result['speedup']:.1f}x), results identical; "
        f"{result['retention']['points']} untouched sweep points retained"
    )

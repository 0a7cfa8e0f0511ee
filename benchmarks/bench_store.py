"""Binary store benchmark — open → first answer vs regenerate → first answer.

A serve host, a replica or a user browsing datasets waits from "here is
a dataset" to "here is its first preview".  Without a store that path
is: regenerate the domain, build a :class:`PreviewEngine`, answer.  With
the persistent binary store (``docs/disk-store.md``) it is:
``open_store``, ``entity_graph()`` with its fingerprint verified, build
the engine, answer.  The headline compares those two whole paths at
every point of a scale ladder whose top is film at scale 30 (about 68k
entities, 1/30 of the paper's Table 2).

Each point is timed leg by leg, best of up to ``ROUNDS`` rounds (a leg
stops after ``MIN_ROUNDS`` once it has used ``LEG_BUDGET_S``):

* **first answer** — ``open_store`` + ``entity_graph(verify=True)`` +
  ``PreviewEngine`` + the flagship query: the headline;
* **regenerate first answer** — ``generate_domain`` + ``PreviewEngine``
  + the flagship query: its baseline;
* **materialize** — ``open_store`` + ``entity_graph(verify=True)``, the
  store's share of the headline;
* **regenerate** — ``generate_domain`` alone;
* **open** — ``open_store`` + header introspection (name, counts,
  fingerprint).  It must beat regeneration by ``OPEN_SPEEDUP_FLOOR``× at
  the largest point and grow sub-linearly along the ladder: the header
  is O(1), however large the graph.

Identity is asserted the strict way: the flagship tight query answers
with byte-identical ``float.hex`` scores and equal serialized payloads
on the regenerated and the store-materialized graph, whose fingerprints
must match.

Wall times land in ``BENCH_store.json`` at the repo root.  Run directly
(``PYTHONPATH=src python benchmarks/bench_store.py``) or through pytest
(``pytest benchmarks/bench_store.py``).  The whole ladder takes under a
minute and about 500 MB, most of both at the film point.
"""

import gc
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import SEED  # noqa: E402

from repro.core.serialize import result_to_dict  # noqa: E402
from repro.datasets import generate_domain  # noqa: E402
from repro.datasets.loader import graph_fingerprint  # noqa: E402
from repro.engine import PreviewEngine  # noqa: E402
from repro.store import STORE_EXTENSION, build_store, open_store  # noqa: E402

#: The scale ladder as ``(domain, downscale factor)``, largest graph last
#: (smaller factor = more entities).  Architecture is the efficiency
#: experiments' domain; film at 30 is the ladder's top.
POINTS = (("architecture", 1000), ("architecture", 250), ("film", 30))
#: Flagship identity query (tight d=2 at k=3 — profiles, merges, ties).
K, N, D, MODE = 3, 8, 2, "tight"
#: Required regenerate-over-open advantage at the largest point.
OPEN_SPEEDUP_FLOOR = 10.0
#: Timing rounds per leg; the minimum is taken, since any scheduler
#: blip would otherwise dominate the microsecond-scale opens.
ROUNDS = 5
MIN_ROUNDS = 2
LEG_BUDGET_S = 2.0
RESULT_FILE = Path(__file__).resolve().parents[1] / "BENCH_store.json"


def _best_ms(fn) -> float:
    """Minimum wall milliseconds of ``fn`` over up to ``ROUNDS`` runs."""
    best = float("inf")
    spent = 0.0
    for done in range(1, ROUNDS + 1):
        gc.collect()
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed * 1000.0)
        spent += elapsed
        if done >= MIN_ROUNDS and spent > LEG_BUDGET_S:
            break
    return best


def _answer(graph):
    return PreviewEngine(graph).query(k=K, n=N, d=D, mode=MODE)


def _materialize(path):
    with open_store(path) as store:
        return store.entity_graph(verify=True)


def _measure_point(domain: str, scale: int, directory: Path) -> dict:
    graph = generate_domain(domain, scale=scale, seed=SEED)
    path = directory / f"{domain}-{scale}{STORE_EXTENSION}"
    start = time.perf_counter()
    size = build_store(graph, path)
    build_ms = (time.perf_counter() - start) * 1000.0
    reference = _answer(graph)
    fingerprint = graph_fingerprint(graph)
    entities, relationships = graph.entity_count, graph.edge_count
    del graph

    def open_header():
        with open_store(path) as store:
            # The realistic O(header) surface: identity + counts.
            assert store.name == domain
            assert store.entity_count > 0
            assert store.fingerprint.startswith("sha256:")

    open_ms = _best_ms(open_header)
    materialize_ms = _best_ms(lambda: _materialize(path))
    first_answer_ms = _best_ms(lambda: _answer(_materialize(path)))
    regenerate_ms = _best_ms(lambda: generate_domain(domain, scale=scale, seed=SEED))
    regenerate_first_answer_ms = _best_ms(
        lambda: _answer(generate_domain(domain, scale=scale, seed=SEED))
    )

    reopened = _materialize(path)
    result = _answer(reopened)
    return {
        "domain": domain,
        "scale": scale,
        "entities": entities,
        "relationships": relationships,
        "store_bytes": size,
        "build_ms": round(build_ms, 3),
        "open_ms": round(open_ms, 4),
        "materialize_ms": round(materialize_ms, 3),
        "first_answer_ms": round(first_answer_ms, 3),
        "regenerate_ms": round(regenerate_ms, 3),
        "regenerate_first_answer_ms": round(regenerate_first_answer_ms, 3),
        "first_answer_speedup": round(regenerate_first_answer_ms / first_answer_ms, 2),
        "open_speedup": round(regenerate_ms / open_ms, 1)
        if open_ms > 0
        else float("inf"),
        "fingerprint_identical": graph_fingerprint(reopened) == fingerprint,
        "score_hex": result.score.hex(),
        "score_hex_identical": result.score.hex() == reference.score.hex(),
        "payload_identical": result_to_dict(result) == result_to_dict(reference),
    }


def run_benchmark():
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        points = [
            _measure_point(domain, scale, Path(tmp)) for domain, scale in POINTS
        ]
    smallest, largest = points[0], points[-1]
    growth = {
        "entity_ratio": round(largest["entities"] / smallest["entities"], 2),
        "open_ratio": round(largest["open_ms"] / smallest["open_ms"], 2)
        if smallest["open_ms"] > 0
        else 0.0,
    }
    growth["sublinear"] = growth["open_ratio"] < growth["entity_ratio"]
    payload = {
        "benchmark": "disk_store",
        "headline": "open -> first answer vs regenerate -> first answer",
        "point": [K, N, D, MODE],
        "rounds": ROUNDS,
        "host": {"python": platform.python_version(), "cpus": os.cpu_count()},
        "open_speedup_floor": OPEN_SPEEDUP_FLOOR,
        "scales": points,
        "open_growth": growth,
    }
    RESULT_FILE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def check(payload):
    for entry in payload["scales"]:
        label = f"{entry['domain']} scale {entry['scale']}"
        assert entry["fingerprint_identical"], (
            f"{label}: reopened graph fingerprint drifted"
        )
        assert entry["score_hex_identical"] and entry["payload_identical"], (
            f"{label}: store-materialized graph answered the flagship query "
            f"differently (score {entry['score_hex']})"
        )
    largest = payload["scales"][-1]
    assert largest["open_speedup"] >= payload["open_speedup_floor"], (
        f"cold open only {largest['open_speedup']:.1f}x faster than "
        f"regeneration at {largest['domain']} scale {largest['scale']} "
        f"(floor {payload['open_speedup_floor']}x): open "
        f"{largest['open_ms']:.2f} ms vs regenerate "
        f"{largest['regenerate_ms']:.0f} ms"
    )
    growth = payload["open_growth"]
    assert growth["sublinear"], (
        f"open time grew {growth['open_ratio']}x while the graph grew "
        f"{growth['entity_ratio']}x — the header is no longer O(1)"
    )


def test_disk_store_bench(benchmark):
    payload = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
    check(payload)


if __name__ == "__main__":
    result = run_benchmark()
    print(json.dumps(result, indent=2, sort_keys=True))
    check(result)
    for entry in result["scales"]:
        print(
            f"{entry['domain']} scale {entry['scale']} ({entry['entities']} "
            f"entities): first answer {entry['first_answer_ms']:.1f} ms from "
            f"the store vs {entry['regenerate_first_answer_ms']:.1f} ms "
            f"regenerating ({entry['first_answer_speedup']}x); materialize "
            f"{entry['materialize_ms']:.1f} ms, open {entry['open_ms']:.3f} ms"
        )
    print(
        f"open growth {result['open_growth']['open_ratio']}x for "
        f"{result['open_growth']['entity_ratio']}x more entities; payloads "
        "bit-identical"
    )

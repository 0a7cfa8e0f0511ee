"""Ablation — Apriori-style vs. Bron-Kerbosch clique backends in Alg. 3.

The paper cites Kose et al.'s result that the Apriori-style enumeration
beats Bron-Kerbosch for their k-clique workloads; Alg. 3 explicitly
allows plugging in any enumerator.  This bench times both backends on the
music domain under tight and diverse constraints and verifies identical
optima: the same preview and a ``float.hex``-identical score.  The
``apriori`` side runs the active kernel backend's join (vectorized under
numpy) and ``bron-kerbosch`` the graph module's per-pair search, so the
bench also checks the one against the other.
"""

from conftest import domain_context

from repro.bench import format_table, time_callable, write_result
from repro.core import DistanceConstraint, SizeConstraint, apriori_discover

POINTS = (
    ("tight", 2, 4),
    ("tight", 3, 4),
    ("diverse", 4, 4),
    ("diverse", 5, 4),
)


def build_ablation():
    context = domain_context("music")
    rows = []
    for mode, d, k in POINTS:
        constraint = (
            DistanceConstraint.tight(d)
            if mode == "tight"
            else DistanceConstraint.diverse(d)
        )
        size = SizeConstraint(k=k, n=10)
        results = {}
        timings = {}
        for backend in ("apriori", "bron-kerbosch"):
            timings[backend] = time_callable(
                lambda b=backend: apriori_discover(
                    context, size, constraint, clique_backend=b
                ),
                label=backend,
                runs=3,
            ).milliseconds
            results[backend] = apriori_discover(
                context, size, constraint, clique_backend=backend
            )
        rows.append((mode, d, k, timings, results))
    return rows


def test_ablation_clique_backend(benchmark):
    rows = benchmark.pedantic(build_ablation, rounds=1, iterations=1)

    for mode, d, k, timings, results in rows:
        a, b = results["apriori"], results["bron-kerbosch"]
        assert (a is None) == (b is None)
        if a is not None:
            assert a.preview == b.preview
            assert a.score.hex() == b.score.hex()

    text = format_table(
        ["mode", "d", "k", "apriori ms", "bron-kerbosch ms"],
        [
            [mode, d, k, f"{t['apriori']:.1f}", f"{t['bron-kerbosch']:.1f}"]
            for mode, d, k, t, _r in rows
        ],
        title="Ablation: clique-enumeration backend inside Alg. 3 (music)",
    )
    write_result("ablation_clique_backend.txt", text)

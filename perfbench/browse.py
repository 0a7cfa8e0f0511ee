"""``browse``: open each stored domain and answer its first preview.

One op is the path a user browsing datasets waits on: cold-open a
``.rgs`` store (:func:`repro.datasets.load_domain_file`), build a
:class:`repro.engine.PreviewEngine` on it, answer the CLI-default
preview (k=3, n=9) and serialize it.  A round opens every store once,
in a seed-derived order.
"""

from __future__ import annotations

import random
from typing import Dict, List

from .common import OUT

#: Stored domains (music is left out: its materialization would be most
#: of a round).
DOMAINS = ("books", "film", "tv", "people", "basketball", "architecture")
SCALE = 1000
#: Generation seed of the stores (the CLI default); ``--seed`` orders the ops.
DATA_SEED = 0
#: The CLI-default first preview.
K, N = 3, 9


def _payload(graph) -> Dict[str, object]:
    from repro.core.serialize import result_to_dict
    from repro.engine import PreviewEngine
    from repro.exceptions import InfeasiblePreviewError

    engine = PreviewEngine(graph)
    try:
        return {"result": result_to_dict(engine.query(k=K, n=N))}, engine
    except InfeasiblePreviewError:
        return {"result": None}, engine


class Browse:
    """The ``browse`` workload."""

    name = "browse"
    #: p85: inside the slowest store's latency class at ~12 rounds.
    tail_pct = 85.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.order = list(DOMAINS)
        self.dir = OUT / f"browse-{seed}"
        self.paths = {name: self.dir / f"{name}.rgs" for name in DOMAINS}

    def setup_pass(self) -> None:
        """Raw inputs -> ready: generate and store every domain, warm up."""
        from repro.datasets import generate_domain
        from repro.store import build_store

        self.dir.mkdir(parents=True, exist_ok=True)
        for name in DOMAINS:
            build_store(generate_domain(name, scale=SCALE, seed=DATA_SEED), self.paths[name])
        self.round(None)

    def round(self, recorder):
        """Open every store once, in a new seeded order; returns (answers, engine cache infos)."""
        import time

        from repro.datasets import load_domain_file

        self.rng.shuffle(self.order)
        answered: List = []
        infos: List = []
        for name in self.order:
            began = time.perf_counter()
            if recorder is not None:
                span = recorder.begin("op")
            payload, engine = _payload(load_domain_file(self.paths[name]))
            if recorder is not None:
                recorder.end(span)
            answered.append((name, time.perf_counter() - began, payload))
            if recorder is not None:
                infos.append(engine.cache_info())
        return answered, infos

    def expected(self) -> Dict[str, str]:
        """The same query on the generated, not stored, graph."""
        from repro.datasets import generate_domain
        from repro.workload import payload_digest

        return {
            name: payload_digest(_payload(generate_domain(name, scale=SCALE, seed=DATA_SEED))[0])
            for name in DOMAINS
        }

    def inputs(self) -> Dict[str, object]:
        from repro.datasets import generate_domain

        counts = {}
        for name in DOMAINS:
            graph = generate_domain(name, scale=SCALE, seed=DATA_SEED)
            counts[name] = {
                "entities": graph.entity_count,
                "relationships": graph.edge_count,
            }
        return {"stores": counts, "op": f"open+preview k={K} n={N}"}

    def close(self) -> None:
        pass

"""``explore-grid``: the paper's Fig. 8/9 grid on music, in-process.

A round is a fresh :class:`repro.engine.PreviewEngine` on the music
domain answering a fixed grid of tight, diverse and concise points
(k 2-4, d 1-3) plus budget sweeps, each once, with one long-lived
:class:`repro.parallel.ShardedExecutor` of two workers.  Several points
score more subsets than the planner's dispatch threshold, so the
``plan`` and ``parallel`` layers decide and dispatch here.
"""

from __future__ import annotations

import contextlib
import random
import time
from typing import Dict, List, Tuple

DOMAIN = "music"
SCALE = 1000
#: Generation seed of the domain (the CLI default); ``--seed`` orders the ops.
DATA_SEED = 0
JOBS = 2
#: Warm-up rounds per set-up pass (pool spawn, cost-model warm-up).
WARMUP_ROUNDS = 2

#: ``("run", k, n, d, mode)`` points and ``("sweep", k, ns, d, mode)``
#: budget sweeps.  No sweep shares its ``(k, d, mode)`` group with a
#: point, so the seed-derived op order never changes the work a round
#: does (a point after its group's sweep would read shared profiles).
#: The costliest op stays a small share of a round, and the cheap k=2
#: points put the median op inside one populous latency class.
#:
#: Warm-up answers the grid in this order whatever the seed.  Its first
#: op has the largest batch (42137 subsets) and is :data:`SHARDED_OP`,
#: so the first sharded dispatch, which also starts the worker pool, is
#: always that batch.
GRID: Tuple[Tuple, ...] = (
    ("run", 3, 9, 2, "diverse"),
    ("run", 2, 6, 2, "tight"),
    ("run", 2, 6, 3, "tight"),
    ("run", 2, 6, 2, "diverse"),
    ("run", 2, 6, 3, "diverse"),
    ("run", 2, 6, None, "tight"),
    ("run", 3, 9, 2, "tight"),
    ("run", 3, 9, 3, "tight"),
    ("run", 3, 9, None, "tight"),
    ("run", 4, 12, 1, "tight"),
    ("run", 4, 12, 2, "tight"),
    ("run", 4, 12, None, "tight"),
    ("sweep", 2, (4, 6, 8), 1, "tight"),
    ("sweep", 2, (4, 6, 8), 1, "diverse"),
    ("sweep", 3, (5, 7, 9), 1, "tight"),
)

#: The one grid op answered under the planner's forced ``sharded`` mode
#: (the in-process form of ``--plan sharded``); every other op runs
#: under the default ``auto``.  Under ``auto`` a batch shards only when
#: the cost model, fitted from this machine's timings, predicts a gain,
#: and short runs often made no sharded dispatch at all, leaving the
#: ``parallel`` layer unmeasured.  This op dispatches to the pool in
#: every round whatever the model predicts.
SHARDED_OP = GRID[0]


def _queries(op) -> List:
    from repro.engine import PreviewQuery

    kind, k, n, d, mode = op
    budgets = n if kind == "sweep" else (n,)
    return [PreviewQuery(k=k, n=b, d=d, mode=mode) for b in budgets]


def answer(engine, op, executor=None) -> Dict[str, object]:
    """One grid op's canonical payload (serve-replayer shape)."""
    from repro.core.serialize import result_to_dict
    from repro.exceptions import InfeasiblePreviewError

    queries = _queries(op)
    if op[0] == "sweep":
        results = engine.sweep(queries, skip_infeasible=True, executor=executor)
        return {"results": [None if r is None else result_to_dict(r) for r in results]}
    try:
        return {"result": result_to_dict(engine.run(queries[0], executor=executor))}
    except InfeasiblePreviewError:
        return {"result": None}


class ExploreGrid:
    """The ``explore-grid`` workload."""

    name = "explore-grid"
    #: p95 lies low in the costliest op class (1 op in 15), and a block
    #: of about 14 rounds holds 10 samples beyond it.
    tail_pct = 95.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.order = list(GRID)
        self.graph = None
        self.executor = None

    def setup_pass(self) -> None:
        """Raw inputs -> ready: generate music, start the pool, warm up."""
        from repro.datasets import generate_domain
        from repro.parallel import ShardedExecutor

        self.graph = generate_domain(DOMAIN, scale=SCALE, seed=DATA_SEED)
        self.executor = ShardedExecutor(JOBS)
        for _ in range(WARMUP_ROUNDS):
            self._answer(GRID, None)

    def round(self, recorder):
        """A fresh engine answers every grid op once, in a new seeded order.

        The first op of a round also builds the engine's candidate pool,
        so a fixed order would let the seed decide which op class pays
        for it, and with it the median op.
        """
        self.rng.shuffle(self.order)
        return self._answer(self.order, recorder)

    def _answer(self, ops, recorder):
        """A fresh engine answers ``ops`` in order; returns (answers, engine cache infos)."""
        from repro import plan
        from repro.engine import PreviewEngine

        engine = PreviewEngine(self.graph)
        answered = []
        for op in ops:
            mode = plan.use_mode("sharded") if op == SHARDED_OP else contextlib.nullcontext()
            began = time.perf_counter()
            if recorder is not None:
                span = recorder.begin("op")
            with mode:
                payload = answer(engine, op, self.executor)
            if recorder is not None:
                recorder.end(span)
            answered.append((op, time.perf_counter() - began, payload))
        infos = [engine.cache_info()] if recorder is not None else []
        return answered, infos

    def expected(self) -> Dict[Tuple, str]:
        """Per point, a fresh engine under the per-subset oracle kernel."""
        from repro import kernel
        from repro.engine import PreviewEngine
        from repro.workload import payload_digest

        digests = {}
        with kernel.use_backend("oracle"):
            for op in GRID:
                points = [
                    answer(PreviewEngine(self.graph), ("run",) + (op[1], n) + op[3:])["result"]
                    for n in (op[2] if op[0] == "sweep" else (op[2],))
                ]
                payload = {"results": points} if op[0] == "sweep" else {"result": points[0]}
                digests[op] = payload_digest(payload)
        return digests

    def inputs(self) -> Dict[str, object]:
        reads = sum(1 for op in GRID if op[0] == "run")
        return {
            "domain": DOMAIN,
            "scale": SCALE,
            "entities": self.graph.entity_count,
            "relationships": self.graph.edge_count,
            "points": reads,
            "sweeps": len(GRID) - reads,
            "jobs": JOBS,
        }

    def close(self) -> None:
        """Stop the pool and drop the graph, so set-up passes never hold two."""
        if self.executor is not None:
            self.executor.close()
            self.executor = None
        self.graph = None

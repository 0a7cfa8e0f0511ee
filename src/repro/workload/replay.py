"""Replay a workload trace through one execution path.

Five paths (:data:`REPLAY_PATHS`) replay the *same* trace, each
rebuilding a private copy of the trace's starting graph, and every op
produces one canonical JSON payload (see below).  The starting graph is
the regenerated domain, or with ``store`` (``--store`` on the CLI) the
graph cold-opened from a ``.rgs`` binary store, for every path alike.
Two replays of one trace are *conformant* when their payloads are
textually identical at every step — which is the property the
differential oracle (:mod:`repro.workload.oracle`) checks across all
five:

``serial``
    The from-scratch rebuild oracle: mutations apply to a plain
    :class:`~repro.model.entity_graph.EntityGraph` and every read op
    builds a **fresh** :class:`~repro.engine.PreviewEngine` (new schema
    graph, new scoring context, empty caches).  Nothing is ever reused,
    so nothing can ever be stale — the ground truth the cached paths
    must match.

``incremental``
    One long-lived :class:`~repro.ext.incremental.IncrementalEntityGraph`
    and its warm engine: mutations flow through the delta pipeline
    (patched scoring contexts, clique groups kept across non-structural
    writes).  After every op the engine's ``cache_info()`` accounting
    is checked (counters monotonic and non-negative, generation in step
    with the graph, each read accounted as exactly one hit-or-miss per
    query); the replay finishes with a full
    ``verify_against_rescan()``.

``sharded``
    The incremental path with the qualifying-subset evaluation sharded
    across a live :class:`~repro.parallel.ShardedExecutor` process pool
    (``jobs`` workers), the way ``repro-preview --jobs`` runs.

``serve``
    The real socket path: a :class:`~repro.serve.PreviewService` over
    the same starting graph, driven through one blocking
    :class:`~repro.serve.ServeClient` *per trace client id*, in trace
    order.  Response caching, coalescing keys, admission and the
    JSON-line protocol are all in the loop; ``stats`` ops (and the end
    of the replay) sanity-check the host's response-cache/coalescer
    counters.

``replicated``
    The full replication topology (:mod:`repro.replicate`): one writer
    host, two read replicas fed by the live delta stream, and a
    consistent-hashing router in front — four separate services on
    real sockets.  Mutations go to the writer; every read carries the
    generation token of the last acknowledged mutation
    (read-your-writes), so replicas block until caught up and the
    payloads match the serial oracle byte-for-byte at every step.
    Reads also carry the op's replica ``affinity`` (falling back to
    its client id), exercising the router's per-client pinning.

Canonical payloads per op (digested with
:func:`~repro.workload.trace.payload_digest`):

* ``mutate`` — ``{"kind": ..., "generation": <post-mutation generation>}``
  (generations agree across paths because every path starts from the
  identical generated graph and applies the identical mutations);
* ``preview`` — ``{"result": <serialized DiscoveryResult> | null}``
  (null = infeasible);
* ``sweep`` — ``{"results": [... | null]}`` positionally aligned;
* ``stats`` — no payload (path-specific; sanity-checked, never diffed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.serialize import result_to_dict
from ..datasets.freebase_like import generate_domain
from ..datasets.loader import graph_fingerprint
from ..engine import PreviewEngine
from ..exceptions import (
    InfeasiblePreviewError,
    ServeRequestError,
    WorkloadError,
)
from ..ext.incremental import IncrementalEntityGraph
from ..serve.host import apply_mutation, parse_mutation, parse_query, parse_sweep
from .trace import TraceOp, WorkloadTrace, payload_digest

#: The five execution paths the differential oracle compares.
REPLAY_PATHS = ("serial", "incremental", "sharded", "serve", "replicated")


@dataclass
class ReplayResult:
    """What one path produced replaying one trace."""

    path: str
    #: Per-op payload digests, positionally aligned with the trace
    #: (None for ``stats`` ops, which have no comparable payload).
    digests: Tuple[Optional[str], ...]
    seconds: float
    ops: int
    reads: int
    mutations: int
    #: ``(op_index, expected, actual)`` for every recorded digest the
    #: replay failed to reproduce (empty when the trace has no digests
    #: or verification was off).
    digest_mismatches: List[Tuple[int, str, str]] = field(default_factory=list)
    #: Path-specific closing stats (cache_info, service counters, ...).
    stats: Dict[str, Any] = field(default_factory=dict)
    #: Full payloads, only when requested (memory-heavy on long traces).
    payloads: Optional[List[Any]] = None

    @property
    def ops_per_second(self) -> float:
        """Replay throughput (all ops, including stats probes)."""
        return self.ops / self.seconds if self.seconds > 0 else float("inf")


def _starting_graph(trace: WorkloadTrace, store: Optional[str] = None):
    """The trace's starting graph, fingerprint-checked.

    With ``store`` the graph cold-opens from a ``.rgs`` binary store
    (:func:`repro.store.open_store`) instead of regenerating the domain
    — O(header) plus materialization, no generator in the loop.  Either
    way the graph the replay starts from must carry the fingerprint the
    trace was recorded against.

    Raises
    ------
    WorkloadError
        When the trace pins a fingerprint and the regenerated domain
        (or the stored graph) no longer matches it — replaying would
        only produce a wall of payload mismatches.
    """
    if store is not None:
        from ..store import open_store

        with open_store(store) as store_file:
            if (
                trace.fingerprint is not None
                and store_file.fingerprint != trace.fingerprint
            ):
                raise WorkloadError(
                    f"dataset mismatch: store {store!s} fingerprints "
                    f"{store_file.fingerprint} but the trace was recorded "
                    f"against {trace.fingerprint} — rebuild the store from "
                    "the trace's domain (or re-record the trace)"
                )
            return store_file.entity_graph()
    graph = generate_domain(trace.domain, scale=trace.scale, seed=trace.seed)
    if trace.fingerprint is not None:
        actual = graph_fingerprint(graph)
        if actual != trace.fingerprint:
            raise WorkloadError(
                f"dataset mismatch: regenerated {trace.domain!r} "
                f"(scale={trace.scale}, seed={trace.seed}) fingerprints "
                f"{actual} but the trace was recorded against "
                f"{trace.fingerprint} — the domain generator drifted; "
                "re-record the trace"
            )
    return graph


class _EngineAccounting:
    """Per-op ``cache_info()`` sanity checks for engine-backed paths."""

    MONOTONIC = ("hits", "misses", "evicted", "retained", "invalidations")

    def __init__(self, path: str) -> None:
        self._path = path
        self._previous: Optional[Dict[str, int]] = None

    def check(self, engine: PreviewEngine, graph, queries_answered: int) -> None:
        """Validate the engine's counters after one op.

        Raises
        ------
        WorkloadError
            On any accounting violation: a counter going backwards or
            negative, the cache generation falling out of step with the
            graph, or a read not accounted as exactly one hit-or-miss
            per query.
        """
        info = engine.cache_info()
        for name, value in info.items():
            # Non-numeric entries (kernel_backend) carry no accounting.
            if isinstance(value, int) and value < 0:
                raise WorkloadError(
                    f"{self._path}: cache_info[{name!r}] went negative: {value}"
                )
        if info["generation"] != graph.generation:
            raise WorkloadError(
                f"{self._path}: engine generation {info['generation']} is out "
                f"of step with graph generation {graph.generation}"
            )
        if self._previous is not None:
            for name in self.MONOTONIC:
                if info[name] < self._previous[name]:
                    raise WorkloadError(
                        f"{self._path}: cache_info[{name!r}] went backwards "
                        f"({self._previous[name]} -> {info[name]})"
                    )
            answered = (info["hits"] + info["misses"]) - (
                self._previous["hits"] + self._previous["misses"]
            )
            if answered != queries_answered:
                raise WorkloadError(
                    f"{self._path}: {queries_answered} queries were answered "
                    f"but hits+misses moved by {answered}"
                )
        self._previous = info


class _SerialReplay:
    """The from-scratch rebuild oracle (fresh engine per read)."""

    path = "serial"

    def __init__(self, trace: WorkloadTrace, store: Optional[str] = None) -> None:
        self._trace = trace
        self._graph = _starting_graph(trace, store)

    def _fresh_engine(self) -> PreviewEngine:
        return PreviewEngine(
            self._graph,
            key_scorer=self._trace.key_scorer,
            nonkey_scorer=self._trace.nonkey_scorer,
        )

    def apply(self, op: TraceOp) -> Optional[Dict[str, Any]]:
        if op.op == "mutate":
            generation = apply_mutation(self._graph, *parse_mutation(op.params))
            return {"kind": op.params.get("kind"), "generation": generation}
        if op.op == "preview":
            query = parse_query(op.params)
            try:
                result = self._fresh_engine().run(query)
            except InfeasiblePreviewError:
                return {"result": None}
            return {"result": result_to_dict(result)}
        if op.op == "sweep":
            queries = parse_sweep(op.params)
            results = self._fresh_engine().sweep(queries, skip_infeasible=True)
            return {
                "results": [
                    None if result is None else result_to_dict(result)
                    for result in results
                ]
            }
        return None  # stats: nothing to check on a from-scratch path

    def finish(self) -> Dict[str, Any]:
        return {"generation": self._graph.generation}

    def close(self) -> None:
        pass


class _IncrementalReplay:
    """One live graph + warm engine; optional sharded executor."""

    def __init__(
        self, trace: WorkloadTrace, jobs: int = 1, store: Optional[str] = None
    ) -> None:
        self.path = "sharded" if jobs > 1 else "incremental"
        self._trace = trace
        self._graph = IncrementalEntityGraph(base=_starting_graph(trace, store))
        self._engine = self._graph.engine(trace.key_scorer, trace.nonkey_scorer)
        self._accounting = _EngineAccounting(self.path)
        if jobs > 1:
            from ..parallel import ShardedExecutor

            self._executor = ShardedExecutor(jobs)
        else:
            self._executor = None

    def apply(self, op: TraceOp) -> Optional[Dict[str, Any]]:
        if op.op == "mutate":
            generation = apply_mutation(self._graph, *parse_mutation(op.params))
            self._accounting.check(self._engine, self._graph, queries_answered=0)
            return {"kind": op.params.get("kind"), "generation": generation}
        if op.op == "preview":
            query = parse_query(op.params)
            try:
                result = self._engine.run(query, executor=self._executor)
                payload = {"result": result_to_dict(result)}
            except InfeasiblePreviewError:
                payload = {"result": None}
            self._accounting.check(self._engine, self._graph, queries_answered=1)
            return payload
        if op.op == "sweep":
            queries = parse_sweep(op.params)
            results = self._engine.sweep(
                queries, skip_infeasible=True, executor=self._executor
            )
            self._accounting.check(
                self._engine, self._graph, queries_answered=len(queries)
            )
            return {
                "results": [
                    None if result is None else result_to_dict(result)
                    for result in results
                ]
            }
        # stats probe: the accounting check *is* the payload.
        self._accounting.check(self._engine, self._graph, queries_answered=0)
        return None

    def finish(self) -> Dict[str, Any]:
        if not self._graph.verify_against_rescan():
            raise WorkloadError(
                f"{self.path}: incremental aggregates diverged from a full "
                "rescan after replay"
            )
        info = self._engine.cache_info()
        info["rescan_ok"] = True
        return info

    def close(self) -> None:
        if self._executor is not None:
            self._executor.close()
            self._executor = None


class _ServeReplay:
    """The real socket path: service + one connection per client id."""

    path = "serve"

    def __init__(self, trace: WorkloadTrace, store: Optional[str] = None) -> None:
        from ..serve import EngineHost, PreviewService, ServeClient, run_in_background

        self._trace = trace
        self._client_factory = ServeClient
        self._host = EngineHost(
            trace.domain,
            _starting_graph(trace, store),
            key_scorer=trace.key_scorer,
            nonkey_scorer=trace.nonkey_scorer,
        )
        self._service = PreviewService({trace.domain: self._host})
        self._server = run_in_background(self._service)
        self._clients: Dict[int, Any] = {}
        self._last_generation: Optional[int] = None

    def _client(self, client_id: int):
        client = self._clients.get(client_id)
        if client is None:
            client = self._client_factory(port=self._server.port, timeout=120.0)
            self._clients[client_id] = client
        return client

    def _check_stats(self, stats: Dict[str, Any]) -> None:
        """Sanity-check one ``stats`` payload from the service.

        Raises
        ------
        WorkloadError
            When a counter is negative, the response cache exceeds its
            bound, or the engine generation moves backwards.
        """
        from ..serve import EngineHost

        dataset = stats["datasets"][0]
        for group in ("engine", "coalescer", "responses"):
            for name, value in dataset[group].items():
                if isinstance(value, int) and value < 0:
                    raise WorkloadError(
                        f"serve: {group}.{name} went negative: {value}"
                    )
        if dataset["responses"]["entries"] > EngineHost.RESPONSE_CACHE_SIZE:
            raise WorkloadError(
                f"serve: response cache holds {dataset['responses']['entries']} "
                f"entries, over the {EngineHost.RESPONSE_CACHE_SIZE} bound"
            )
        generation = dataset["engine"]["generation"]
        if self._last_generation is not None and generation < self._last_generation:
            raise WorkloadError(
                "serve: engine generation went backwards "
                f"({self._last_generation} -> {generation})"
            )
        self._last_generation = generation
        service = stats["service"]
        if service["ok"] + service["errors"] > service["requests"]:
            raise WorkloadError(
                "serve: ok+errors exceeds total requests "
                f"({service['ok']}+{service['errors']} > {service['requests']})"
            )

    def apply(self, op: TraceOp) -> Optional[Dict[str, Any]]:
        client = self._client(op.client)
        if op.op == "mutate":
            return client.call("mutate", op.params)
        if op.op == "preview":
            try:
                result = client.call("preview", op.params)
            except ServeRequestError as exc:
                if exc.code != "infeasible":
                    raise
                return {"result": None}
            return {"result": result["result"]}
        if op.op == "sweep":
            result = client.call("sweep", op.params)
            return {"results": result["results"]}
        self._check_stats(client.stats())
        return None

    def finish(self) -> Dict[str, Any]:
        stats = self._client(0).stats()
        self._check_stats(stats)
        return {
            "service": stats["service"],
            "dataset": stats["datasets"][0],
        }

    def close(self) -> None:
        for client in self._clients.values():
            client.close()
        self._clients.clear()
        self._server.stop()


class _ReplicatedReplay:
    """The replication topology: writer + replicas + router, on sockets."""

    path = "replicated"

    #: Read replicas behind the router (the conformance floor is two —
    #: a single replica cannot exercise cross-replica ordering).
    REPLICAS = 2

    def __init__(self, trace: WorkloadTrace, store: Optional[str] = None) -> None:
        from ..replicate import (
            ReplicaHost,
            ReplicaService,
            RouterService,
            WriterHost,
            WriterService,
        )
        from ..serve import ServeClient, run_in_background

        self._trace = trace
        self._client_factory = ServeClient
        self._writer_host = WriterHost(
            trace.domain,
            _starting_graph(trace, store),
            key_scorer=trace.key_scorer,
            nonkey_scorer=trace.nonkey_scorer,
        )
        self._writer = run_in_background(
            WriterService({trace.domain: self._writer_host})
        )
        self._replica_hosts = []
        self._replicas = []
        for _ in range(self.REPLICAS):
            host = ReplicaHost(
                trace.domain,
                _starting_graph(trace, store),
                key_scorer=trace.key_scorer,
                nonkey_scorer=trace.nonkey_scorer,
            )
            self._replica_hosts.append(host)
            self._replicas.append(
                run_in_background(
                    ReplicaService(
                        {trace.domain: host},
                        upstream=("127.0.0.1", self._writer.port),
                    )
                )
            )
        self._router = run_in_background(
            RouterService(
                writer=("127.0.0.1", self._writer.port),
                replicas=[
                    ("127.0.0.1", server.port) for server in self._replicas
                ],
                datasets=[trace.domain],
            )
        )
        self._clients: Dict[int, Any] = {}
        #: The read-your-writes token: the generation of the last
        #: acknowledged mutation.  Global (not per-client) — the trace
        #: order is the total order every path linearizes to, so *any*
        #: read after a write must observe it regardless of client.
        self._token: Optional[int] = None

    def _client(self, client_id: int):
        client = self._clients.get(client_id)
        if client is None:
            client = self._client_factory(port=self._router.port, timeout=120.0)
            self._clients[client_id] = client
        return client

    def _read_params(self, op: TraceOp) -> Dict[str, Any]:
        params = dict(op.params)
        if self._token is not None:
            params["min_generation"] = self._token
        params["affinity"] = op.affinity if op.affinity is not None else op.client
        return params

    def _check_stats(self, stats: Dict[str, Any]) -> None:
        """Sanity-check one router ``stats`` payload.

        Raises
        ------
        WorkloadError
            When the topology is missing replicas, a replica reports
            negative lag accounting, or a replica generation overtakes
            the writer's.
        """
        replicas = stats.get("replicas") or []
        if len(replicas) != self.REPLICAS:
            raise WorkloadError(
                f"replicated: router reports {len(replicas)} replicas, "
                f"expected {self.REPLICAS}"
            )
        writer_generation = stats.get("writer_generation")
        for entry in replicas:
            if "error" in entry:
                raise WorkloadError(
                    f"replicated: replica {entry.get('backend')} unreachable: "
                    f"{entry['error']}"
                )
            for dataset in entry.get("datasets") or []:
                replication = dataset.get("replication") or {}
                if replication.get("role") != "replica":
                    raise WorkloadError(
                        f"replicated: backend {entry.get('backend')} reports "
                        f"role {replication.get('role')!r}"
                    )
                lag = replication.get("lag")
                if not isinstance(lag, int) or lag < 0:
                    raise WorkloadError(
                        f"replicated: replica lag must be a non-negative "
                        f"integer, got {lag!r}"
                    )
                generation = replication.get("generation")
                if (
                    isinstance(writer_generation, int)
                    and isinstance(generation, int)
                    and generation > writer_generation
                ):
                    raise WorkloadError(
                        f"replicated: replica generation {generation} is ahead "
                        f"of the writer generation {writer_generation}"
                    )

    def apply(self, op: TraceOp) -> Optional[Dict[str, Any]]:
        client = self._client(op.client)
        if op.op == "mutate":
            payload = client.call("mutate", op.params)
            self._token = payload["generation"]
            return payload
        if op.op == "preview":
            try:
                result = client.call("preview", self._read_params(op))
            except ServeRequestError as exc:
                if exc.code != "infeasible":
                    raise
                return {"result": None}
            return {"result": result["result"]}
        if op.op == "sweep":
            result = client.call("sweep", self._read_params(op))
            return {"results": result["results"]}
        self._check_stats(client.stats())
        return None

    def finish(self) -> Dict[str, Any]:
        stats = self._client(0).stats()
        self._check_stats(stats)
        return {
            "service": stats["service"],
            "writer_generation": stats.get("writer_generation"),
            "replicas": stats.get("replicas"),
        }

    def close(self) -> None:
        for client in self._clients.values():
            client.close()
        self._clients.clear()
        self._router.stop()
        for server in self._replicas:
            server.stop()
        self._writer.stop()


def _make_replayer(
    trace: WorkloadTrace, path: str, jobs: int, store: Optional[str] = None
):
    if path == "serial":
        return _SerialReplay(trace, store=store)
    if path == "incremental":
        return _IncrementalReplay(trace, jobs=1, store=store)
    if path == "sharded":
        if jobs < 2:
            raise WorkloadError(
                f"the sharded path needs jobs >= 2, got {jobs} "
                "(use the incremental path for a serial warm engine)"
            )
        return _IncrementalReplay(trace, jobs=jobs, store=store)
    if path == "serve":
        return _ServeReplay(trace, store=store)
    if path == "replicated":
        return _ReplicatedReplay(trace, store=store)
    raise WorkloadError(
        f"unknown replay path {path!r}; available: {', '.join(REPLAY_PATHS)}"
    )


def replay_trace(
    trace: WorkloadTrace,
    path: str = "incremental",
    jobs: int = 2,
    verify_digests: bool = False,
    keep_payloads: bool = False,
    store: Optional[str] = None,
) -> ReplayResult:
    """Replay ``trace`` through one path and digest every payload.

    Parameters
    ----------
    trace:
        The trace to replay (its header names the starting graph).
    path:
        One of :data:`REPLAY_PATHS`.
    jobs:
        Worker processes for the ``sharded`` path (ignored elsewhere).
    verify_digests:
        Compare each computed digest against the digest recorded on the
        trace op (when present); mismatches land in
        :attr:`ReplayResult.digest_mismatches`.
    keep_payloads:
        Keep the full payload objects on the result (memory-heavy).
    store:
        Optional ``.rgs`` binary store path the starting graph is
        opened from instead of regenerating the trace's domain
        (fingerprint-checked against the trace header).

    Returns
    -------
    ReplayResult
        Digests, timing, accounting stats.

    Raises
    ------
    WorkloadError
        For an unknown path or an accounting violation mid-replay.
    """
    replayer = _make_replayer(trace, path, jobs, store=store)
    digests: List[Optional[str]] = []
    payloads: List[Any] = [] if keep_payloads else None
    mismatches: List[Tuple[int, str, str]] = []
    reads = 0
    mutations = 0
    start = time.perf_counter()
    try:
        for index, op in enumerate(trace.ops):
            payload = replayer.apply(op)
            if op.op == "mutate":
                mutations += 1
            elif op.op in ("preview", "sweep"):
                reads += 1
            digest = None if payload is None else payload_digest(payload)
            digests.append(digest)
            if keep_payloads:
                payloads.append(payload)
            if (
                verify_digests
                and op.digest is not None
                and digest is not None
                and digest != op.digest
            ):
                mismatches.append((index, op.digest, digest))
        seconds = time.perf_counter() - start
        stats = replayer.finish()
    finally:
        replayer.close()
    return ReplayResult(
        path=path,
        digests=tuple(digests),
        seconds=seconds,
        ops=len(trace.ops),
        reads=reads,
        mutations=mutations,
        digest_mismatches=mismatches,
        stats=stats,
        payloads=payloads,
    )


def record_digests(trace: WorkloadTrace, path: str = "incremental") -> WorkloadTrace:
    """``trace`` with payload digests embedded (recorded via ``path``).

    The recorder half of the record/replay pair: replay once, stamp
    each diffable op with the digest of the payload it produced, and
    return the stamped trace ready for :func:`WorkloadTrace.dump`.
    Conformance of the recording path itself is established separately
    by the differential oracle.
    """
    result = replay_trace(trace, path=path, jobs=1 if path != "sharded" else 2)
    return trace.with_digests(list(result.digests))

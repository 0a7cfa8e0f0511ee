"""Per-dataset engine ownership for the preview service.

An :class:`EngineHost` is the service-side twin of one dataset: it owns
the :class:`~repro.ext.incremental.IncrementalEntityGraph` wrapper, the
warm :class:`~repro.engine.PreviewEngine` bound to it, an optional
long-lived :class:`~repro.parallel.ShardedExecutor` (``jobs > 1``), and
the concurrency machinery that makes them safe to drive from many
connections at once:

* **one worker thread per host** — every engine/graph touch (query,
  sweep, mutation, even ``cache_info``) runs on a dedicated
  single-thread executor, so the engine's caches are never raced by
  construction.  Parallelism *within* a computation comes from the
  sharded process pool; parallelism *across* datasets comes from each
  host having its own thread;
* **an async read/write lock** — queries hold the read side while they
  await their computation, mutations take the write side, so a mutation
  waits for admitted queries to drain and (writer preference) is never
  starved by a steady query stream;
* **a request coalescer** — identical in-flight ``(op, query,
  generation)`` requests share one computation and receive the *same*
  response payload object (see :mod:`repro.serve.coalescer`);
* **a response cache** — completed payloads are kept per ``(op, query,
  generation)`` key, so a warm identical request is answered directly on
  the event loop with no worker-thread hop at all.  Generations are
  monotonic, which makes invalidation trivial: a mutation clears the
  cache outright (every entry is keyed by a generation no future
  request can ask for).  The engine memo underneath still provides the
  second-level warmth — a response-cache miss whose query the engine
  has answered before costs one thread hop, not a recomputation.

The host speaks plain dicts: params in, JSON-ready result dicts out.
Wire framing, admission control and error mapping live one layer up in
:class:`~repro.serve.PreviewService`.
"""

from __future__ import annotations

import asyncio
import json
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Hashable, List, Optional

from ..core.serialize import result_to_dict
from ..engine import PreviewEngine, PreviewQuery
from ..exceptions import ProtocolError
from ..ext.incremental import IncrementalEntityGraph
from ..model.entity_graph import EntityGraph
from ..model.ids import RelationshipTypeId
from ..parallel import ShardedExecutor
from .coalescer import RequestCoalescer
from .locks import ReadWriteLock


def _require(params: Dict[str, Any], field: str, kind, kind_name: str):
    """One required typed field of a params dict, or ``bad-request``."""
    value = params.get(field)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ProtocolError(
            "bad-request", f"param {field!r} must be a {kind_name}"
        )
    return value


def parse_query(params: Dict[str, Any]) -> PreviewQuery:
    """Build the :class:`PreviewQuery` described by a ``preview`` params dict.

    Required: integer ``k`` and ``n``.  Optional: integer ``d`` with
    string ``mode`` (``"tight"``/``"diverse"``, default tight) and
    string ``algorithm`` (default ``"auto"``).

    Raises
    ------
    ProtocolError
        With code ``bad-request`` when a field has the wrong JSON type.
        (Semantic validation — ``n >= k``, known algorithm, ... — happens
        in the engine and maps to ``invalid-query``.)
    """
    k = _require(params, "k", int, "integer")
    n = _require(params, "n", int, "integer")
    d = params.get("d")
    if d is not None and (isinstance(d, bool) or not isinstance(d, int)):
        raise ProtocolError("bad-request", "param 'd' must be an integer")
    mode = params.get("mode", "tight")
    if not isinstance(mode, str):
        raise ProtocolError("bad-request", "param 'mode' must be a string")
    algorithm = params.get("algorithm", "auto")
    if not isinstance(algorithm, str):
        raise ProtocolError("bad-request", "param 'algorithm' must be a string")
    return PreviewQuery(k=k, n=n, d=d, mode=mode, algorithm=algorithm)


def parse_sweep(params: Dict[str, Any]) -> List[PreviewQuery]:
    """The query batch described by a ``sweep`` params dict.

    Two shapes are accepted: an explicit ``queries`` list of per-query
    param objects, or the common budget-sweep shorthand — one ``k`` with
    an ``ns`` list (plus optional shared ``d``/``mode``/``algorithm``).

    Raises
    ------
    ProtocolError
        With code ``bad-request`` for a malformed or empty batch.
    """
    if "queries" in params:
        specs = params["queries"]
        if not isinstance(specs, list) or not specs:
            raise ProtocolError(
                "bad-request", "param 'queries' must be a non-empty array"
            )
        if not all(isinstance(spec, dict) for spec in specs):
            raise ProtocolError(
                "bad-request", "every 'queries' entry must be an object"
            )
        return [parse_query(spec) for spec in specs]
    ns = params.get("ns")
    if not isinstance(ns, list) or not ns:
        raise ProtocolError(
            "bad-request", "sweep needs 'queries' or a non-empty 'ns' array"
        )
    shared = {key: value for key, value in params.items() if key != "ns"}
    return [parse_query({**shared, "n": n}) for n in ns]


def parse_mutation(params: Dict[str, Any]):
    """Validate a ``mutate`` params dict into ``(kind, fields)``.

    ``kind`` is ``"entity"`` (fields: ``(entity, types)``) or
    ``"relationship"`` (fields: ``(source, target, name, source_type,
    target_type)``).  Public because the workload replayers
    (:mod:`repro.workload.replay`) interpret recorded mutation params
    with exactly the wire semantics the service applies.

    Raises
    ------
    ProtocolError
        With code ``bad-request`` for a malformed params dict, including
        a name that cannot be encoded as UTF-8 (a lone surrogate, which
        JSON can carry but no store, fingerprint or dataset file can).
    """
    kind = _require(params, "kind", str, "string")
    if kind == "entity":
        entity = _require(params, "entity", str, "string")
        types = params.get("types")
        if (
            not isinstance(types, list)
            or not types
            or not all(isinstance(t, str) for t in types)
        ):
            raise ProtocolError(
                "bad-request", "param 'types' must be a non-empty string array"
            )
        _require_utf8(entity, *types)
        return kind, (entity, types)
    if kind == "relationship":
        fields = tuple(
            _require(params, name, str, "string")
            for name in ("source", "target", "name", "source_type", "target_type")
        )
        _require_utf8(*fields)
        return kind, fields
    raise ProtocolError(
        "bad-request", f"param 'kind' must be 'entity' or 'relationship', got {kind!r}"
    )


def _require_utf8(*names: str) -> None:
    """Raise ``bad-request`` unless every name encodes as UTF-8."""
    for name in names:
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:
            raise ProtocolError(
                "bad-request", f"name {name!r} cannot be encoded as UTF-8"
            ) from None


def apply_mutation(graph, kind: str, fields) -> int:
    """Apply one :func:`parse_mutation` result to ``graph``; new generation.

    ``graph`` is an :class:`EntityGraph` or an
    :class:`IncrementalEntityGraph` — both expose the same mutator pair.
    The one place a wire mutation reaches a graph: the service, the
    replication writer and replicas, and the workload replayers all
    apply mutations through it.

    Raises
    ------
    ReproError
        Model/schema violations from the graph.
    """
    if kind == "entity":
        entity, types = fields
        graph.add_entity(entity, types)
    else:
        source, target, name, source_type, target_type = fields
        graph.add_relationship(
            source,
            target,
            RelationshipTypeId(
                name=name, source_type=source_type, target_type=target_type
            ),
        )
    return graph.generation


class EngineHost:
    """One served dataset: a live graph, its warm engine, and their locks.

    Parameters
    ----------
    name:
        The dataset name requests address this host by.
    data:
        The dataset: an :class:`EntityGraph` (wrapped in a fresh
        :class:`IncrementalEntityGraph` so wire mutations flow through
        the delta pipeline) or an already-wrapped incremental graph.
        The host assumes ownership — serve a private copy, not a graph
        shared with other code.
    key_scorer, nonkey_scorer:
        Scoring measure names for the hosted engine.
    jobs:
        Worker processes for sharded subset evaluation; ``jobs > 1``
        keeps one :class:`ShardedExecutor` alive across requests.

    Raises
    ------
    ProtocolError
        From the request coroutines, for malformed params.
    """

    def __init__(
        self,
        name: str,
        data,
        key_scorer: str = "coverage",
        nonkey_scorer: str = "coverage",
        jobs: int = 1,
    ) -> None:
        self.name = name
        if isinstance(data, IncrementalEntityGraph):
            self.graph = data
        elif isinstance(data, EntityGraph):
            self.graph = IncrementalEntityGraph(base=data)
        else:
            raise TypeError(
                "EngineHost needs an EntityGraph or IncrementalEntityGraph, "
                f"got {type(data).__name__}"
            )
        self.key_scorer = key_scorer
        self.nonkey_scorer = nonkey_scorer
        self.engine: PreviewEngine = self.graph.engine(key_scorer, nonkey_scorer)
        self.jobs = jobs
        # spawn, never fork: by the time the lazy pool starts, this
        # process runs an event loop plus one worker thread per host,
        # and forking a multi-threaded process can clone held locks
        # into the children.
        self._sharded: Optional[ShardedExecutor] = (
            ShardedExecutor(jobs, start_method="spawn") if jobs != 1 else None
        )
        # One worker thread serializes every engine/graph touch: the
        # engine's cache dicts are single-threaded by construction.
        self._worker = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-serve-{name}"
        )
        self._lock = ReadWriteLock()
        self._coalescer = RequestCoalescer()
        #: Completed payloads by (op, query, generation) — LRU-bounded.
        #: Every mutation clears it (old-generation keys are dead: the
        #: generation counter never revisits a value).
        self._responses: "OrderedDict[Hashable, Dict[str, Any]]" = OrderedDict()
        self._response_hits = 0
        self._mutations = 0

    #: Bound on distinct cached response payloads per host.
    RESPONSE_CACHE_SIZE = 256

    #: This host's place in a replication topology; the writer/replica
    #: subclasses in :mod:`repro.replicate` override it.
    role = "standalone"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the worker thread and any sharded process pool."""
        self._worker.shutdown(wait=True)
        if self._sharded is not None:
            self._sharded.close()
            self._sharded = None

    async def _on_worker(self, fn) -> Any:
        return await asyncio.get_running_loop().run_in_executor(self._worker, fn)

    async def _cached(self, key: Hashable, compute) -> Dict[str, Any]:
        """Serve ``key`` from the response cache, coalescing misses.

        The store happens inside the shared (shielded) task, so a
        computation whose every waiter disconnected still lands in the
        cache for the next ask.  Entries hold the payload dict *and* its
        JSON encoding, so the service's fast path can answer a warm
        request without re-serializing (see :meth:`encoded_response`).
        """
        entry = self._responses.get(key)
        if entry is not None:
            self._response_hits += 1
            self._responses.move_to_end(key)
            return entry[0]

        async def factory() -> Dict[str, Any]:
            payload = await self._on_worker(compute)
            encoded = json.dumps(
                payload, sort_keys=True, separators=(", ", ": ")
            ).encode("utf-8")
            self._responses[key] = (payload, encoded)
            if len(self._responses) > self.RESPONSE_CACHE_SIZE:
                self._responses.popitem(last=False)
            return payload

        return await self._coalescer.run(key, factory)

    @staticmethod
    def _preview_key(query, generation: int):
        """The coalescing/response-cache key of one preview request."""
        return ("preview", query.cache_key(), query.algorithm, generation)

    @staticmethod
    def _sweep_key(queries, generation: int):
        """The coalescing/response-cache key of one sweep request."""
        return (
            "sweep",
            tuple((q.cache_key(), q.algorithm) for q in queries),
            generation,
        )

    def _request_key(self, op: str, params: Dict[str, Any], generation: int):
        """Parse ``params`` and build the request key (fast-path entry)."""
        if op == "preview":
            return self._preview_key(parse_query(params), generation)
        return self._sweep_key(parse_sweep(params), generation)

    def encoded_response(self, op: str, params: Dict[str, Any]) -> Optional[bytes]:
        """The pre-encoded payload for a warm request, or None.

        The synchronous fast path: called by the service directly on the
        event loop, it answers a response-cache hit with the bytes
        serialized when the payload was computed — no worker-thread hop,
        no task, no re-encoding.  Runs without the read lock: the lookup
        is one synchronous block (it cannot interleave with a mutation's
        critical section), the key pins the generation read in the same
        block, and every mutation clears the cache before acknowledging
        — so a hit is always consistent with some pre-mutation
        linearization the read lock would also have allowed.

        Returns None (deferring to the async path) for cache misses and
        for malformed params, which the slow path turns into proper
        error responses.
        """
        try:
            key = self._request_key(op, params, self.graph.generation)
        except ProtocolError:
            return None
        entry = self._responses.get(key)
        if entry is None:
            return None
        self._response_hits += 1
        self._responses.move_to_end(key)
        return entry[1]

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    async def preview(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one ``preview`` request.

        Returns
        -------
        dict
            ``{"generation": g, "result": <serialized DiscoveryResult>}``
            — the result field is byte-identical to serializing a direct
            ``PreviewEngine.run`` of the same query.

        Raises
        ------
        ProtocolError
            ``bad-request`` for malformed params.
        ReproError
            ``InfeasiblePreviewError`` / constraint errors from the
            engine (mapped to ``infeasible`` / ``invalid-query`` wire
            codes by the service).
        """
        query = parse_query(params)
        async with self._lock.read_locked():
            generation = self.graph.generation
            key = self._preview_key(query, generation)

            def compute() -> Dict[str, Any]:
                result = self.engine.run(query, executor=self._sharded)
                return {"generation": generation, "result": result_to_dict(result)}

            return await self._cached(key, compute)

    async def sweep(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one ``sweep`` request (batch of preview points).

        Returns
        -------
        dict
            ``{"generation": g, "results": [... or null]}`` positionally
            aligned with the requested batch; infeasible points are
            null (the batch itself never fails on infeasibility).
        """
        queries = parse_sweep(params)
        async with self._lock.read_locked():
            generation = self.graph.generation
            key = self._sweep_key(queries, generation)

            def compute() -> Dict[str, Any]:
                results = self.engine.sweep(
                    queries, skip_infeasible=True, executor=self._sharded
                )
                return {
                    "generation": generation,
                    "results": [
                        None if result is None else result_to_dict(result)
                        for result in results
                    ],
                }

            return await self._cached(key, compute)

    async def mutate(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Apply one ``mutate`` request under the exclusive write lock.

        Returns
        -------
        dict
            ``{"kind": ..., "generation": g}`` with the post-mutation
            generation — the client's token for "queries answered at
            this generation or later observe my write".

        Raises
        ------
        ProtocolError
            ``bad-request`` for malformed params.
        ReproError
            Model/schema violations from the graph (mapped to
            ``invalid-query`` by the service).
        """
        kind, fields = parse_mutation(params)
        async with self._lock.write_locked():
            generation = await self._on_worker(
                lambda: apply_mutation(self.graph, kind, fields)
            )
            self._mutations += 1
            # Every cached payload is keyed by an older generation the
            # monotonic counter will never serve again.
            self._responses.clear()
        return {"kind": kind, "generation": generation}

    async def stats(self) -> Dict[str, Any]:
        """This host's counters: engine cache, coalescer, mutations.

        Runs ``cache_info`` on the host's worker thread (it synchronizes
        the engine with the latest generation, which must never race a
        computation).
        """
        async with self._lock.read_locked():
            info = await self._on_worker(self.engine.cache_info)
        return {
            "dataset": self.name,
            "jobs": self.jobs,
            "mutations": self._mutations,
            "engine": info,
            "coalescer": self._coalescer.stats(),
            "replication": self.replication_stats(),
            "responses": {
                "entries": len(self._responses),
                "hits": self._response_hits,
            },
        }

    def replication_stats(self) -> Dict[str, Any]:
        """This host's place in the replication topology, for ``stats``.

        A standalone host is trivially its own writer: generation is
        authoritative and lag is zero.  The writer/replica subclasses in
        :mod:`repro.replicate` extend this with subscriber counts and
        replica lag.
        """
        return {
            "role": self.role,
            "generation": self.graph.generation,
            "lag": 0,
        }

"""The read-replica side of the replication tier.

A :class:`ReplicaHost` is an :class:`~repro.serve.EngineHost` whose
graph advances only by applying writer-originated deltas (its ``mutate``
answers ``read-only``).  Queries accept an optional ``min_generation``
read-your-writes token: the host blocks the query until its graph
reaches that generation, answering ``lagging`` when it cannot in time.

A :class:`ReplicaService` runs one background subscription task per
hosted dataset: it connects to the upstream writer, sends a
``subscribe`` request from the replica's current generation, and feeds
the resulting stream — snapshot bootstrap, backlog, live deltas — into
its host.  Connection loss (including a writer-side ``lagging`` kick)
triggers reconnect-with-resync from whatever generation the replica
reached, so a replica killed mid-stream converges after rejoining.

Deltas can arrive out of order when the transport between writer and
replica reorders lines (the fault suite injects exactly that), so
:meth:`ReplicaHost.apply_delta` buffers ahead-of-sequence entries and
applies them strictly in generation order; duplicates (replayed on
reconnect) are skipped idempotently.
"""

from __future__ import annotations

import asyncio
import base64
import contextlib
import logging
from typing import Any, Dict, Optional, Tuple

from ..exceptions import DiskStoreError, ProtocolError, ReplicationError
from ..ext.incremental import IncrementalEntityGraph
from ..serve.host import EngineHost, apply_mutation, parse_mutation
from ..serve.protocol import decode_frame, encode_frame
from ..serve.service import PreviewService
from ..store.disk import DiskGraphStore

logger = logging.getLogger(__name__)


class ReplicaHost(EngineHost):
    """A read-only host kept warm by the writer's delta stream."""

    role = "replica"

    #: Budget for a ``min_generation`` wait before answering ``lagging``.
    REPLICA_WAIT_SECONDS = 5.0

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Lazily bound for the same 3.9 loop-affinity reason as
        # serve.locks.ReadWriteLock: hosts are built off-loop.
        self._caught_up: Optional[asyncio.Condition] = None
        #: Ahead-of-sequence deltas keyed by generation (reordered wire).
        self._pending_deltas: Dict[int, Dict[str, Any]] = {}
        self._last_writer_generation = self.graph.generation
        self._applied = 0
        self._snapshots = 0
        self._resyncs = 0

    def _condition(self) -> asyncio.Condition:
        if self._caught_up is None:
            self._caught_up = asyncio.Condition()
        return self._caught_up

    # ------------------------------------------------------------------
    # Stream ingestion (called by ReplicaService's subscription task)
    # ------------------------------------------------------------------
    def note_writer_generation(self, generation: int) -> None:
        """Record the writer's generation for lag accounting."""
        if generation > self._last_writer_generation:
            self._last_writer_generation = generation

    async def apply_delta(self, entry: Dict[str, Any]) -> None:
        """Apply one writer delta entry (idempotent, order-restoring).

        ``entry`` is the writer's record: ``{"generation": g, "params":
        <wire mutation params>, "dirty": <MutationDelta record>}``.
        Entries at or below the replica generation are skipped
        (reconnect replays overlap); entries ahead of the next expected
        generation are buffered until the gap fills.

        Raises
        ------
        ReplicationError
            For a malformed entry, or when the locally computed dirty
            delta disagrees with the writer's shipped one (a divergence
            the conformance harness must never see — the caller
            resyncs from scratch).
        """
        generation = entry.get("generation")
        if not isinstance(generation, int) or isinstance(generation, bool):
            raise ReplicationError("delta entry needs an integer 'generation'")
        params = entry.get("params")
        if not isinstance(params, dict):
            raise ReplicationError("delta entry needs a 'params' object")
        if generation <= self.graph.generation:
            return  # duplicate from a reconnect overlap
        self._pending_deltas[generation] = entry
        while True:
            expected = self.graph.generation + 1
            pending = self._pending_deltas.pop(expected, None)
            if pending is None:
                return
            await self._apply_one(pending)

    async def _apply_one(self, entry: Dict[str, Any]) -> None:
        """Apply the next-in-sequence delta under the write lock."""
        kind, fields = parse_mutation(entry["params"])
        shipped = entry.get("dirty")

        def apply() -> Tuple[int, Dict[str, Any]]:
            before = self.graph.generation
            generation = apply_mutation(self.graph, kind, fields)
            return generation, self.graph.mutation_log.dirty_since(before).to_record()

        async with self._lock.write_locked():
            generation, dirty = await self._on_worker(apply)
            self._mutations += 1
            self._applied += 1
            self._responses.clear()
        if generation != entry["generation"]:
            raise ReplicationError(
                f"replica applied generation {generation} but the writer "
                f"stamped {entry['generation']} — the streams diverged"
            )
        if shipped is not None and shipped != dirty:
            raise ReplicationError(
                f"dirty-delta mismatch at generation {generation}: writer "
                f"shipped {shipped}, replica computed {dirty}"
            )
        self.note_writer_generation(generation)
        condition = self._condition()
        async with condition:
            condition.notify_all()

    async def bootstrap(self, snapshot: str) -> None:
        """Replace this host's graph wholesale from a snapshot frame.

        The snapshot-bootstrap path for a replica too far behind to
        catch up delta-by-delta.  ``snapshot`` is the base64 text of the
        writer's :func:`~repro.store.disk.encode_store` image.  It is
        materialized by :meth:`~repro.store.disk.DiskGraphStore.entity_graph`
        with every store check (CRC-32, section bounds, fingerprint,
        stored generation); the restored graph, its log at the writer's
        generation, replaces the live one, the engine is rebuilt against
        it, and every cache is dropped.  A damaged snapshot changes
        nothing.

        Raises
        ------
        ReplicationError
            For text that is not base64, for any
            :class:`~repro.exceptions.DiskStoreError` of the image, or
            when the snapshot is older than the replica (bootstrap never
            rewinds a graph).
        """
        def rebuild() -> int:
            try:
                image = base64.b64decode(snapshot, validate=True)
            except ValueError as exc:
                raise ReplicationError(
                    f"snapshot frame is not base64: {exc}"
                ) from exc
            try:
                with DiskGraphStore.from_bytes(image, "snapshot frame") as store:
                    restored = store.entity_graph(verify=True)
            except DiskStoreError as exc:
                raise ReplicationError(f"damaged snapshot: {exc}") from exc
            if restored.generation < self.graph.generation:
                raise ReplicationError(
                    f"snapshot at generation {restored.generation} is older "
                    f"than the replica at {self.graph.generation}"
                )
            self.graph = IncrementalEntityGraph(base=restored)
            self.engine = self.graph.engine(self.key_scorer, self.nonkey_scorer)
            return restored.generation

        async with self._lock.write_locked():
            generation = await self._on_worker(rebuild)
            self._snapshots += 1
            self._responses.clear()
            self._pending_deltas.clear()
        self.note_writer_generation(generation)
        condition = self._condition()
        async with condition:
            condition.notify_all()

    def note_resync(self) -> None:
        """Count one reconnect-with-resync (stats surface)."""
        self._resyncs += 1
        self._pending_deltas.clear()

    # ------------------------------------------------------------------
    # Read-your-writes admission
    # ------------------------------------------------------------------
    async def _admit_read(self, params: Dict[str, Any]) -> None:
        """Block until the graph reaches the request's generation token.

        Raises
        ------
        ProtocolError
            ``bad-request`` for a malformed token, ``lagging`` when the
            replica cannot reach it within the wait budget.
        """
        token = params.get("min_generation")
        if token is None:
            return
        if not isinstance(token, int) or isinstance(token, bool) or token < 0:
            raise ProtocolError(
                "bad-request",
                "param 'min_generation' must be a non-negative integer",
            )
        if self.graph.generation >= token:
            return
        condition = self._condition()

        async def wait_caught_up() -> None:
            async with condition:
                while self.graph.generation < token:
                    await condition.wait()

        try:
            await asyncio.wait_for(wait_caught_up(), self.REPLICA_WAIT_SECONDS)
        except asyncio.TimeoutError:
            raise ProtocolError(
                "lagging",
                f"replica is at generation {self.graph.generation}, below the "
                f"requested {token} (waited {self.REPLICA_WAIT_SECONDS}s)",
            ) from None

    async def preview(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Answer a ``preview`` once the generation token is satisfied."""
        await self._admit_read(params)
        return await super().preview(params)

    async def sweep(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Answer a ``sweep`` once the generation token is satisfied."""
        await self._admit_read(params)
        return await super().sweep(params)

    async def mutate(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Reject: replicas never originate mutations."""
        raise ProtocolError(
            "read-only",
            f"dataset {self.name!r} is a read replica; "
            "send mutations to the writer",
        )

    def encoded_response(self, op: str, params: Dict[str, Any]) -> Optional[bytes]:
        """The warm fast path, disabled while behind a generation token."""
        token = params.get("min_generation")
        if isinstance(token, int) and not isinstance(token, bool):
            if token > self.graph.generation:
                return None  # must wait: take the async path
        return super().encoded_response(op, params)

    def replication_stats(self) -> Dict[str, Any]:
        """Replica-side replication counters for the ``stats`` op."""
        stats = super().replication_stats()
        generation = self.graph.generation
        stats.update(
            lag=max(0, self._last_writer_generation - generation),
            writer_generation=self._last_writer_generation,
            applied=self._applied,
            snapshots=self._snapshots,
            resyncs=self._resyncs,
        )
        return stats


class ReplicaService(PreviewService):
    """A read-only service that follows one upstream writer.

    Parameters
    ----------
    hosts:
        The :class:`ReplicaHost` set (as for
        :class:`~repro.serve.PreviewService`).
    upstream:
        The writer service's ``(host, port)`` address.
    max_pending, request_timeout, max_frame:
        As for :class:`~repro.serve.PreviewService`.
    """

    #: Delay before reconnecting a broken subscription, seconds.
    RECONNECT_SECONDS = 0.2

    #: Cap on the delay, which doubles after every connected pass that
    #: applied no frame (a replica stuck on a line it cannot take would
    #: otherwise make the writer encode a snapshot every
    #: :attr:`RECONNECT_SECONDS`), seconds.
    RECONNECT_MAX_SECONDS = 5.0

    #: Stream buffer limit for the upstream connection — generous,
    #: because one line can carry a whole graph snapshot.  A longer
    #: line resyncs the subscription.
    STREAM_LIMIT = 1 << 26

    def __init__(self, hosts, upstream: Tuple[str, int], **kwargs) -> None:
        super().__init__(hosts, **kwargs)
        self.upstream = upstream
        self._subscriptions: list = []

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind, then launch one subscription task per hosted dataset."""
        await super().start(host, port)
        for name, replica in self._hosts.items():
            self._subscriptions.append(
                asyncio.ensure_future(self._subscription_loop(name, replica))
            )

    async def aclose(self) -> None:
        """Cancel the subscription tasks, then close like any service."""
        for task in self._subscriptions:
            task.cancel()
        if self._subscriptions:
            await asyncio.gather(*self._subscriptions, return_exceptions=True)
        self._subscriptions.clear()
        await super().aclose()

    async def _subscription_loop(self, name: str, replica: ReplicaHost) -> None:
        """Keep one dataset subscribed to the writer, forever.

        Each pass opens a connection, subscribes from the replica's
        current generation, and consumes stream frames until the
        connection breaks or the writer kicks; then it resyncs and
        reconnects.  Incoming lines are dispatched by *shape* (the
        ``stream`` key vs the ``ok`` acknowledgement), so a transport
        that delivers the acknowledgement late never desynchronizes
        the loop.  Every resync is counted and logged with its cause; a
        line longer than :attr:`STREAM_LIMIT` resyncs like a broken
        connection instead of ending the task.  A refused connection
        retries after :attr:`RECONNECT_SECONDS`; after a connected pass
        that applied no frame the delay doubles, up to
        :attr:`RECONNECT_MAX_SECONDS`, until a frame applies again.
        """
        first = True
        delay = backoff = self.RECONNECT_SECONDS
        while True:
            if not first:
                replica.note_resync()
                await asyncio.sleep(delay)
            first = False
            try:
                reader, writer = await asyncio.open_connection(
                    *self.upstream, limit=self.STREAM_LIMIT
                )
            except OSError:
                delay = self.RECONNECT_SECONDS
                continue
            applied = False
            cause = "the writer closed the stream"
            try:
                writer.write(
                    encode_frame(
                        {
                            "op": "subscribe",
                            "dataset": name,
                            "params": {
                                "from_generation": replica.graph.generation
                            },
                        }
                    )
                )
                await writer.drain()
                while True:
                    try:
                        line = await reader.readline()
                    except ValueError as exc:
                        # StreamReader's answer to a line over the limit.
                        raise ReplicationError(
                            f"an upstream line exceeds the "
                            f"{self.STREAM_LIMIT}-byte stream limit"
                        ) from exc
                    if not line:
                        break  # writer went away: resync
                    frame = decode_frame(line, max_frame=self.STREAM_LIMIT)
                    if await self._consume_frame(replica, frame):
                        cause = "the writer kicked this subscriber"
                        break
                    applied = applied or frame.get("stream") in ("delta", "snapshot")
            except (
                ConnectionError,
                asyncio.IncompleteReadError,
                ProtocolError,
                ReplicationError,
            ) as exc:
                cause = f"{type(exc).__name__}: {exc}"
            finally:
                writer.close()
                with contextlib.suppress(Exception):
                    await writer.wait_closed()
            if applied:
                backoff = self.RECONNECT_SECONDS
            delay = backoff
            backoff = min(2 * backoff, self.RECONNECT_MAX_SECONDS)
            logger.warning(
                "replica of %r resyncs from generation %d in %.1f s: %s",
                name,
                replica.graph.generation,
                delay,
                cause,
            )

    async def _consume_frame(
        self, replica: ReplicaHost, frame: Dict[str, Any]
    ) -> bool:
        """Handle one upstream frame; True when the stream must restart.

        Raises
        ------
        ReplicationError
            From delta/snapshot application (divergence, corruption) —
            the loop treats it as a resync trigger.
        """
        stream = frame.get("stream")
        if stream == "delta":
            entry = frame.get("delta")
            if not isinstance(entry, dict):
                raise ReplicationError("delta frame without a 'delta' object")
            await replica.apply_delta(entry)
            return False
        if stream == "snapshot":
            snapshot = frame.get("snapshot")
            if not isinstance(snapshot, str):
                raise ReplicationError(
                    "snapshot frame without a base64 'snapshot' string"
                )
            await replica.bootstrap(snapshot)
            return False
        if stream == "lagging":
            return True
        if frame.get("ok"):
            result = frame.get("result") or {}
            writer_generation = result.get("writer_generation")
            if isinstance(writer_generation, int):
                replica.note_writer_generation(writer_generation)
            return False
        if frame.get("ok") is False:
            error = frame.get("error") or {}
            raise ReplicationError(
                f"writer rejected the subscription: "
                f"[{error.get('code')}] {error.get('message')}"
            )
        raise ReplicationError(f"unrecognized stream frame: {sorted(frame)}")

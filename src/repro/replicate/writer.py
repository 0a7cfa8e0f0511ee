"""The single-writer side of the replication tier.

A :class:`WriterHost` is an :class:`~repro.serve.EngineHost` that, in
addition to applying mutations locally, retains a bounded window of
per-mutation replication entries (generation, wire params, dirty-type
delta) and fans each new entry out to every attached subscriber queue.
A :class:`WriterService` is a :class:`~repro.serve.PreviewService`
whose ``subscribe`` op upgrades the connection to a server-push stream:
one acknowledgement response, an optional snapshot frame (the graph's
``.rgs`` store image, when the subscriber's baseline fell behind the
retained window), the backlog of retained deltas, then live deltas as
mutations land.

Backpressure is Redis-style: a subscriber whose bounded queue overflows
is *kicked* (it receives a ``lagging`` stream frame and its connection
closes) rather than ever stalling the writer's mutation path — the
replica reconnects and resyncs, from the delta backlog or a snapshot.
"""

from __future__ import annotations

import asyncio
import base64
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from .. import config
from ..exceptions import ProtocolError
from ..serve.host import EngineHost, apply_mutation, parse_mutation
from ..serve.protocol import encode_frame, error_response, ok_response
from ..serve.service import PreviewService
from ..store.disk import encode_store


class _Subscriber:
    """One attached replica stream: a bounded delta queue + kick flag."""

    def __init__(self, queue_size: int) -> None:
        self.queue: "asyncio.Queue[Dict[str, Any]]" = asyncio.Queue(
            maxsize=queue_size
        )
        self.kicked = False


class WriterHost(EngineHost):
    """The authoritative host: mutations originate here, deltas fan out.

    Parameters
    ----------
    name, data, key_scorer, nonkey_scorer, jobs:
        As for :class:`~repro.serve.EngineHost`.
    window:
        Replication-log entries retained for delta catch-up; defaults
        to the ``REPRO_REPLICATION_WINDOW`` knob.  A subscriber whose
        baseline predates the window bootstraps from a snapshot.
    queue_size:
        Bound on each subscriber's pending-delta queue; overflow kicks
        the subscriber instead of stalling the mutation path.
    """

    role = "writer"

    def __init__(
        self,
        name: str,
        data,
        key_scorer: str = "coverage",
        nonkey_scorer: str = "coverage",
        jobs: int = 1,
        window: Optional[int] = None,
        queue_size: int = 256,
    ) -> None:
        super().__init__(
            name,
            data,
            key_scorer=key_scorer,
            nonkey_scorer=nonkey_scorer,
            jobs=jobs,
        )
        self._repl_window = (
            window if window is not None else config.replication_window()
        )
        self._repl_queue_size = queue_size
        #: Retained per-mutation entries: {"generation", "params", "dirty"}.
        self._repl_entries: Deque[Dict[str, Any]] = deque()
        #: Highest generation no longer retained (snapshot territory).
        self._repl_horizon = self.graph.generation
        self._subscribers: List[_Subscriber] = []
        self._kicked = 0

    # ------------------------------------------------------------------
    # Mutation path (overrides EngineHost.mutate to log + broadcast)
    # ------------------------------------------------------------------
    async def mutate(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Apply one mutation, retain its delta entry, fan it out.

        The broadcast happens inside the write-locked section, on the
        event loop, after the graph mutation completed on the worker
        thread — so subscribers observe entries in strict generation
        order and a query admitted after the mutation's response can
        never race the entry's enqueue.
        """
        kind, fields = parse_mutation(params)

        def apply():
            before = self.graph.generation
            generation = apply_mutation(self.graph, kind, fields)
            return generation, self.graph.mutation_log.dirty_since(before).to_record()

        async with self._lock.write_locked():
            generation, dirty = await self._on_worker(apply)
            self._mutations += 1
            self._responses.clear()
            entry = {"generation": generation, "params": dict(params), "dirty": dirty}
            self._repl_entries.append(entry)
            if len(self._repl_entries) > self._repl_window:
                dropped = self._repl_entries.popleft()
                self._repl_horizon = dropped["generation"]
            self._broadcast(entry)
        return {"kind": kind, "generation": generation}

    def _broadcast(self, entry: Dict[str, Any]) -> None:
        """Enqueue ``entry`` on every live subscriber; kick the full ones."""
        for subscriber in list(self._subscribers):
            try:
                subscriber.queue.put_nowait(entry)
            except asyncio.QueueFull:
                subscriber.kicked = True
                self._kicked += 1
                self._subscribers.remove(subscriber)
                # Wake the stream task so it can deliver the kick: the
                # sentinel always fits because the reader drains nothing
                # else once kicked.
                while True:
                    try:
                        subscriber.queue.put_nowait({"kicked": True})
                        break
                    except asyncio.QueueFull:  # pragma: no cover - defensive
                        subscriber.queue.get_nowait()

    # ------------------------------------------------------------------
    # Subscription attach (called by WriterService under the read lock)
    # ------------------------------------------------------------------
    def attach_subscriber(self) -> _Subscriber:
        """Register a new subscriber queue (event-loop thread only)."""
        subscriber = _Subscriber(self._repl_queue_size)
        self._subscribers.append(subscriber)
        return subscriber

    def detach_subscriber(self, subscriber: _Subscriber) -> None:
        """Remove a subscriber (idempotent; kicked ones already left)."""
        if subscriber in self._subscribers:
            self._subscribers.remove(subscriber)

    def backlog_since(self, generation: int) -> List[Dict[str, Any]]:
        """Retained entries after ``generation``, oldest first."""
        return [
            entry
            for entry in self._repl_entries
            if entry["generation"] > generation
        ]

    @property
    def replication_horizon(self) -> int:
        """Highest generation already dropped from the retained window."""
        return self._repl_horizon

    def replication_stats(self) -> Dict[str, Any]:
        """Writer-side replication counters for the ``stats`` op."""
        stats = super().replication_stats()
        stats.update(
            subscribers=len(self._subscribers),
            log_entries=len(self._repl_entries),
            horizon=self._repl_horizon,
            kicked=self._kicked,
        )
        return stats


class WriterService(PreviewService):
    """A :class:`PreviewService` whose writer hosts accept ``subscribe``.

    The ``subscribe`` op upgrades its connection to a push stream (see
    :mod:`repro.replicate.writer`); every other op behaves exactly as
    on a standalone service.
    """

    STREAMING_OPS = ("subscribe",)

    #: When set, bound the per-subscriber transport buffer (user-space
    #: high-water mark) and the kernel send buffer, in bytes.  A slow
    #: subscriber then exerts backpressure at its bounded delta queue —
    #: where overflow is detected and kicks — instead of ballooning
    #: megabytes of frames inside the writer process and the kernel.
    STREAM_HIGH_WATER: Optional[int] = None
    STREAM_SNDBUF: Optional[int] = None

    def _bound_stream_buffers(self, writer: asyncio.StreamWriter) -> None:
        if self.STREAM_HIGH_WATER is not None:
            writer.transport.set_write_buffer_limits(
                high=self.STREAM_HIGH_WATER
            )
        if self.STREAM_SNDBUF is not None:
            sock = writer.get_extra_info("socket")
            if sock is not None:
                import socket as socket_module

                sock.setsockopt(
                    socket_module.SOL_SOCKET,
                    socket_module.SO_SNDBUF,
                    self.STREAM_SNDBUF,
                )

    async def _open_stream(self, request, writer: asyncio.StreamWriter) -> None:
        """Serve one replication stream until the subscriber leaves.

        Protocol: the acknowledgement response, then ``{"stream":
        "snapshot"|"delta"|"lagging", ...}`` frames.  Validation errors
        answer a normal error response and close the connection.
        """
        self._counters["requests"] += 1
        self._bound_stream_buffers(writer)
        try:
            host = self._resolve_host(request)
            if not isinstance(host, WriterHost):
                raise ProtocolError(
                    "bad-request",
                    f"dataset {host.name!r} is not writable on this service "
                    "(subscribe targets the writer role)",
                )
            baseline = request.params.get("from_generation", 0)
            if (
                not isinstance(baseline, int)
                or isinstance(baseline, bool)
                or baseline < 0
            ):
                raise ProtocolError(
                    "bad-request",
                    "param 'from_generation' must be a non-negative integer",
                )
        except ProtocolError as exc:
            self._counters["errors"] += 1
            await self._reply(writer, error_response(request.id, exc.code, str(exc)))
            return
        subscriber = None
        try:
            # The read lock excludes mutations, so the generation read,
            # the optional snapshot capture, the backlog collection and
            # the subscriber attach are one atomic cut: every mutation
            # after it reaches the queue, every one before it is in the
            # snapshot/backlog, and none is in both.
            async with host._lock.read_locked():
                writer_generation = host.graph.generation
                if baseline > writer_generation:
                    self._counters["errors"] += 1
                    await self._reply(
                        writer,
                        error_response(
                            request.id,
                            "bad-request",
                            f"from_generation {baseline} is ahead of the "
                            f"writer generation {writer_generation}",
                        ),
                    )
                    return
                needs_snapshot = baseline < host.replication_horizon
                snapshot = None
                if needs_snapshot:
                    # The store image, base64 inside the JSON line: the
                    # stream is newline-framed end to end.
                    snapshot = await host._on_worker(
                        lambda: base64.b64encode(
                            encode_store(host.graph.entity_graph)
                        ).decode("ascii")
                    )
                backlog = host.backlog_since(
                    writer_generation if needs_snapshot else baseline
                )
                subscriber = host.attach_subscriber()
            self._counters["ok"] += 1
            frames = [
                encode_frame(
                    ok_response(
                        request.id,
                        "subscribe",
                        {
                            "dataset": host.name,
                            "from": baseline,
                            "writer_generation": writer_generation,
                            "snapshot": needs_snapshot,
                        },
                    )
                )
            ]
            if snapshot is not None:
                frames.append(
                    encode_frame({"stream": "snapshot", "snapshot": snapshot})
                )
            frames.extend(
                encode_frame({"stream": "delta", "delta": entry})
                for entry in backlog
            )
            writer.write(b"".join(frames))
            await writer.drain()
            while True:
                entry = await subscriber.queue.get()
                if subscriber.kicked:
                    await self._reply(
                        writer,
                        {
                            "stream": "lagging",
                            "message": (
                                "subscriber queue overflowed; reconnect "
                                "and resync"
                            ),
                        },
                    )
                    return
                await self._reply(writer, {"stream": "delta", "delta": entry})
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # subscriber went away; detach below
        finally:
            if subscriber is not None:
                host.detach_subscriber(subscriber)
